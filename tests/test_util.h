#ifndef FIELDREP_TESTS_TEST_UTIL_H_
#define FIELDREP_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "gtest/gtest.h"

namespace fieldrep::testing {

/// gtest helper: asserts a Status is OK with its message on failure.
#define FR_ASSERT_OK(expr)                                 \
  do {                                                     \
    ::fieldrep::Status _s = (expr);                        \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                 \
  } while (0)

#define FR_EXPECT_OK(expr)                                 \
  do {                                                     \
    ::fieldrep::Status _s = (expr);                        \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                 \
  } while (0)

/// Builds the paper's Figure 1 employee database schema (ORG, DEPT, EMP
/// types; Org, Dept, Emp1, Emp2 sets) in a fresh in-memory database,
/// with an in-memory write-ahead log when `enable_wal` is set.
std::unique_ptr<Database> OpenEmployeeDatabase(size_t pool_frames = 4096,
                                               bool enable_wal = false);

/// Inserted fixture data handles.
struct EmployeeFixture {
  std::vector<Oid> orgs;   ///< n_orgs organizations
  std::vector<Oid> depts;  ///< n_depts departments, org = round-robin
  std::vector<Oid> emps;   ///< n_emps in Emp1, dept = round-robin
};

/// Populates the sets: org i is ("org<i>", budget 1000*i); dept j is
/// ("dept<j>", budget 10*j, org j%n_orgs); employee k is ("emp<k>",
/// age 20+k%50, salary 1000*k, dept k%n_depts), inserted into Emp1.
EmployeeFixture PopulateEmployees(Database* db, int n_orgs, int n_depts,
                                  int n_emps);

/// Reads the value found by forward traversal of `oid.<attrs...>` —
/// ground truth for replica checks.
Value TraversePath(Database* db, const std::string& set_name, const Oid& oid,
                   const std::vector<std::string>& attrs);

/// Runs the full integrity checker and EXPECTs zero error findings —
/// closing assertion for integration/scenario tests.
void ExpectCleanIntegrity(Database* db);

}  // namespace fieldrep::testing

#endif  // FIELDREP_TESTS_TEST_UTIL_H_
