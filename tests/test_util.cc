#include "test_util.h"

#include "common/strings.h"

namespace fieldrep::testing {

std::unique_ptr<Database> OpenEmployeeDatabase(size_t pool_frames,
                                               bool enable_wal) {
  Database::Options options;
  options.buffer_pool_frames = pool_frames;
  options.enable_wal = enable_wal;
  auto db_or = Database::Open(options);
  EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();

  EXPECT_TRUE(db->DefineType(TypeDescriptor("ORG", {CharAttr("name", 20),
                                                    Int32Attr("budget")}))
                  .ok());
  EXPECT_TRUE(db->DefineType(TypeDescriptor(
                                 "DEPT", {CharAttr("name", 20),
                                          Int32Attr("budget"),
                                          RefAttr("org", "ORG")}))
                  .ok());
  EXPECT_TRUE(db->DefineType(TypeDescriptor(
                                 "EMP", {CharAttr("name", 20),
                                         Int32Attr("age"),
                                         Int32Attr("salary"),
                                         RefAttr("dept", "DEPT")}))
                  .ok());
  EXPECT_TRUE(db->CreateSet("Org", "ORG").ok());
  EXPECT_TRUE(db->CreateSet("Dept", "DEPT").ok());
  EXPECT_TRUE(db->CreateSet("Emp1", "EMP").ok());
  EXPECT_TRUE(db->CreateSet("Emp2", "EMP").ok());
  return db;
}

EmployeeFixture PopulateEmployees(Database* db, int n_orgs, int n_depts,
                                  int n_emps) {
  EmployeeFixture fixture;
  for (int i = 0; i < n_orgs; ++i) {
    Object org(0, {Value(StringPrintf("org%d", i)), Value(int32_t{1000 * i})});
    Oid oid;
    EXPECT_TRUE(db->Insert("Org", org, &oid).ok());
    fixture.orgs.push_back(oid);
  }
  for (int j = 0; j < n_depts; ++j) {
    Object dept(0, {Value(StringPrintf("dept%d", j)), Value(int32_t{10 * j}),
                    n_orgs > 0 ? Value(fixture.orgs[j % n_orgs])
                               : Value::Null()});
    Oid oid;
    EXPECT_TRUE(db->Insert("Dept", dept, &oid).ok());
    fixture.depts.push_back(oid);
  }
  for (int k = 0; k < n_emps; ++k) {
    Object emp(0, {Value(StringPrintf("emp%d", k)),
                   Value(int32_t{20 + k % 50}), Value(int32_t{1000 * k}),
                   n_depts > 0 ? Value(fixture.depts[k % n_depts])
                               : Value::Null()});
    Oid oid;
    EXPECT_TRUE(db->Insert("Emp1", emp, &oid).ok());
    fixture.emps.push_back(oid);
  }
  return fixture;
}

Value TraversePath(Database* db, const std::string& set_name, const Oid& oid,
                   const std::vector<std::string>& attrs) {
  std::string current_set = set_name;
  Oid current = oid;
  for (size_t i = 0; i < attrs.size(); ++i) {
    auto set_or = db->GetSet(current_set);
    if (!set_or.ok()) return Value::Null();
    Object object;
    if (!set_or.value()->Read(current, &object).ok()) return Value::Null();
    int attr = set_or.value()->type().FindAttribute(attrs[i]);
    if (attr < 0) return Value::Null();
    const Value& value = object.field(attr);
    if (i + 1 == attrs.size()) return value;
    if (!value.is_ref()) return Value::Null();
    current = value.as_ref();
    auto info_or = db->catalog().GetSetForFile(current.file_id);
    if (!info_or.ok()) return Value::Null();
    current_set = info_or.value()->name;
  }
  return Value::Null();
}

void ExpectCleanIntegrity(Database* db) {
  CheckReport report;
  Status s = db->CheckIntegrity(&report);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(report.error_count(), 0u) << report.ToString();
}

}  // namespace fieldrep::testing
