// Company reporting: a whole session in the EXTRA-flavoured statement
// language — multi-level replication paths (Section 3.3.2), collapsing a
// path with a replicated ref attribute (Section 3.3.3), and an index on a
// replicated n-level path supporting associative lookup (Section 3.3.4).
//
// Build & run:  ./build/examples/company_reporting

#include <cstdio>
#include <cstdlib>

#include "extra/interpreter.h"

using namespace fieldrep;

namespace {
void Run(extra::Interpreter* interpreter, const std::string& script) {
  auto out = interpreter->Execute(script);
  if (!out.ok()) {
    std::fprintf(stderr, "error: %s\nscript: %s\n",
                 out.status().ToString().c_str(), script.c_str());
    std::exit(1);
  }
  std::printf("%s", out->c_str());
}
}  // namespace

int main() {
  auto db_or = Database::Open({});
  if (!db_or.ok()) {
    std::fprintf(stderr, "%s\n", db_or.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_or).value();
  extra::Interpreter interpreter(db.get());

  std::printf(">>> schema (the paper's Figure 1)\n");
  Run(&interpreter,
      "define type ORG  ( name: char[20], budget: int );"
      "define type DEPT ( name: char[20], budget: int, org: ref ORG );"
      "define type EMP  ( name: char[20], age: int, salary: int, "
      "                   dept: ref DEPT );"
      "create Org: {own ref ORG};"
      "create Dept: {own ref DEPT};"
      "create Emp1: {own ref EMP};"
      "create Emp2: {own ref EMP};");

  std::printf("\n>>> data\n");
  Run(&interpreter,
      "insert Org (name = \"acme\", budget = 500) as $acme;"
      "insert Org (name = \"globex\", budget = 900) as $globex;"
      "insert Dept (name = \"toys\",  budget = 10, org = $acme)   as $toys;"
      "insert Dept (name = \"shoes\", budget = 20, org = $acme)   as $shoes;"
      "insert Dept (name = \"lasers\", budget = 80, org = $globex) as "
      "$lasers;"
      "insert Emp1 (name = \"fred\", age = 40, salary = 120000, dept = "
      "$toys);"
      "insert Emp1 (name = \"sue\",  age = 35, salary = 150000, dept = "
      "$shoes);"
      "insert Emp1 (name = \"ann\",  age = 28, salary = 90000,  dept = "
      "$lasers);"
      "insert Emp1 (name = \"bob\",  age = 51, salary = 101000, dept = "
      "$lasers);"
      "insert Emp2 (name = \"zoe\",  age = 30, salary = 70000,  dept = "
      "$toys);");

  std::printf("\n>>> 2-level replication (Section 3.3.2) + full object "
              "replication (Section 3.3.1)\n");
  Run(&interpreter,
      "replicate Emp1.dept.org.name;"
      "replicate Emp1.dept.all;"
      "show catalog;");

  std::printf("\n>>> an index on a replicated 2-level path "
              "(Section 3.3.4)\n");
  Run(&interpreter, "build btree emp_by_org on Emp1.dept.org.name;");

  std::printf("\n>>> associative lookup: employees of organization "
              "\"globex\" (one index probe, no joins)\n");
  Run(&interpreter,
      "retrieve (Emp1.name, Emp1.salary, Emp1.dept.name, "
      "Emp1.dept.org.name) where Emp1.dept.org.name = \"globex\"");

  std::printf("\n>>> update an organization's name: the inverted path "
              "propagates it to every replica and the path index follows\n");
  Run(&interpreter,
      "replace Org (name = \"initech\") where name = \"globex\";"
      "verify Emp1.dept.org.name;"
      "retrieve (Emp1.name, Emp1.dept.org.name) "
      "where Emp1.dept.org.name = \"initech\"");

  std::printf("\n>>> retarget a department to another organization "
              "(the Section 4.1.2 ripple)\n");
  Run(&interpreter,
      "replace Dept (org = $acme) where name = \"lasers\";"
      "verify Emp1.dept.org.name;"
      "retrieve (Emp1.name, Emp1.dept.org.name) where Emp1.salary > "
      "100000");

  std::printf("\n>>> separate replication for the update-heavy Emp2 set "
              "(Section 5)\n");
  Run(&interpreter,
      "replicate Emp2.dept.name using separate;"
      "replace Dept (name = \"fun\") where name = \"toys\";"
      "verify Emp2.dept.name;"
      "retrieve (Emp2.name, Emp2.dept.name)");

  std::printf("\n>>> inverse functions (Section 8 future work): who "
              "references the lasers department?\n");
  auto lasers = interpreter.GetVariable("lasers");
  if (lasers.ok()) {
    std::vector<Oid> referencers;
    bool via_link = false;
    Status s = db->replication().FindReferencers("Emp1", "dept", *lasers,
                                                 &referencers, &via_link);
    if (s.ok()) {
      std::printf("%zu Emp1 objects reference $lasers, answered via %s\n",
                  referencers.size(),
                  via_link ? "the inverted path's link object (no scan)"
                           : "a set scan");
    }
  }
  return 0;
}
