// Facade-level tests: Database error paths, I/O accounting surfaces, and
// the public API contracts the examples rely on.

#include "fieldrep/fieldrep.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;

TEST(DatabaseTest, OpenBadPathFails) {
  Database::Options options;
  options.file_path = "/nonexistent-dir/nope/db.bin";
  EXPECT_FALSE(Database::Open(options).ok());
}

TEST(DatabaseTest, ZeroFrameOptionClampsToOne) {
  Database::Options options;
  options.buffer_pool_frames = 0;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->pool().capacity(), 1u);
}

TEST(DatabaseTest, SchemaErrorPaths) {
  auto db = OpenEmployeeDatabase();
  // Duplicate set.
  EXPECT_EQ(db->CreateSet("Emp1", "EMP").code(), StatusCode::kAlreadyExists);
  // Unknown type.
  EXPECT_TRUE(db->CreateSet("X", "GHOST").IsNotFound());
  // Replicating an unknown set / attribute.
  EXPECT_FALSE(db->Replicate("Ghost.dept.name", {}).ok());
  EXPECT_FALSE(db->Replicate("Emp1.ghost.name", {}).ok());
  // Index on unknown attribute.
  EXPECT_FALSE(db->BuildIndex("bad", "Emp1", "ghost").ok());
  // Duplicate index name.
  FR_ASSERT_OK(db->BuildIndex("idx", "Emp1", "salary"));
  EXPECT_EQ(db->BuildIndex("idx", "Emp1", "age").code(),
            StatusCode::kAlreadyExists);
  // Dropping a nonexistent replication path.
  EXPECT_TRUE(db->DropReplication("Emp1.dept.name").IsNotFound());
}

TEST(DatabaseTest, DataErrorPaths) {
  auto db = OpenEmployeeDatabase();
  EmployeeFixture fixture = PopulateEmployees(db.get(), 1, 2, 4);
  // Unknown set on every entry point.
  Object object;
  Oid oid;
  EXPECT_TRUE(db->Insert("Nope", object, &oid).IsNotFound());
  EXPECT_TRUE(db->Get("Nope", fixture.emps[0], &object).IsNotFound());
  EXPECT_TRUE(db->Delete("Nope", fixture.emps[0]).IsNotFound());
  // Unknown attribute on update.
  EXPECT_FALSE(
      db->Update("Emp1", fixture.emps[0], "ghost", Value(int32_t{1})).ok());
  // Type-mismatched value.
  EXPECT_FALSE(
      db->Update("Emp1", fixture.emps[0], "salary", Value("words")).ok());
  // OID from the wrong set.
  EXPECT_FALSE(db->Get("Emp1", fixture.depts[0], &object).ok());
  // Deleting twice.
  FR_ASSERT_OK(db->Delete("Emp1", fixture.emps[0]));
  EXPECT_FALSE(db->Delete("Emp1", fixture.emps[0]).ok());
}

TEST(DatabaseTest, ColdStartZeroesCounters) {
  auto db = OpenEmployeeDatabase();
  PopulateEmployees(db.get(), 1, 2, 30);
  FR_ASSERT_OK(db->ColdStart());
  EXPECT_EQ(db->io_stats().disk_reads, 0u);
  EXPECT_EQ(db->io_stats().disk_writes, 0u);
  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name"};
  ReadResult result;
  FR_ASSERT_OK(db->Retrieve(query, &result));
  // A scan of one data page (30 * ~70-byte objects) costs exactly that
  // page read.
  EXPECT_GE(db->io_stats().disk_reads, 1u);
  EXPECT_LE(db->io_stats().disk_reads, 2u);
  // Repeating the query warm costs nothing.
  uint64_t after_first = db->io_stats().disk_reads;
  FR_ASSERT_OK(db->Retrieve(query, &result));
  EXPECT_EQ(db->io_stats().disk_reads, after_first);
}

TEST(DatabaseTest, ReadQueryIoBreakdownMatchesPlan) {
  // With replication, the measured read touches only index + R pages +
  // output; the S file is never read.
  auto db = OpenEmployeeDatabase(8192);
  EmployeeFixture fixture = PopulateEmployees(db.get(), 2, 30, 600);
  FR_ASSERT_OK(db->BuildIndex("emp_salary", "Emp1", "salary"));
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  auto emp_set = db->GetSet("Emp1");
  auto dept_set = db->GetSet("Dept");
  ASSERT_TRUE(emp_set.ok() && dept_set.ok());
  uint32_t emp_pages = (*emp_set)->file().page_count();

  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name", "dept.name"};
  query.predicate = Predicate::Between("salary", Value(int32_t{0}),
                                       Value(int32_t{599000}));
  FR_ASSERT_OK(db->ColdStart());
  ReadResult result;
  FR_ASSERT_OK(db->Retrieve(query, &result));
  EXPECT_EQ(result.rows.size(), 600u);
  // Full selection via the replica plan: all Emp1 pages plus the index
  // descent/leaves — and nothing from Dept.
  auto tree = db->indexes().GetIndex("emp_salary");
  ASSERT_TRUE(tree.ok());
  auto index_pages = (*tree)->PageCount();
  ASSERT_TRUE(index_pages.ok());
  uint64_t replica_reads = db->io_stats().disk_reads;
  EXPECT_GE(replica_reads, emp_pages);
  EXPECT_LE(replica_reads, emp_pages + *index_pages);
  // The join plan must additionally read Dept pages.
  query.use_replication = false;
  FR_ASSERT_OK(db->ColdStart());
  FR_ASSERT_OK(db->Retrieve(query, &result));
  EXPECT_GE(db->io_stats().disk_reads,
            replica_reads + (*dept_set)->file().page_count());
}

TEST(DatabaseTest, DescribeReflectsOptions) {
  auto db = OpenEmployeeDatabase();
  PopulateEmployees(db.get(), 2, 4, 8);
  ReplicateOptions collapsed;
  collapsed.collapsed = true;
  FR_ASSERT_OK(db->Replicate("Emp1.dept.org.name", collapsed));
  std::string description = db->catalog().Describe();
  EXPECT_NE(description.find(", collapsed"), std::string::npos);
}

TEST(DatabaseTest, RetrieveNeverWrites) {
  // A read through an in-place path takes no lock and commits nothing,
  // inside or outside a session transaction: there is one eager
  // propagation path, so a query never has replica work left to do.
  auto db = OpenEmployeeDatabase(4096, /*enable_wal=*/true);
  auto fixture = PopulateEmployees(db.get(), 2, 4, 20);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  FR_ASSERT_OK(db->BuildIndex("emp_deptname", "Emp1", "dept.name"));
  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name", "dept.name"};
  std::string padded = "renamed";
  padded.resize(20, '\0');
  query.predicate =
      Predicate::Compare("dept.name", CompareOp::kEq, Value(padded));

  auto expect_read_only = [&](size_t expected_rows) {
    const uint64_t commits = db->wal()->stats().transactions;
    const uint64_t acquisitions = db->lock_table().acquisitions();
    const uint64_t held = db->lock_table().held();
    ReadResult result;
    FR_ASSERT_OK(db->Retrieve(query, &result));
    EXPECT_EQ(result.rows.size(), expected_rows);
    for (const auto& row : result.rows) EXPECT_EQ(row[1], Value(padded));
    EXPECT_EQ(db->wal()->stats().transactions, commits);
    EXPECT_EQ(db->lock_table().acquisitions(), acquisitions);
    EXPECT_EQ(db->lock_table().held(), held);
  };

  FR_ASSERT_OK(db->Update("Dept", fixture.depts[1], "name", Value("renamed")));
  expect_read_only(5);

  // Inside a session that already holds its write closure: the read
  // neither grows the lock set nor commits the open transaction.
  FR_ASSERT_OK(db->BeginSessionTransaction());
  FR_ASSERT_OK(db->Update("Dept", fixture.depts[2], "name", Value("renamed")));
  EXPECT_GT(db->lock_table().held(), 0u);
  expect_read_only(10);
  EXPECT_TRUE(db->InSessionTransaction());
  FR_ASSERT_OK(db->CommitSessionTransaction());
  EXPECT_EQ(db->lock_table().held(), 0u);
  testing::ExpectCleanIntegrity(db.get());
}

TEST(DatabaseTest, StorageReportNamesEveryFile) {
  auto db = OpenEmployeeDatabase();
  PopulateEmployees(db.get(), 2, 4, 20);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  ReplicateOptions separate;
  separate.strategy = ReplicationStrategy::kSeparate;
  FR_ASSERT_OK(db->Replicate("Emp1.dept.org.name", separate));
  FR_ASSERT_OK(db->BuildIndex("emp_salary", "Emp1", "salary"));
  std::string report = db->StorageReport();
  EXPECT_NE(report.find("set Emp1"), std::string::npos);
  EXPECT_NE(report.find("link set Emp1.dept"), std::string::npos);
  EXPECT_NE(report.find("replica set (S') for Emp1.dept.org.name"),
            std::string::npos);
  EXPECT_NE(report.find("index emp_salary"), std::string::npos);
  EXPECT_NE(report.find("device pages"), std::string::npos);
}

TEST(DatabaseTest, UmbrellaHeaderExposesEverything) {
  // Compile-time check mostly; exercise one symbol from each area.
  CostModelParams params;
  CostModel model(params);
  EXPECT_GT(model.ReadCost(ModelStrategy::kNoReplication,
                           IndexSetting::kUnclustered),
            0);
  EXPECT_GT(Yao(100, 10, 5), 0);
  auto db = Database::Open({});
  ASSERT_TRUE(db.ok());
  extra::Interpreter interpreter(db->get());
  auto out = interpreter.Execute("show catalog");
  EXPECT_TRUE(out.ok());
}

}  // namespace
}  // namespace fieldrep
