// Tests for the Section 8 future-work extension of inverse functions /
// bidirectional reference attributes via inverted paths, and for
// checkpoint/reopen persistence.

#include <fstream>

#include "gtest/gtest.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;

// --- Inverse functions -----------------------------------------------------------

class InverseLookupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = OpenEmployeeDatabase();
    fixture_ = PopulateEmployees(db_.get(), 2, 4, 20);
  }
  std::unique_ptr<Database> db_;
  EmployeeFixture fixture_;
};

TEST_F(InverseLookupTest, FallsBackToScanWithoutLinks) {
  std::vector<Oid> referencers;
  bool via_link = true;
  FR_ASSERT_OK(db_->replication().FindReferencers(
      "Emp1", "dept", fixture_.depts[1], &referencers, &via_link));
  EXPECT_FALSE(via_link);
  EXPECT_EQ(referencers.size(), 5u);
}

TEST_F(InverseLookupTest, UsesLinkObjectsWhenPathExists) {
  FR_ASSERT_OK(db_->Replicate("Emp1.dept.name", {}));
  std::vector<Oid> referencers;
  bool via_link = false;
  FR_ASSERT_OK(db_->replication().FindReferencers(
      "Emp1", "dept", fixture_.depts[1], &referencers, &via_link));
  EXPECT_TRUE(via_link);
  ASSERT_EQ(referencers.size(), 5u);
  // Link-based and scan-based answers agree.
  for (const Oid& emp : referencers) {
    Object object;
    FR_ASSERT_OK(db_->Get("Emp1", emp, &object));
    EXPECT_EQ(object.field(3), Value(fixture_.depts[1]));
  }
  // And they track retargets.
  FR_ASSERT_OK(db_->Update("Emp1", referencers[0], "dept",
                           Value(fixture_.depts[0])));
  FR_ASSERT_OK(db_->replication().FindReferencers(
      "Emp1", "dept", fixture_.depts[1], &referencers, &via_link));
  EXPECT_EQ(referencers.size(), 4u);
}

TEST_F(InverseLookupTest, RejectsNonRefAttribute) {
  std::vector<Oid> referencers;
  EXPECT_FALSE(db_->replication()
                   .FindReferencers("Emp1", "salary", fixture_.depts[0],
                                    &referencers)
                   .ok());
}

TEST_F(InverseLookupTest, UnreferencedTargetYieldsEmpty) {
  FR_ASSERT_OK(db_->Replicate("Emp1.dept.name", {}));
  Oid lonely;
  FR_ASSERT_OK(db_->Insert(
      "Dept",
      Object(0, {Value("lonely"), Value(int32_t{0}), Value(fixture_.orgs[0])}),
      &lonely));
  std::vector<Oid> referencers;
  bool via_link = false;
  FR_ASSERT_OK(db_->replication().FindReferencers("Emp1", "dept", lonely,
                                                  &referencers, &via_link));
  EXPECT_TRUE(via_link);
  EXPECT_TRUE(referencers.empty());
}

// --- Checkpoint / reopen persistence ------------------------------------------

TEST(PersistenceTest, CheckpointAndReopenRestoresEverything) {
  std::string path = ::testing::TempDir() + "/fieldrep_persist.db";
  std::remove(path.c_str());
  Oid fred, toys;
  {
    Database::Options options;
    options.file_path = path;
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "EMP", {CharAttr("name", 20), Int32Attr("salary"),
                RefAttr("dept", "DEPT")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->CreateSet("Emp1", "EMP"));
    FR_ASSERT_OK(db->Insert(
        "Dept", Object(0, {Value("toys"), Value(int32_t{10})}), &toys));
    for (int i = 0; i < 100; ++i) {
      Oid oid;
      FR_ASSERT_OK(db->Insert(
          "Emp1",
          Object(0, {Value("e" + std::to_string(i)), Value(int32_t{i * 100}),
                     Value(toys)}),
          &oid));
      if (i == 0) fred = oid;
    }
    FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
    FR_ASSERT_OK(db->BuildIndex("emp_salary", "Emp1", "salary"));
    FR_ASSERT_OK(db->Checkpoint());
  }
  {
    Database::Options options;
    options.file_path = path;
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    auto db = std::move(db_or).value();
    // Catalog restored.
    EXPECT_TRUE(db->catalog().HasType("EMP"));
    const ReplicationPathInfo* rep =
        db->catalog().FindPathBySpec("Emp1.dept.name");
    ASSERT_NE(rep, nullptr);
    // Data restored.
    Object object;
    FR_ASSERT_OK(db->Get("Emp1", fred, &object));
    EXPECT_EQ(object.field(1), Value(int32_t{0}));
    // Index restored and queryable.
    ReadQuery query;
    query.set_name = "Emp1";
    query.projections = {"name", "dept.name"};
    query.predicate = Predicate::Between("salary", Value(int32_t{500}),
                                         Value(int32_t{900}));
    ReadResult result;
    FR_ASSERT_OK(db->Retrieve(query, &result));
    EXPECT_TRUE(result.used_index);
    EXPECT_EQ(result.rows.size(), 5u);
    std::string padded = "toys";
    padded.resize(20, '\0');
    EXPECT_EQ(result.rows[0][1], Value(padded));
    // Replication machinery still live: updates propagate post-restore.
    FR_ASSERT_OK(db->Update("Dept", toys, "name", Value("games")));
    FR_ASSERT_OK(db->replication().VerifyPathConsistency(rep->id));
    // And new inserts keep working (counters restored).
    Oid oid;
    FR_ASSERT_OK(db->Insert(
        "Emp1",
        Object(0, {Value("late"), Value(int32_t{42}), Value(toys)}), &oid));
    FR_ASSERT_OK(db->replication().VerifyPathConsistency(rep->id));
    FR_ASSERT_OK(db->Checkpoint());
  }
  // Third generation: the re-checkpoint is also loadable.
  {
    Database::Options options;
    options.file_path = path;
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    auto db = std::move(db_or).value();
    auto set = db->GetSet("Emp1");
    ASSERT_TRUE(set.ok());
    EXPECT_EQ((*set)->size(), 101u);
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, ReopenWithoutCheckpointFails) {
  std::string path = ::testing::TempDir() + "/fieldrep_nockpt.db";
  std::remove(path.c_str());
  {
    Database::Options options;
    options.file_path = path;
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok());
    // Touch the file (header page exists) but never checkpoint... the
    // header page is zeroed, so reopen must fail loudly, not misparse.
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->pool().FlushAll());
  }
  Database::Options options;
  options.file_path = path;
  auto reopened = Database::Open(options);
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
  std::remove(path.c_str());
}

TEST(PersistenceTest, OlderFormatMagicFailsOpen) {
  // A database written by an older on-disk format has different catalog
  // field layouts; Open must refuse it by its header magic rather than
  // decode shifted fields.
  std::string path = ::testing::TempDir() + "/fieldrep_oldmagic.db";
  std::remove(path.c_str());
  {
    Database::Options options;
    options.file_path = path;
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(TypeDescriptor("DEPT", {CharAttr("name", 20)})));
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "EMP", {CharAttr("name", 20), RefAttr("dept", "DEPT")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->CreateSet("Emp1", "EMP"));
    Oid dept, emp;
    FR_ASSERT_OK(db->Insert("Dept", Object(0, {Value("toys")}), &dept));
    FR_ASSERT_OK(
        db->Insert("Emp1", Object(0, {Value("fred"), Value(dept)}), &emp));
    FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
    FR_ASSERT_OK(db->Checkpoint());
  }
  {
    // Page 0 starts at file offset 0 with the 8-byte format magic.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(0);
    file.write("FREP0002", 8);
  }
  Database::Options options;
  options.file_path = path;
  auto reopened = Database::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(reopened.status().ToString().find("FREP0002"), std::string::npos)
      << reopened.status().ToString();
  std::remove(path.c_str());
}

TEST(PersistenceTest, MemoryDatabaseCheckpointIsHarmless) {
  auto db = OpenEmployeeDatabase();
  PopulateEmployees(db.get(), 1, 2, 4);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  FR_ASSERT_OK(db->Checkpoint());
  ReadQuery query;
  query.set_name = "Emp1";
  query.projections = {"name"};
  ReadResult result;
  FR_ASSERT_OK(db->Retrieve(query, &result));
  EXPECT_EQ(result.rows.size(), 4u);
}

}  // namespace
}  // namespace fieldrep
