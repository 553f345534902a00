// Scenario tests lifted directly from the paper's figures: the multi-path
// link-sequence assignment of Section 4.1.4 / Figure 5, and stress runs
// under a tiny buffer pool (eviction pressure catches pin leaks and
// write-back bugs that large pools hide).

#include "common/bytes.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::EmployeeFixture;
using ::fieldrep::testing::ExpectCleanIntegrity;
using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;

/// The paper's Section 4.1.4 example, Figure 5:
///   replicate Emp1.dept.budget    link sequence = (1)
///   replicate Emp1.dept.name      link sequence = (1)
///   replicate Emp1.dept.org.name  link sequence = (1,2)
///   replicate Emp2.dept.org       link sequence = (3)
TEST(Figure5ScenarioTest, LinkSequencesMatchPaper) {
  auto db = OpenEmployeeDatabase();
  EmployeeFixture fixture = PopulateEmployees(db.get(), 2, 4, 12);
  // Populate Emp2 as well.
  std::vector<Oid> emp2;
  for (int k = 0; k < 6; ++k) {
    Object emp(0, {Value("z" + std::to_string(k)), Value(int32_t{30}),
                   Value(int32_t{100 * k}), Value(fixture.depts[k % 4])});
    Oid oid;
    FR_ASSERT_OK(db->Insert("Emp2", emp, &oid));
    emp2.push_back(oid);
  }

  FR_ASSERT_OK(db->Replicate("Emp1.dept.budget", {}));
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  FR_ASSERT_OK(db->Replicate("Emp1.dept.org.name", {}));
  FR_ASSERT_OK(db->Replicate("Emp2.dept.org", {}));

  const auto* p1 = db->catalog().FindPathBySpec("Emp1.dept.budget");
  const auto* p2 = db->catalog().FindPathBySpec("Emp1.dept.name");
  const auto* p3 = db->catalog().FindPathBySpec("Emp1.dept.org.name");
  const auto* p4 = db->catalog().FindPathBySpec("Emp2.dept.org");
  // (1), (1), (1,2), (3): first three share link 1; the Emp2 path gets its
  // own.
  ASSERT_EQ(p1->link_sequence.size(), 1u);
  EXPECT_EQ(p2->link_sequence, p1->link_sequence);
  ASSERT_EQ(p3->link_sequence.size(), 2u);
  EXPECT_EQ(p3->link_sequence[0], p1->link_sequence[0]);
  EXPECT_NE(p3->link_sequence[1], p1->link_sequence[0]);
  ASSERT_EQ(p4->link_sequence.size(), 1u);
  EXPECT_NE(p4->link_sequence[0], p1->link_sequence[0]);
  EXPECT_NE(p4->link_sequence[0], p3->link_sequence[1]);

  // "The key thing to observe about Figure 5 is that only one link object
  // (L1) is used to propagate updates in the first three replication
  // paths" — a DEPT object referenced by both sets carries exactly two
  // link refs: the shared Emp1.dept link and the Emp2.dept link.
  Object dept;
  FR_ASSERT_OK(db->Get("Dept", fixture.depts[0], &dept));
  ASSERT_EQ(dept.link_refs().size(), 2u);

  // Updating D.budget, D.name, or D.org each propagates to the right
  // paths; consistency holds for all four simultaneously.
  FR_ASSERT_OK(
      db->Update("Dept", fixture.depts[1], "budget", Value(int32_t{99})));
  FR_ASSERT_OK(db->Update("Dept", fixture.depts[1], "name", Value("sales")));
  FR_ASSERT_OK(
      db->Update("Dept", fixture.depts[1], "org", Value(fixture.orgs[1])));
  for (uint16_t path_id : db->catalog().AllPathIds()) {
    FR_ASSERT_OK(db->replication().VerifyPathConsistency(path_id));
  }

  // Dropping the shared-prefix paths one by one keeps the survivors
  // working; dropping all three frees link 1 for reuse.
  FR_ASSERT_OK(db->DropReplication("Emp1.dept.budget"));
  FR_ASSERT_OK(db->DropReplication("Emp1.dept.org.name"));
  FR_ASSERT_OK(
      db->Update("Dept", fixture.depts[2], "name", Value("after-drop")));
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(p2->id));
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(p4->id));
}

/// The whole mixed workload under a 24-frame (96 KiB) buffer pool: every
/// structure is forced through eviction constantly.
TEST(TinyPoolStressTest, MixedWorkloadUnderEvictionPressure) {
  auto db = OpenEmployeeDatabase(/*pool_frames=*/24);
  EmployeeFixture fixture = PopulateEmployees(db.get(), 2, 8, 120);
  FR_ASSERT_OK(db->BuildIndex("emp_salary", "Emp1", "salary"));
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  ReplicateOptions separate;
  separate.strategy = ReplicationStrategy::kSeparate;
  FR_ASSERT_OK(db->Replicate("Emp1.dept.org.name", separate));

  Random rng(4242);
  std::vector<Oid> emps = fixture.emps;
  for (int step = 0; step < 150; ++step) {
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 3) {
      ReadQuery query;
      query.set_name = "Emp1";
      query.projections = {"name", "dept.name", "dept.org.name"};
      int32_t lo = static_cast<int32_t>(rng.Uniform(100000));
      query.predicate = Predicate::Between("salary", Value(lo),
                                           Value(lo + 20000));
      ReadResult result;
      ASSERT_TRUE(db->Retrieve(query, &result).ok()) << "step " << step;
    } else if (action < 5) {
      UpdateQuery update;
      update.set_name = "Dept";
      update.predicate = Predicate::Compare(
          "budget", CompareOp::kLt,
          Value(static_cast<int32_t>(rng.Uniform(80))));
      update.assignments = {{"name", Value("n" + std::to_string(step))}};
      UpdateResult result;
      ASSERT_TRUE(db->Replace(update, &result).ok()) << "step " << step;
    } else if (action < 7 && !emps.empty()) {
      size_t pick = rng.Uniform(emps.size());
      ASSERT_TRUE(db->Update("Emp1", emps[pick], "dept",
                             Value(fixture.depts[rng.Uniform(8)]))
                      .ok());
    } else if (action < 8) {
      Object emp(0, {Value("s" + std::to_string(step)), Value(int32_t{20}),
                     Value(static_cast<int32_t>(rng.Uniform(200000))),
                     Value(fixture.depts[rng.Uniform(8)])});
      Oid oid;
      ASSERT_TRUE(db->Insert("Emp1", emp, &oid).ok());
      emps.push_back(oid);
    } else if (action < 9 && emps.size() > 10) {
      size_t pick = rng.Uniform(emps.size());
      ASSERT_TRUE(db->Delete("Emp1", emps[pick]).ok());
      emps.erase(emps.begin() + pick);
    } else {
      ASSERT_TRUE(db->Update("Org", fixture.orgs[rng.Uniform(2)], "name",
                             Value("o" + std::to_string(step)))
                      .ok());
    }
    // No pins may leak — the pool must always be fully unpinned between
    // operations.
    ASSERT_EQ(db->pool().total_pins(), 0u) << "step " << step;
  }
  for (uint16_t path_id : db->catalog().AllPathIds()) {
    FR_ASSERT_OK(db->replication().VerifyPathConsistency(path_id));
  }
  ExpectCleanIntegrity(db.get());
}

/// Three-level reference paths: a four-tier schema (worker -> team ->
/// division -> company) exercising insertion/deletion ripple and interior
/// retargets across the full depth, for both strategies.
class ThreeLevelPathTest : public ::testing::TestWithParam<
                               ReplicationStrategy> {
 protected:
  void SetUp() override {
    auto db_or = Database::Open({});
    ASSERT_TRUE(db_or.ok());
    db_ = std::move(db_or).value();
    FR_ASSERT_OK(db_->DefineType(
        TypeDescriptor("COMPANY", {CharAttr("name", 20)})));
    FR_ASSERT_OK(db_->DefineType(TypeDescriptor(
        "DIVISION", {CharAttr("name", 20), RefAttr("company", "COMPANY")})));
    FR_ASSERT_OK(db_->DefineType(TypeDescriptor(
        "TEAM", {CharAttr("name", 20), RefAttr("division", "DIVISION")})));
    FR_ASSERT_OK(db_->DefineType(TypeDescriptor(
        "WORKER", {CharAttr("name", 20), Int32Attr("id"),
                   RefAttr("team", "TEAM")})));
    FR_ASSERT_OK(db_->CreateSet("Companies", "COMPANY"));
    FR_ASSERT_OK(db_->CreateSet("Divisions", "DIVISION"));
    FR_ASSERT_OK(db_->CreateSet("Teams", "TEAM"));
    FR_ASSERT_OK(db_->CreateSet("Workers", "WORKER"));
    for (int i = 0; i < 2; ++i) {
      Oid oid;
      FR_ASSERT_OK(db_->Insert(
          "Companies", Object(0, {Value("co" + std::to_string(i))}), &oid));
      companies_.push_back(oid);
    }
    for (int i = 0; i < 4; ++i) {
      Oid oid;
      FR_ASSERT_OK(db_->Insert(
          "Divisions", Object(0, {Value("div" + std::to_string(i)),
                                  Value(companies_[i % 2])}),
          &oid));
      divisions_.push_back(oid);
    }
    for (int i = 0; i < 8; ++i) {
      Oid oid;
      FR_ASSERT_OK(db_->Insert(
          "Teams", Object(0, {Value("team" + std::to_string(i)),
                              Value(divisions_[i % 4])}),
          &oid));
      teams_.push_back(oid);
    }
    for (int i = 0; i < 40; ++i) {
      Oid oid;
      FR_ASSERT_OK(db_->Insert(
          "Workers", Object(0, {Value("w" + std::to_string(i)),
                                Value(int32_t{i}), Value(teams_[i % 8])}),
          &oid));
      workers_.push_back(oid);
    }
    ReplicateOptions options;
    options.strategy = GetParam();
    FR_ASSERT_OK(
        db_->Replicate("Workers.team.division.company.name", options));
    path_ = db_->catalog().FindPathBySpec(
        "Workers.team.division.company.name");
    ASSERT_NE(path_, nullptr);
  }

  void Verify() {
    FR_ASSERT_OK(db_->replication().VerifyPathConsistency(path_->id));
    ExpectCleanIntegrity(db_.get());
  }

  std::unique_ptr<Database> db_;
  std::vector<Oid> companies_, divisions_, teams_, workers_;
  const ReplicationPathInfo* path_ = nullptr;
};

TEST_P(ThreeLevelPathTest, BulkBuildAndLinkDepth) {
  // In-place: 3 links; separate: 2 (an n-level path needs an (n-1)-level
  // inverted path).
  size_t expected_links =
      GetParam() == ReplicationStrategy::kInPlace ? 3u : 2u;
  EXPECT_EQ(path_->link_sequence.size(), expected_links);
  Verify();
}

TEST_P(ThreeLevelPathTest, DeepScalarPropagation) {
  FR_ASSERT_OK(db_->Update("Companies", companies_[0], "name",
                           Value("megacorp")));
  Verify();
  Object worker;
  FR_ASSERT_OK(db_->Get("Workers", workers_[0], &worker));
  std::vector<Value> values;
  FR_ASSERT_OK(
      db_->replication().ReadReplicatedValues(*path_, worker, &values));
  std::string padded = "megacorp";
  padded.resize(20, '\0');
  EXPECT_EQ(values[0], Value(padded));
}

TEST_P(ThreeLevelPathTest, RetargetsAtEveryLevel) {
  // Level 1: worker switches team.
  FR_ASSERT_OK(db_->Update("Workers", workers_[0], "team", Value(teams_[7])));
  Verify();
  // Level 2: team switches division.
  FR_ASSERT_OK(
      db_->Update("Teams", teams_[0], "division", Value(divisions_[3])));
  Verify();
  // Level 3: division switches company.
  FR_ASSERT_OK(db_->Update("Divisions", divisions_[0], "company",
                           Value(companies_[1])));
  Verify();
  // Nulls at each level.
  FR_ASSERT_OK(db_->Update("Teams", teams_[1], "division", Value::Null()));
  Verify();
  FR_ASSERT_OK(
      db_->Update("Teams", teams_[1], "division", Value(divisions_[2])));
  Verify();
}

TEST_P(ThreeLevelPathTest, InsertDeleteRipple) {
  // New worker on a team whose chain is fully populated.
  Oid oid;
  FR_ASSERT_OK(db_->Insert(
      "Workers",
      Object(0, {Value("new"), Value(int32_t{999}), Value(teams_[3])}),
      &oid));
  Verify();
  // Delete every worker of team 2; the ripple must unwind team 2's links
  // through division and company.
  for (int i = 2; i < 40; i += 8) {
    FR_ASSERT_OK(db_->Delete("Workers", workers_[i]));
  }
  Verify();
  Object team;
  FR_ASSERT_OK(db_->Get("Teams", teams_[2], &team));
  EXPECT_TRUE(team.link_refs().empty());
}

TEST_P(ThreeLevelPathTest, QueriesThroughThreeLevels) {
  ReadQuery query;
  query.set_name = "Workers";
  query.projections = {"name", "team.division.company.name"};
  ReadResult via_replica;
  FR_ASSERT_OK(db_->Retrieve(query, &via_replica));
  query.use_replication = false;
  ReadResult via_join;
  FR_ASSERT_OK(db_->Retrieve(query, &via_join));
  EXPECT_EQ(via_replica.rows, via_join.rows);
  EXPECT_EQ(via_replica.rows.size(), 40u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ThreeLevelPathTest,
    ::testing::Values(ReplicationStrategy::kInPlace,
                      ReplicationStrategy::kSeparate),
    [](const ::testing::TestParamInfo<ReplicationStrategy>& info) {
      return info.param == ReplicationStrategy::kInPlace ? "InPlace"
                                                         : "Separate";
    });

/// Catalog serialization round-trips bit-exactly at the catalog level.
TEST(CatalogCodecTest, EncodeDecodeRoundTrip) {
  auto db = OpenEmployeeDatabase();
  EmployeeFixture fixture = PopulateEmployees(db.get(), 2, 4, 8);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  ReplicateOptions options;
  options.strategy = ReplicationStrategy::kSeparate;
  FR_ASSERT_OK(db->Replicate("Emp1.dept.org.name", options));
  FR_ASSERT_OK(db->BuildIndex("emp_salary", "Emp1", "salary"));

  std::string blob;
  db->catalog().EncodeTo(&blob);
  Catalog decoded;
  ByteReader reader(blob);
  FR_ASSERT_OK(decoded.DecodeFrom(&reader));
  EXPECT_EQ(reader.remaining(), 0u);
  // Re-encoding the decoded catalog yields identical bytes.
  std::string blob2;
  decoded.EncodeTo(&blob2);
  EXPECT_EQ(blob, blob2);
  // Spot checks.
  EXPECT_TRUE(decoded.HasType("EMP"));
  ASSERT_NE(decoded.FindPathBySpec("Emp1.dept.org.name"), nullptr);
  EXPECT_EQ(decoded.FindPathBySpec("Emp1.dept.org.name")->strategy,
            ReplicationStrategy::kSeparate);
  EXPECT_NE(decoded.FindIndexByName("emp_salary"), nullptr);
  EXPECT_EQ(decoded.link_registry().link_count(),
            db->catalog().link_registry().link_count());
  // Truncated blobs fail loudly at every prefix length.
  for (size_t cut : std::vector<size_t>{0, 5, blob.size() / 2}) {
    Catalog bad;
    const std::string prefix = blob.substr(0, cut);
    ByteReader cut_reader(prefix);
    EXPECT_FALSE(bad.DecodeFrom(&cut_reader).ok()) << cut;
  }
}

}  // namespace
}  // namespace fieldrep
