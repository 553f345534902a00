// Crash-recovery suite: kills a replica propagation at EVERY durable-write
// boundary (clean and torn), reboots, recovers, and asserts the replica
// state is fully-old or fully-new — never a mix.
//
// The rig wraps both the database "disk" and the log "disk" in
// FaultInjectingDevices sharing one FaultPlan, so "crash after k ops"
// counts every durable operation the engine issues, in order. An oracle
// run with an unarmed plan measures how many durable operations the
// update needs; the suite then replays the scenario once per boundary.

#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "gtest/gtest.h"
#include "storage/fault_injecting_device.h"
#include "storage/memory_device.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::TraversePath;

/// Strips the NUL padding char(n) attributes come back with.
std::string Unpad(const std::string& s) {
  return s.substr(0, s.find('\0'));
}

struct CrashRig {
  MemoryDevice disk;  // the persistent media; survives "reboots"
  MemoryDevice log_disk;
  FaultPlan plan;
  FaultInjectingDevice db_dev{&disk, &plan};
  FaultInjectingDevice log_dev{&log_disk, &plan};

  std::unique_ptr<Database> Open(bool sync_on_commit = true) {
    Database::Options options;
    options.buffer_pool_frames = 512;
    options.device = &db_dev;
    options.wal_device = &log_dev;
    options.enable_wal = true;
    options.wal_sync_on_commit = sync_on_commit;
    auto db_or = Database::Open(options);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    return db_or.ok() ? std::move(db_or).value() : nullptr;
  }
};

/// One named mutation scenario over the EMP -> DEPT -> ORG -> CITY chain.
struct Scenario {
  std::string name;
  std::string spec;  ///< replication path spec
  ReplicationStrategy strategy = ReplicationStrategy::kInPlace;
  std::string target_set;   ///< set the update hits
  std::string old_value;    ///< terminal value before the update
  std::string new_value;    ///< terminal value after the update
  Oid target;               ///< filled by BuildFixture
};

// FR_ASSERT_OK needs a void function; BuildFixture returns a value.
#define FR_ASSERT_OK_RET(expr)                                          \
  do {                                                                  \
    ::fieldrep::Status _s = (expr);                                     \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                              \
    if (!_s.ok()) return {};                                            \
  } while (0)

/// Builds the 4-type chain, the scenario's replication path, and a
/// checkpoint, so the crash window contains only the update. Returns the
/// head employee oids.
std::vector<Oid> BuildFixture(Database* db, Scenario* scenario) {
  FR_ASSERT_OK_RET(db->DefineType(
      TypeDescriptor("CITY", {CharAttr("name", 20), Int32Attr("pop")})));
  FR_ASSERT_OK_RET(db->DefineType(TypeDescriptor(
      "ORG", {CharAttr("name", 20), RefAttr("city", "CITY")})));
  FR_ASSERT_OK_RET(db->DefineType(TypeDescriptor(
      "DEPT", {CharAttr("name", 20), RefAttr("org", "ORG")})));
  FR_ASSERT_OK_RET(db->DefineType(TypeDescriptor(
      "EMP", {CharAttr("name", 20), RefAttr("dept", "DEPT")})));
  FR_ASSERT_OK_RET(db->CreateSet("Cities", "CITY"));
  FR_ASSERT_OK_RET(db->CreateSet("Orgs", "ORG"));
  FR_ASSERT_OK_RET(db->CreateSet("Depts", "DEPT"));
  FR_ASSERT_OK_RET(db->CreateSet("Emps", "EMP"));

  std::vector<Oid> cities(2), orgs(2), depts(3), emps(6);
  for (int i = 0; i < 2; ++i) {
    FR_ASSERT_OK_RET(db->Insert(
        "Cities",
        Object(0, {Value(StringPrintf("city%d", i)), Value(int32_t{1000})}),
        &cities[i]));
  }
  for (int i = 0; i < 2; ++i) {
    FR_ASSERT_OK_RET(db->Insert(
        "Orgs",
        Object(0, {Value(StringPrintf("org%d", i)), Value(cities[i])}),
        &orgs[i]));
  }
  for (int i = 0; i < 3; ++i) {
    FR_ASSERT_OK_RET(db->Insert(
        "Depts",
        Object(0, {Value(StringPrintf("dept%d", i)), Value(orgs[i % 2])}),
        &depts[i]));
  }
  for (int i = 0; i < 6; ++i) {
    FR_ASSERT_OK_RET(db->Insert(
        "Emps",
        Object(0, {Value(StringPrintf("emp%d", i)), Value(depts[i % 3])}),
        &emps[i]));
  }

  ReplicateOptions options;
  options.strategy = scenario->strategy;
  FR_ASSERT_OK_RET(db->Replicate(scenario->spec, options));

  // The update target is the terminal object reached from emp0's chain.
  scenario->target =
      scenario->target_set == "Cities" ? cities[0] : depts[0];
  FR_ASSERT_OK_RET(db->Checkpoint());
  return emps;
}

/// Runs the scenario's update; errors expected when the plan trips.
Status RunUpdate(Database* db, const Scenario& scenario) {
  return db->Update(scenario.target_set, scenario.target, "name",
                    Value(scenario.new_value));
}

/// The terminal attribute chain of the spec ("Emps.dept.name" -> dept,name).
std::vector<std::string> SpecAttrs(const Scenario& scenario) {
  std::vector<std::string> attrs;
  size_t pos = scenario.spec.find('.');
  while (pos != std::string::npos) {
    size_t next = scenario.spec.find('.', pos + 1);
    attrs.push_back(scenario.spec.substr(
        pos + 1, next == std::string::npos ? std::string::npos
                                           : next - pos - 1));
    pos = next;
  }
  return attrs;
}

/// Asserts full recovery-time atomicity: replica bookkeeping internally
/// consistent, base value fully-old XOR fully-new, and the query layer
/// (serving from replicas) agreeing with forward traversal on every head.
void CheckRecoveredState(Database* db, const Scenario& scenario,
                         const std::vector<Oid>& emps,
                         bool update_reported_ok) {
  const ReplicationPathInfo* path = db->replication().FindPath(scenario.spec);
  ASSERT_NE(path, nullptr);
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));

  Object target;
  FR_ASSERT_OK(db->Get(scenario.target_set, scenario.target, &target));
  std::string base = Unpad(target.field(0).as_string());
  ASSERT_TRUE(base == scenario.old_value || base == scenario.new_value)
      << "base value is neither old nor new: \"" << base << "\"";
  if (update_reported_ok) {
    // A commit the client saw succeed must survive the crash.
    EXPECT_EQ(base, scenario.new_value);
  }

  // Per-head: what a query answers (replica) == forward traversal truth,
  // and heads on the updated chain match the recovered base value.
  std::vector<std::string> attrs = SpecAttrs(scenario);
  std::string dotted = attrs[0];
  for (size_t i = 1; i < attrs.size(); ++i) dotted += "." + attrs[i];
  ReadQuery query;
  query.set_name = "Emps";
  query.projections = {"name", dotted};
  ReadResult result;
  FR_ASSERT_OK(db->Retrieve(query, &result));
  ASSERT_EQ(result.rows.size(), emps.size());
  for (const auto& row : result.rows) {
    ASSERT_EQ(row.size(), 2u);
    std::string head_name = Unpad(row[0].as_string());
    std::string via_replica = Unpad(row[1].as_string());
    // Match the row back to its oid through the unique head name.
    size_t idx = std::stoul(head_name.substr(3));
    ASSERT_LT(idx, emps.size());
    Value truth = TraversePath(db, "Emps", emps[idx], attrs);
    ASSERT_FALSE(truth.is_null());
    EXPECT_EQ(via_replica, Unpad(truth.as_string()))
        << head_name << ": replica disagrees with forward traversal";
    if (via_replica == scenario.old_value ||
        via_replica == scenario.new_value) {
      EXPECT_EQ(via_replica, base)
          << head_name << ": replica torn relative to the base object";
    }
  }
}

/// Counts the durable device operations the no-crash update needs, and
/// sanity-checks that the propagation actually reached the heads.
uint64_t OracleOpCount(Scenario scenario) {
  CrashRig rig;
  auto db = rig.Open();
  std::vector<Oid> emps = BuildFixture(db.get(), &scenario);
  uint64_t before = rig.plan.ops_seen;
  Status s = RunUpdate(db.get(), scenario);
  EXPECT_TRUE(s.ok()) << s.ToString();
  uint64_t ops = rig.plan.ops_seen - before;
  EXPECT_GT(ops, 0u) << "update issued no durable operations to crash at";
  CheckRecoveredState(db.get(), scenario, emps, /*update_reported_ok=*/true);
  return ops;
}

/// Crash at boundary `k` (optionally tearing the final page write),
/// reboot, recover, check atomicity. Boundaries past the oracle count
/// exercise crashes during post-commit writeback at destruction.
void CrashAtBoundary(const Scenario& base_scenario, uint64_t k, bool torn) {
  SCOPED_TRACE(StringPrintf("%s: crash after %d ops%s",
                            base_scenario.name.c_str(), static_cast<int>(k),
                            torn ? " (torn)" : ""));
  CrashRig rig;
  Scenario scenario = base_scenario;
  std::vector<Oid> emps;
  bool update_reported_ok = false;
  {
    auto db = rig.Open();
    ASSERT_NE(db, nullptr);
    emps = BuildFixture(db.get(), &scenario);
    ASSERT_FALSE(::testing::Test::HasFailure());
    rig.plan.Arm(k, torn);
    update_reported_ok = RunUpdate(db.get(), scenario).ok();
    // The destructor's writeback races the dead machine: every operation
    // after the crash point fails and leaves no trace on the media.
  }
  rig.plan.Reset();  // reboot

  auto db = rig.Open();
  ASSERT_NE(db, nullptr);
  CheckRecoveredState(db.get(), scenario, emps, update_reported_ok);
}

void RunScenario(const Scenario& scenario) {
  uint64_t ops = OracleOpCount(scenario);
  ASSERT_FALSE(::testing::Test::HasFailure());
  // +2 boundaries past the oracle count: the update commits, then the
  // crash hits the shutdown writeback instead.
  for (uint64_t k = 1; k <= ops + 2; ++k) {
    CrashAtBoundary(scenario, k, /*torn=*/false);
    CrashAtBoundary(scenario, k, /*torn=*/true);
  }
}

Scenario InPlaceScenario() {
  Scenario s;
  s.name = "in-place 3-level";
  s.spec = "Emps.dept.org.city.name";
  s.strategy = ReplicationStrategy::kInPlace;
  s.target_set = "Cities";
  s.old_value = "city0";
  s.new_value = "metropolis";
  return s;
}

Scenario SeparateScenario() {
  Scenario s;
  s.name = "separate 1-level";
  s.spec = "Emps.dept.name";
  s.strategy = ReplicationStrategy::kSeparate;
  s.target_set = "Depts";
  s.old_value = "dept0";
  s.new_value = "platform";
  return s;
}

TEST(WalCrashTest, ThreeLevelInPlacePropagationIsAtomic) {
  RunScenario(InPlaceScenario());
}

TEST(WalCrashTest, SeparateReplicationUpdateIsAtomic) {
  RunScenario(SeparateScenario());
}

TEST(WalCrashTest, GroupCommitCrashIsConsistentThoughPossiblyStale) {
  // In group-commit mode (no sync per commit) a crash may lose the most
  // recent commits, but recovery must still land on a consistent state.
  for (uint64_t k = 1; k <= 6; ++k) {
    SCOPED_TRACE(StringPrintf("nosync crash after %d ops",
                              static_cast<int>(k)));
    CrashRig rig;
    Scenario scenario = InPlaceScenario();
    std::vector<Oid> emps;
    {
      auto db = rig.Open(/*sync_on_commit=*/false);
      ASSERT_NE(db, nullptr);
      emps = BuildFixture(db.get(), &scenario);
      ASSERT_FALSE(::testing::Test::HasFailure());
      rig.plan.Arm(k);
      (void)RunUpdate(db.get(), scenario);
    }
    rig.plan.Reset();
    auto db = rig.Open(/*sync_on_commit=*/false);
    ASSERT_NE(db, nullptr);
    CheckRecoveredState(db.get(), scenario, emps,
                        /*update_reported_ok=*/false);
  }
}

TEST(WalCrashTest, CrashDuringCheckpointKeepsCommittedUpdate) {
  // A checkpoint interrupted at any boundary must not lose the committed
  // (synced) update that preceded it: the old log stays valid until the
  // pages it describes are durable and the new-epoch header lands.
  for (uint64_t k = 1; k <= 10; ++k) {
    for (bool torn : {false, true}) {
      SCOPED_TRACE(StringPrintf("checkpoint crash after %d ops%s",
                                static_cast<int>(k), torn ? " (torn)" : ""));
      CrashRig rig;
      Scenario scenario = InPlaceScenario();
      std::vector<Oid> emps;
      {
        auto db = rig.Open();
        ASSERT_NE(db, nullptr);
        emps = BuildFixture(db.get(), &scenario);
        ASSERT_FALSE(::testing::Test::HasFailure());
        FR_ASSERT_OK(RunUpdate(db.get(), scenario));
        rig.plan.Arm(k, torn);
        (void)db->Checkpoint();  // may trip anywhere inside
      }
      rig.plan.Reset();
      auto db = rig.Open();
      ASSERT_NE(db, nullptr);
      CheckRecoveredState(db.get(), scenario, emps,
                          /*update_reported_ok=*/true);
    }
  }
}

// --- Interleaved transactions (per-set 2PL, DESIGN.md §14) --------------------

/// Crash with two write transactions interleaved in the log: txn1
/// (replicated update, committed and synced) and txn2 (unrelated set,
/// mid-commit when the machine dies). Recovery must replay txn1 in full —
/// base value AND every in-place replica, prefix-consistent — while txn2
/// lands atomically (fully-old or fully-new, new only if its commit
/// synced before the crash). The two transactions use sets of distinct
/// types, so the striped locks let them interleave on one thread via
/// Detach/AttachSessionTransaction exactly as two server sessions would.
TEST(WalCrashTest, InterleavedTransactionsRecoverCommittedPrefix) {
  for (uint64_t k = 1; k <= 8; ++k) {
    for (bool torn : {false, true}) {
      SCOPED_TRACE(StringPrintf("interleaved crash after %d ops%s",
                                static_cast<int>(k), torn ? " (torn)" : ""));
      CrashRig rig;
      std::vector<Oid> heads(4);
      Oid tgt_oid, b_oid;
      bool txn2_reported_ok = false;
      {
        auto db = rig.Open();
        ASSERT_NE(db, nullptr);
        FR_ASSERT_OK(db->DefineType(
            TypeDescriptor("TGT", {CharAttr("name", 20)})));
        FR_ASSERT_OK(db->DefineType(TypeDescriptor(
            "HEAD", {CharAttr("name", 20), RefAttr("ref", "TGT")})));
        FR_ASSERT_OK(db->DefineType(
            TypeDescriptor("BROW", {Int32Attr("key"), Int32Attr("val")})));
        FR_ASSERT_OK(db->CreateSet("Tgts", "TGT"));
        FR_ASSERT_OK(db->CreateSet("Heads", "HEAD"));
        FR_ASSERT_OK(db->CreateSet("B", "BROW"));
        FR_ASSERT_OK(db->Insert("Tgts", Object(0, {Value("oldname")}),
                                &tgt_oid));
        for (size_t i = 0; i < heads.size(); ++i) {
          FR_ASSERT_OK(db->Insert(
              "Heads",
              Object(0, {Value(StringPrintf("head%d", static_cast<int>(i))),
                         Value(tgt_oid)}),
              &heads[i]));
        }
        FR_ASSERT_OK(db->Insert(
            "B", Object(0, {Value(int32_t{0}), Value(int32_t{100})}),
            &b_oid));
        FR_ASSERT_OK(db->Replicate("Heads.ref.name", {}));
        FR_ASSERT_OK(db->Checkpoint());

        // txn1 starts and writes (replicated propagation into Heads)...
        FR_ASSERT_OK(db->BeginSessionTransaction());
        FR_ASSERT_OK(
            db->Update("Tgts", tgt_oid, "name", Value("newname")));
        Database::SessionTxn* txn1 = db->DetachSessionTransaction();
        ASSERT_NE(txn1, nullptr);

        // ...txn2 starts and writes the unrelated set, interleaving its
        // log records with txn1's...
        FR_ASSERT_OK(db->BeginSessionTransaction());
        FR_ASSERT_OK(db->Update("B", b_oid, "val", Value(int32_t{200})));
        Database::SessionTxn* txn2 = db->DetachSessionTransaction();
        ASSERT_NE(txn2, nullptr);

        // ...txn1 commits durably; the machine dies k ops into txn2's
        // commit (or the shutdown writeback after it).
        db->AttachSessionTransaction(txn1);
        FR_ASSERT_OK(db->CommitSessionTransaction());
        rig.plan.Arm(k, torn);
        db->AttachSessionTransaction(txn2);
        txn2_reported_ok = db->CommitSessionTransaction().ok();
      }
      rig.plan.Reset();  // reboot

      auto db = rig.Open();
      ASSERT_NE(db, nullptr);

      // txn1, committed before the crash, must be replayed in full.
      Object tgt;
      FR_ASSERT_OK(db->Get("Tgts", tgt_oid, &tgt));
      EXPECT_EQ(Unpad(tgt.field(0).as_string()), "newname");
      const ReplicationPathInfo* path =
          db->replication().FindPath("Heads.ref.name");
      ASSERT_NE(path, nullptr);
      FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));
      ReadQuery query;
      query.set_name = "Heads";
      query.projections = {"ref.name"};
      ReadResult result;
      FR_ASSERT_OK(db->Retrieve(query, &result));
      ASSERT_EQ(result.rows.size(), heads.size());
      for (const auto& row : result.rows) {
        EXPECT_EQ(Unpad(row[0].as_string()), "newname")
            << "replica not prefix-consistent with committed txn1";
      }

      // txn2 is atomic: fully-old or fully-new, new if its commit synced.
      Object b_row;
      FR_ASSERT_OK(db->Get("B", b_oid, &b_row));
      const int32_t b_val = b_row.field(1).as_int32();
      EXPECT_TRUE(b_val == 100 || b_val == 200) << b_val;
      if (txn2_reported_ok) {
        EXPECT_EQ(b_val, 200);
      }

      ::fieldrep::testing::ExpectCleanIntegrity(db.get());
    }
  }
}

}  // namespace
}  // namespace fieldrep
