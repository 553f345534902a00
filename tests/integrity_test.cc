// Integrity-checker suite: proves Database::CheckIntegrity (the engine of
// fieldrep_fsck) detects each corruption class at the layer it belongs to
// — and stays silent on healthy databases, including one that just went
// through crash recovery.
//
// The database is opened over a MemoryDevice that each test damages
// directly through the page_corruption helpers, reaching past the engine
// the way failing media would. Structural corruptions are re-stamped with
// a valid page checksum afterwards, so they survive debug-build read
// verification and must be caught by the structural invariant that
// actually covers them; the checksum test omits the restamp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/check_report.h"
#include "gtest/gtest.h"
#include "replication/link_object.h"
#include "storage/fault_injecting_device.h"
#include "storage/memory_device.h"
#include "storage/page.h"
#include "storage/page_corruption.h"
#include "test_util.h"

namespace fieldrep {
namespace {

std::string Padded(const std::string& s, size_t n = 20) {
  std::string out = s;
  out.resize(n, '\0');
  return out;
}

class IntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.buffer_pool_frames = 512;
    options.device = &dev_;
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    db_ = std::move(db_or).value();
    BuildFixture();
  }

  /// ORG/DEPT/EMP chain with an in-place path (Emp1.dept.name), a separate
  /// path (Emp1.dept.budget), and a salary index; checkpointed and with a
  /// cold (empty) buffer pool, so every page sits checksummed on dev_.
  void BuildFixture() {
    FR_ASSERT_OK(db_->DefineType(
        TypeDescriptor("ORG", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db_->DefineType(
        TypeDescriptor("DEPT", {CharAttr("name", 20), Int32Attr("budget"),
                                RefAttr("org", "ORG")})));
    FR_ASSERT_OK(db_->DefineType(
        TypeDescriptor("EMP", {CharAttr("name", 20), Int32Attr("salary"),
                               RefAttr("dept", "DEPT")})));
    FR_ASSERT_OK(db_->CreateSet("Org", "ORG"));
    FR_ASSERT_OK(db_->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db_->CreateSet("Emp1", "EMP"));

    std::vector<Oid> orgs(2), depts(4);
    for (int i = 0; i < 2; ++i) {
      FR_ASSERT_OK(db_->Insert(
          "Org",
          Object(0, {Value(Padded("org" + std::to_string(i))),
                     Value(int32_t{1000 * i})}),
          &orgs[i]));
    }
    for (int i = 0; i < 4; ++i) {
      FR_ASSERT_OK(db_->Insert(
          "Dept",
          Object(0, {Value(Padded("dept" + std::to_string(i))),
                     Value(int32_t{10 * i}), Value(orgs[i % 2])}),
          &depts[i]));
    }
    emps_.resize(12);
    for (int i = 0; i < 12; ++i) {
      FR_ASSERT_OK(db_->Insert(
          "Emp1",
          Object(0, {Value(Padded("emp" + std::to_string(i))),
                     Value(int32_t{1000 * i}), Value(depts[i % 4])}),
          &emps_[i]));
    }

    FR_ASSERT_OK(db_->Replicate("Emp1.dept.name", {}));
    ReplicateOptions separate;
    separate.strategy = ReplicationStrategy::kSeparate;
    FR_ASSERT_OK(db_->Replicate("Emp1.dept.budget", separate));
    FR_ASSERT_OK(db_->BuildIndex("emp_salary", "Emp1", "salary"));
    FR_ASSERT_OK(db_->Checkpoint());
    FR_ASSERT_OK(db_->ColdStart());
  }

  CheckReport Check() {
    CheckReport report;
    Status s = db_->CheckIntegrity(&report);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return report;
  }

  static bool HasFinding(const CheckReport& report, CheckSeverity severity,
                         CheckLayer layer, const std::string& substring) {
    for (const CheckFinding& f : report.findings) {
      if (f.severity == severity && f.layer == layer &&
          f.message.find(substring) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  MemoryDevice dev_;
  std::unique_ptr<Database> db_;
  std::vector<Oid> emps_;
};

TEST_F(IntegrityTest, CleanDatabaseHasNoFindings) {
  CheckReport report = Check();
  EXPECT_EQ(report.error_count(), 0u) << report.ToString();
  EXPECT_EQ(report.warning_count(), 0u) << report.ToString();
}

// Corruption class 1: slot directory damage -> storage layer.
TEST_F(IntegrityTest, DetectsBadSlotDirectory) {
  auto set = db_->GetSet("Emp1");
  ASSERT_TRUE(set.ok());
  const PageId page = set.value()->file().first_page();
  // Slot 0's offset field lives at the start of the slot directory. Point
  // it at the last byte of the page so the cell runs off the end.
  const uint8_t bogus[2] = {0xFF, 0x0F};  // 4095, little-endian
  FR_ASSERT_OK(OverwriteBytes(&dev_, page, kPageHeaderBytes, bogus, 2));
  FR_ASSERT_OK(RestampChecksum(&dev_, page));

  CheckReport report = Check();
  EXPECT_TRUE(HasFinding(report, CheckSeverity::kError, CheckLayer::kStorage,
                         "cell"))
      << report.ToString();
}

// Corruption class 2: B+ tree key ordering broken -> index layer.
TEST_F(IntegrityTest, DetectsBrokenBTreeOrder) {
  auto tree = db_->indexes().GetIndex("emp_salary");
  ASSERT_TRUE(tree.ok());
  const PageId root = tree.value()->root();
  // The salary index holds 12 entries in one leaf; entries start right
  // after the 40-byte header with the 8-byte key first. Overwrite entry
  // 0's key with INT64_MAX so it orders after every real salary.
  const uint8_t huge[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  FR_ASSERT_OK(OverwriteBytes(&dev_, root, kPageHeaderBytes, huge, 8));
  FR_ASSERT_OK(RestampChecksum(&dev_, root));

  CheckReport report = Check();
  bool index_error = false;
  for (const CheckFinding& f : report.findings) {
    if (f.severity == CheckSeverity::kError && f.layer == CheckLayer::kIndex)
      index_error = true;
  }
  EXPECT_TRUE(index_error) << report.ToString();
}

// Corruption class 3: a head's link ref dangles -> replication layer.
TEST_F(IntegrityTest, DetectsDanglingLinkObject) {
  const ReplicationPathInfo* path =
      db_->catalog().FindPathBySpec("Emp1.dept.name");
  ASSERT_NE(path, nullptr);
  ASSERT_FALSE(path->link_sequence.empty());
  const LinkInfo* link =
      db_->catalog().link_registry().GetLink(path->link_sequence[0]);
  ASSERT_NE(link, nullptr);
  auto link_file = db_->GetAuxFile(link->link_set_file);
  ASSERT_TRUE(link_file.ok());
  std::vector<Oid> records;
  FR_ASSERT_OK(link_file.value()->ListOids(&records));
  ASSERT_FALSE(records.empty());
  // Delete a dept's link object out from under the engine: every emp whose
  // LinkRef pointed at it now dangles.
  FR_ASSERT_OK(link_file.value()->Delete(records[0]));

  CheckReport report = Check();
  EXPECT_GT(report.error_count(), 0u);
  bool replication_error = false;
  for (const CheckFinding& f : report.findings) {
    if (f.severity == CheckSeverity::kError &&
        f.layer == CheckLayer::kReplication) {
      replication_error = true;
    }
  }
  EXPECT_TRUE(replication_error) << report.ToString();
}

// Corruption class 4: hidden replica value desynchronized -> replication.
TEST_F(IntegrityTest, DetectsStaleReplicaValue) {
  const ReplicationPathInfo* path =
      db_->catalog().FindPathBySpec("Emp1.dept.name");
  ASSERT_NE(path, nullptr);
  auto set = db_->GetSet("Emp1");
  ASSERT_TRUE(set.ok());
  Object object;
  FR_ASSERT_OK(set.value()->Read(emps_[0], &object));
  object.SetReplicaValues(path->id, {Value(Padded("tampered"))});
  FR_ASSERT_OK(set.value()->Write(emps_[0], object));

  CheckReport report = Check();
  EXPECT_TRUE(HasFinding(report, CheckSeverity::kError,
                         CheckLayer::kReplication, "stale replica"))
      << report.ToString();
}

// Corruption class 5: S' physical order decayed -> replication warning.
// The records and every backpointer are surgically kept consistent, so the
// ONLY deviation is ordering — a performance bug (Section 5 clustering),
// not a correctness one, hence kWarning with zero errors.
TEST_F(IntegrityTest, DetectsMisorderedReplicaSet) {
  const ReplicationPathInfo* path =
      db_->catalog().FindPathBySpec("Emp1.dept.budget");
  ASSERT_NE(path, nullptr);
  ASSERT_EQ(path->strategy, ReplicationStrategy::kSeparate);
  auto file = db_->GetAuxFile(path->replica_set_file);
  ASSERT_TRUE(file.ok());
  std::vector<Oid> records;
  FR_ASSERT_OK(file.value()->ListOids(&records));
  ASSERT_GE(records.size(), 2u);

  // Swap the first two records' payloads...
  std::string payload0, payload1;
  FR_ASSERT_OK(file.value()->Read(records[0], &payload0));
  FR_ASSERT_OK(file.value()->Read(records[1], &payload1));
  FR_ASSERT_OK(file.value()->Update(records[0], payload1));
  FR_ASSERT_OK(file.value()->Update(records[1], payload0));

  // ...then repoint the terminals' canonical replica refs...
  ReplicaRecord rec0, rec1;
  FR_ASSERT_OK(rec0.Deserialize(payload1));  // now stored at records[0]
  FR_ASSERT_OK(rec1.Deserialize(payload0));  // now stored at records[1]
  auto repoint = [&](const Oid& owner, const Oid& replica_oid) {
    Object obj;
    FR_ASSERT_OK(db_->replication().ops().ReadObject(owner, &obj));
    ReplicaRefSlot slot = *obj.FindReplicaRef(path->id);
    slot.replica_oid = replica_oid;
    obj.SetReplicaRef(slot);
    FR_ASSERT_OK(db_->replication().ops().WriteObject(owner, obj));
  };
  repoint(rec0.owner, records[0]);
  repoint(rec1.owner, records[1]);

  // ...and every head's ref, via its dept.
  auto emp_set = db_->GetSet("Emp1");
  ASSERT_TRUE(emp_set.ok());
  const int dept_attr = emp_set.value()->type().FindAttribute("dept");
  ASSERT_GE(dept_attr, 0);
  for (const Oid& emp : emps_) {
    Object head;
    FR_ASSERT_OK(emp_set.value()->Read(emp, &head));
    if (head.FindReplicaRef(path->id) == nullptr) continue;
    Object dept;
    FR_ASSERT_OK(db_->replication().ops().ReadObject(
        head.field(dept_attr).as_ref(), &dept));
    const ReplicaRefSlot* dept_slot = dept.FindReplicaRef(path->id);
    ASSERT_NE(dept_slot, nullptr);
    ReplicaRefSlot slot = *head.FindReplicaRef(path->id);
    slot.replica_oid = dept_slot->replica_oid;
    head.SetReplicaRef(slot);
    FR_ASSERT_OK(emp_set.value()->Write(emp, head));
  }

  CheckReport report = Check();
  EXPECT_EQ(report.error_count(), 0u) << report.ToString();
  EXPECT_TRUE(HasFinding(report, CheckSeverity::kWarning,
                         CheckLayer::kReplication, "order"))
      << report.ToString();
}

// Corruption class 6: bit rot the checksum catches -> storage layer.
TEST_F(IntegrityTest, DetectsBadPageChecksum) {
  auto set = db_->GetSet("Dept");
  ASSERT_TRUE(set.ok());
  const PageId page = set.value()->file().first_page();
  // Flip one payload bit and deliberately do NOT restamp: the stored
  // checksum no longer matches.
  FR_ASSERT_OK(CorruptByte(&dev_, page, kPageSize - 100, 0x40));

  CheckReport report = Check();
  EXPECT_TRUE(HasFinding(report, CheckSeverity::kError, CheckLayer::kStorage,
                         "checksum"))
      << report.ToString();
}

// A database that just crashed mid-update and recovered from its WAL must
// check clean: recovery replays committed work atomically and restamps
// page checksums.
TEST(IntegrityRecoveryTest, CleanAfterCrashRecovery) {
  MemoryDevice disk, log_disk;
  FaultPlan plan;
  FaultInjectingDevice db_dev{&disk, &plan};
  FaultInjectingDevice log_dev{&log_disk, &plan};

  auto open = [&]() {
    Database::Options options;
    options.buffer_pool_frames = 256;
    options.device = &db_dev;
    options.wal_device = &log_dev;
    options.enable_wal = true;
    auto db_or = Database::Open(options);
    EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
    return std::move(db_or).value();
  };

  Oid dept0, emp_oid;
  {
    auto db = open();
    FR_ASSERT_OK(db->DefineType(
        TypeDescriptor("DEPT", {CharAttr("name", 20)})));
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "EMP", {CharAttr("name", 20), RefAttr("dept", "DEPT")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->CreateSet("Emp1", "EMP"));
    FR_ASSERT_OK(db->Insert("Dept", Object(0, {Value(Padded("sales"))}),
                            &dept0));
    for (int i = 0; i < 6; ++i) {
      FR_ASSERT_OK(db->Insert(
          "Emp1",
          Object(0, {Value(Padded("emp" + std::to_string(i))),
                     Value(dept0)}),
          &emp_oid));
    }
    FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
    FR_ASSERT_OK(db->Checkpoint());

    // Crash partway through a replicated update: the propagation touches
    // the dept, every emp's hidden slot, and the log.
    plan.Arm(3, /*torn=*/true);
    Status s = db->Update("Dept", dept0, "name", Value(Padded("renamed")));
    (void)s;  // fails if the crash tripped mid-update; both outcomes valid
  }

  plan.Reset();  // reboot
  auto db = open();
  CheckReport report;
  FR_ASSERT_OK(db->CheckIntegrity(&report));
  EXPECT_EQ(report.error_count(), 0u) << report.ToString();
  EXPECT_EQ(report.warning_count(), 0u) << report.ToString();
}

}  // namespace
}  // namespace fieldrep
