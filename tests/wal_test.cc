#include <cstring>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/fault_injecting_device.h"
#include "storage/memory_device.h"
#include "test_util.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"
#include "wal/recovery_manager.h"
#include "wal/wal_manager.h"

namespace fieldrep {
namespace {

using ::fieldrep::testing::OpenEmployeeDatabase;
using ::fieldrep::testing::PopulateEmployees;

// ---------------------------------------------------------------------------
// Record wire format
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesIeeeCheckValue) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(LogRecordTest, PageWriteRoundtrip) {
  LogRecord rec;
  rec.type = LogRecordType::kPageWrite;
  rec.epoch = 7;
  rec.txn_id = 42;
  rec.page_id = 9;
  rec.offset = 100;
  rec.bytes = std::string(33, 'x');

  std::string wire;
  rec.AppendTo(&wire);
  ASSERT_EQ(wire.size(), rec.WireSize());

  LogRecord parsed;
  ASSERT_TRUE(LogRecord::ParseBody(
      reinterpret_cast<const uint8_t*>(wire.data()) + 8, wire.size() - 8,
      &parsed));
  EXPECT_EQ(parsed.type, LogRecordType::kPageWrite);
  EXPECT_EQ(parsed.epoch, 7u);
  EXPECT_EQ(parsed.txn_id, 42u);
  EXPECT_EQ(parsed.page_id, 9u);
  EXPECT_EQ(parsed.offset, 100u);
  EXPECT_EQ(parsed.bytes, rec.bytes);
}

TEST(LogRecordTest, RejectsMalformedBodies) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = 1;
  std::string wire;
  rec.AppendTo(&wire);
  uint8_t* body = reinterpret_cast<uint8_t*>(wire.data()) + 8;
  size_t body_len = wire.size() - 8;

  LogRecord parsed;
  ASSERT_TRUE(LogRecord::ParseBody(body, body_len, &parsed));
  // Invalid type byte (after the u64 epoch).
  body[8] = 99;
  EXPECT_FALSE(LogRecord::ParseBody(body, body_len, &parsed));
  body[8] = 0;
  EXPECT_FALSE(LogRecord::ParseBody(body, body_len, &parsed));
  // Truncated body.
  body[8] = static_cast<uint8_t>(LogRecordType::kCommit);
  EXPECT_FALSE(LogRecord::ParseBody(body, body_len - 1, &parsed));
}

TEST(LogRecordTest, RejectsOutOfPageRanges) {
  LogRecord rec;
  rec.type = LogRecordType::kPageWrite;
  rec.txn_id = 1;
  rec.page_id = 1;
  rec.offset = kPageSize - 8;
  rec.bytes = std::string(16, 'y');  // offset + length > kPageSize
  std::string wire;
  rec.AppendTo(&wire);
  LogRecord parsed;
  EXPECT_FALSE(LogRecord::ParseBody(
      reinterpret_cast<const uint8_t*>(wire.data()) + 8, wire.size() - 8,
      &parsed));
}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

LogRecord MakeWrite(uint64_t txn, PageId page, uint32_t offset,
                    const std::string& bytes) {
  LogRecord rec;
  rec.type = LogRecordType::kPageWrite;
  rec.txn_id = txn;
  rec.page_id = page;
  rec.offset = offset;
  rec.bytes = bytes;
  return rec;
}

TEST(LogWriterReaderTest, RoundtripAcrossPageBoundaries) {
  MemoryDevice device;
  LogWriter writer(&device);
  FR_ASSERT_OK(writer.Reset(1));

  // Payloads near page size force records to straddle page boundaries.
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    FR_ASSERT_OK(writer.Append(
        MakeWrite(i, i, i * 3, std::string(3000 + i * 17, 'a' + i % 26))));
  }
  FR_ASSERT_OK(writer.Sync());
  EXPECT_EQ(writer.durable_lsn(), writer.next_lsn());
  EXPECT_EQ(writer.records_appended(), static_cast<uint64_t>(n));

  LogReader reader(&device);
  bool valid = false;
  FR_ASSERT_OK(reader.Open(&valid));
  ASSERT_TRUE(valid);
  EXPECT_EQ(reader.epoch(), 1u);
  for (int i = 0; i < n; ++i) {
    LogRecord rec;
    bool end = true;
    FR_ASSERT_OK(reader.ReadNext(&rec, &end));
    ASSERT_FALSE(end) << "record " << i;
    EXPECT_EQ(rec.txn_id, static_cast<uint64_t>(i));
    EXPECT_EQ(rec.page_id, static_cast<PageId>(i));
    EXPECT_EQ(rec.bytes.size(), 3000u + i * 17);
  }
  LogRecord rec;
  bool end = false;
  FR_ASSERT_OK(reader.ReadNext(&rec, &end));
  EXPECT_TRUE(end);
}

TEST(LogWriterReaderTest, ReaderStopsAtCorruption) {
  MemoryDevice device;
  LogWriter writer(&device);
  FR_ASSERT_OK(writer.Reset(3));
  for (int i = 0; i < 6; ++i) {
    FR_ASSERT_OK(writer.Append(MakeWrite(i, 1, 0, std::string(200, 'z'))));
  }
  FR_ASSERT_OK(writer.Sync());

  // Flip one byte in the middle of the stream (page 1 holds the first
  // few records).
  uint8_t page[kPageSize];
  FR_ASSERT_OK(device.ReadPage(1, page));
  page[700] ^= 0xFF;
  FR_ASSERT_OK(device.WritePage(1, page));

  LogReader reader(&device);
  bool valid = false;
  FR_ASSERT_OK(reader.Open(&valid));
  ASSERT_TRUE(valid);
  int read = 0;
  while (true) {
    LogRecord rec;
    bool end = true;
    FR_ASSERT_OK(reader.ReadNext(&rec, &end));
    if (end) break;
    ++read;
  }
  EXPECT_LT(read, 6);  // the scan stopped at the corrupt record, cleanly
}

TEST(LogWriterReaderTest, EpochResetLogicallyTruncates) {
  MemoryDevice device;
  LogWriter writer(&device);
  FR_ASSERT_OK(writer.Reset(1));
  for (int i = 0; i < 20; ++i) {
    FR_ASSERT_OK(writer.Append(MakeWrite(i, 1, 0, std::string(500, 'o'))));
  }
  FR_ASSERT_OK(writer.Sync());

  // New epoch: the stream restarts at LSN 0; the device is NOT truncated,
  // stale epoch-1 bytes remain beyond the new tail.
  FR_ASSERT_OK(writer.Reset(2));
  FR_ASSERT_OK(writer.Append(MakeWrite(100, 2, 8, "fresh")));
  FR_ASSERT_OK(writer.Sync());

  LogReader reader(&device);
  bool valid = false;
  FR_ASSERT_OK(reader.Open(&valid));
  ASSERT_TRUE(valid);
  EXPECT_EQ(reader.epoch(), 2u);
  LogRecord rec;
  bool end = true;
  FR_ASSERT_OK(reader.ReadNext(&rec, &end));
  ASSERT_FALSE(end);
  EXPECT_EQ(rec.txn_id, 100u);
  EXPECT_EQ(rec.bytes, "fresh");
  FR_ASSERT_OK(reader.ReadNext(&rec, &end));
  EXPECT_TRUE(end);  // stale epoch-1 records are invisible
}

TEST(LogReaderTest, EmptyOrForeignDeviceIsNotALog) {
  MemoryDevice empty;
  LogReader reader(&empty);
  bool valid = true;
  FR_ASSERT_OK(reader.Open(&valid));
  EXPECT_FALSE(valid);

  MemoryDevice garbage;
  PageId id;
  FR_ASSERT_OK(garbage.AllocatePage(&id));
  uint8_t page[kPageSize];
  std::memset(page, 0xAB, sizeof(page));
  FR_ASSERT_OK(garbage.WritePage(0, page));
  LogReader reader2(&garbage);
  valid = true;
  FR_ASSERT_OK(reader2.Open(&valid));
  EXPECT_FALSE(valid);
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

TEST(RecoveryTest, AppliesCommittedSkipsUncommitted) {
  MemoryDevice db;
  // Two pages of known content.
  for (int i = 0; i < 2; ++i) {
    PageId id;
    FR_ASSERT_OK(db.AllocatePage(&id));
  }
  uint8_t page[kPageSize];
  std::memset(page, 0x11, sizeof(page));
  FR_ASSERT_OK(db.WritePage(0, page));
  FR_ASSERT_OK(db.WritePage(1, page));

  MemoryDevice log;
  LogWriter writer(&log);
  FR_ASSERT_OK(writer.Reset(5));
  // Txn 1 commits: writes "AAAA" at offset 10 of page 0, and extends the
  // device with page 2.
  LogRecord begin;
  begin.type = LogRecordType::kBegin;
  begin.txn_id = 1;
  FR_ASSERT_OK(writer.Append(begin));
  FR_ASSERT_OK(writer.Append(MakeWrite(1, 0, 10, "AAAA")));
  FR_ASSERT_OK(writer.Append(MakeWrite(1, 2, 0, "NEWPAGE")));
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn_id = 1;
  FR_ASSERT_OK(writer.Append(commit));
  // Txn 2 never commits: its write must not be applied.
  begin.txn_id = 2;
  FR_ASSERT_OK(writer.Append(begin));
  FR_ASSERT_OK(writer.Append(MakeWrite(2, 1, 0, "LOST")));
  FR_ASSERT_OK(writer.Sync());

  RecoveryStats stats;
  FR_ASSERT_OK(RecoveryManager::Recover(&db, &log, &stats));
  EXPECT_TRUE(stats.log_found);
  EXPECT_EQ(stats.epoch, 5u);
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_EQ(stats.skipped_txns, 1u);
  EXPECT_EQ(stats.pages_written, 2u);

  FR_ASSERT_OK(db.ReadPage(0, page));
  EXPECT_EQ(std::memcmp(page + 10, "AAAA", 4), 0);
  EXPECT_EQ(page[9], 0x11);
  EXPECT_EQ(page[14], 0x11);
  FR_ASSERT_OK(db.ReadPage(1, page));
  EXPECT_EQ(page[0], 0x11);  // uncommitted write discarded
  ASSERT_EQ(db.page_count(), 3u);
  FR_ASSERT_OK(db.ReadPage(2, page));
  EXPECT_EQ(std::memcmp(page, "NEWPAGE", 7), 0);

  // Replay is idempotent: recovering again changes nothing.
  RecoveryStats again;
  FR_ASSERT_OK(RecoveryManager::Recover(&db, &log, &again));
  EXPECT_EQ(again.committed_txns, 1u);
  FR_ASSERT_OK(db.ReadPage(0, page));
  EXPECT_EQ(std::memcmp(page + 10, "AAAA", 4), 0);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjectingDeviceTest, CrashesAfterBudgetAndRevivesOnReset) {
  MemoryDevice base;
  FaultPlan plan;
  FaultInjectingDevice device(&base, &plan);

  PageId id;
  FR_ASSERT_OK(device.AllocatePage(&id));  // unarmed: passes
  uint8_t page[kPageSize];
  std::memset(page, 1, sizeof(page));
  FR_ASSERT_OK(device.WritePage(0, page));

  plan.Arm(2);
  FR_ASSERT_OK(device.WritePage(0, page));   // op 1
  EXPECT_FALSE(device.Sync().ok());          // op 2 trips the crash
  EXPECT_TRUE(plan.crashed);
  EXPECT_FALSE(device.WritePage(0, page).ok());  // machine is down
  EXPECT_FALSE(device.ReadPage(0, page).ok());
  EXPECT_FALSE(device.AllocatePage(&id).ok());

  plan.Reset();  // reboot: surviving data is intact
  FR_ASSERT_OK(device.ReadPage(0, page));
  EXPECT_EQ(page[0], 1);
  FR_ASSERT_OK(device.WritePage(0, page));
}

TEST(FaultInjectingDeviceTest, TornWritePersistsFirstHalfOnly) {
  MemoryDevice base;
  FaultPlan plan;
  FaultInjectingDevice device(&base, &plan);
  PageId id;
  FR_ASSERT_OK(device.AllocatePage(&id));
  uint8_t old_page[kPageSize];
  std::memset(old_page, 0xAA, sizeof(old_page));
  FR_ASSERT_OK(device.WritePage(0, old_page));

  plan.Arm(1, /*torn=*/true);
  uint8_t new_page[kPageSize];
  std::memset(new_page, 0xBB, sizeof(new_page));
  EXPECT_FALSE(device.WritePage(0, new_page).ok());
  EXPECT_TRUE(plan.crashed);

  plan.Reset();
  uint8_t got[kPageSize];
  FR_ASSERT_OK(device.ReadPage(0, got));
  EXPECT_EQ(got[0], 0xBB);                  // first half: new bytes
  EXPECT_EQ(got[kPageSize / 2 - 1], 0xBB);
  EXPECT_EQ(got[kPageSize / 2], 0xAA);      // second half: old bytes
  EXPECT_EQ(got[kPageSize - 1], 0xAA);
}

// ---------------------------------------------------------------------------
// Commit deltas
// ---------------------------------------------------------------------------

struct LoggedDelta {
  PageId page_id;
  uint32_t offset;
  std::string bytes;
  bool operator==(const LoggedDelta&) const = default;
};

void PrintTo(const LoggedDelta& d, std::ostream* os) {
  *os << "{page " << d.page_id << ", offset " << d.offset << ", "
      << d.bytes.size() << " bytes}";
}

/// The delta a byte-by-byte scan from both ends of the page finds; none
/// when the two images are equal.
void ReferenceDelta(PageId page_id, const uint8_t* before,
                    const uint8_t* after, std::vector<LoggedDelta>* out) {
  uint32_t first = 0;
  while (first < kPageSize && before[first] == after[first]) ++first;
  if (first == kPageSize) return;
  uint32_t last = kPageSize;
  while (before[last - 1] == after[last - 1]) --last;
  out->push_back(LoggedDelta{
      page_id, first,
      std::string(reinterpret_cast<const char*>(after) + first,
                  last - first)});
}

/// Drives a WalManager directly over a MemoryDevice pool and reads its
/// log back, so every logged page write can be checked against the
/// reference diff of the page's pre-image and its committed bytes.
class WalDeltaTest : public ::testing::Test {
 protected:
  static constexpr PageId kPages = 80;  // More than a spare keeps buffers.

  void SetUp() override {
    pool_.SetObserver(&wal_);
    FR_ASSERT_OK(wal_.Initialize(1));
    // Distinct bytes on every page, written outside any transaction (so
    // not logged).
    for (PageId i = 0; i < kPages; ++i) {
      PageGuard guard;
      FR_ASSERT_OK(pool_.NewPage(&guard));
      ASSERT_EQ(guard.page_id(), i);
      for (uint32_t b = 0; b < kPageSize; ++b) {
        guard.data()[b] = static_cast<uint8_t>(b * 131 + i * 7 + 1);
      }
      guard.MarkDirty();
    }
  }

  void TearDown() override { pool_.SetObserver(nullptr); }

  /// Applies `mutate` to page `page_id` through an exclusive guard of the
  /// open transaction, remembering the page's bytes before its first edit.
  void Edit(PageId page_id, const std::function<void(uint8_t*)>& mutate) {
    PageGuard guard;
    FR_ASSERT_OK(pool_.FetchPage(page_id, &guard));
    pre_images_.try_emplace(page_id, guard.data(), guard.data() + kPageSize);
    mutate(guard.data());
    guard.MarkDirty();
  }

  /// Commits the open transaction. `logged` receives the page writes it
  /// appended, `expected` the reference diff of every edited page.
  void Commit(std::vector<LoggedDelta>* logged,
              std::vector<LoggedDelta>* expected) {
    for (const auto& [page_id, before] : pre_images_) {
      ReferenceDelta(page_id, before.data(), pool_.PeekPage(page_id),
                     expected);
    }
    pre_images_.clear();
    FR_ASSERT_OK(wal_.CommitTransaction());
    ReadNewDeltas(logged);
  }

  /// The page-write records appended since the last call.
  void ReadNewDeltas(std::vector<LoggedDelta>* out) {
    LogReader reader(&log_);
    bool valid = false;
    FR_ASSERT_OK(reader.Open(&valid));
    ASSERT_TRUE(valid);
    size_t index = 0;
    for (;;) {
      LogRecord rec;
      bool end = false;
      FR_ASSERT_OK(reader.ReadNext(&rec, &end));
      if (end) break;
      if (rec.type != LogRecordType::kPageWrite) continue;
      if (index++ < deltas_read_) continue;
      out->push_back(LoggedDelta{rec.page_id, rec.offset, rec.bytes});
    }
    deltas_read_ = index;
  }

  /// One transaction that flips the byte at `offset` of `page_id`.
  void CommitFlip(PageId page_id, uint32_t offset,
                  std::vector<LoggedDelta>* logged,
                  std::vector<LoggedDelta>* expected) {
    FR_ASSERT_OK(wal_.BeginTransaction());
    Edit(page_id, [offset](uint8_t* p) { p[offset] ^= 0xFF; });
    Commit(logged, expected);
  }

  MemoryDevice disk_;
  MemoryDevice log_;
  BufferPool pool_{&disk_, 128};
  WalManager wal_{&log_, &pool_, WalManager::Options{}};
  std::map<PageId, std::vector<uint8_t>> pre_images_;
  size_t deltas_read_ = 0;
};

TEST_F(WalDeltaTest, SingleByteChangesAtBlockEdgesLogOneByte) {
  for (uint32_t offset : {0u, 63u, 64u, 65u, 4031u, 4095u}) {
    SCOPED_TRACE(offset);
    std::vector<LoggedDelta> logged, expected;
    CommitFlip(3, offset, &logged, &expected);
    EXPECT_EQ(logged, expected);
    ASSERT_EQ(logged.size(), 1u);
    EXPECT_EQ(logged[0].page_id, 3u);
    EXPECT_EQ(logged[0].offset, offset);
    EXPECT_EQ(logged[0].bytes.size(), 1u);
  }
}

TEST_F(WalDeltaTest, ChangesInTwoBlocksLogTheRangeBetweenThem) {
  FR_ASSERT_OK(wal_.BeginTransaction());
  Edit(5, [](uint8_t* p) {
    p[100] ^= 0x01;
    p[3000] ^= 0x80;
  });
  std::vector<LoggedDelta> logged, expected;
  Commit(&logged, &expected);
  EXPECT_EQ(logged, expected);
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].offset, 100u);
  EXPECT_EQ(logged[0].bytes.size(), 2901u);
}

TEST_F(WalDeltaTest, FullPageChangeLogsTheWholePage) {
  FR_ASSERT_OK(wal_.BeginTransaction());
  Edit(7, [](uint8_t* p) {
    for (uint32_t b = 0; b < kPageSize; ++b) p[b] = ~p[b];
  });
  std::vector<LoggedDelta> logged, expected;
  Commit(&logged, &expected);
  EXPECT_EQ(logged, expected);
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].offset, 0u);
  EXPECT_EQ(logged[0].bytes.size(), kPageSize);
}

TEST_F(WalDeltaTest, ByteIdenticalDirtyPageLogsNothing) {
  const WalStats before = wal_.stats();
  FR_ASSERT_OK(wal_.BeginTransaction());
  Edit(9, [](uint8_t* p) {
    p[17] ^= 0xFF;
    p[17] ^= 0xFF;
  });
  std::vector<LoggedDelta> logged, expected;
  Commit(&logged, &expected);
  EXPECT_TRUE(expected.empty());
  EXPECT_TRUE(logged.empty());
  const WalStats after = wal_.stats();
  EXPECT_EQ(after.records, before.records);
  EXPECT_EQ(after.empty_commits, before.empty_commits + 1);
}

TEST_F(WalDeltaTest, PageAllocatedInTransactionLogsItsWrittenBytes) {
  // A new page's pre-image is the zero page: filling it logs all of it,
  // and a page written only in its middle logs just that range.
  FR_ASSERT_OK(wal_.BeginTransaction());
  PageGuard full;
  FR_ASSERT_OK(pool_.NewPage(&full));
  std::memset(full.data(), 0x5A, kPageSize);
  full.MarkDirty();
  const PageId full_id = full.page_id();
  full.Release();
  PageGuard partial;
  FR_ASSERT_OK(pool_.NewPage(&partial));
  std::memset(partial.data() + 1000, 0x33, 24);
  partial.MarkDirty();
  const PageId partial_id = partial.page_id();
  partial.Release();
  FR_ASSERT_OK(wal_.CommitTransaction());

  std::vector<LoggedDelta> logged;
  ReadNewDeltas(&logged);
  const std::vector<LoggedDelta> expected = {
      {full_id, 0, std::string(kPageSize, '\x5A')},
      {partial_id, 1000, std::string(24, '\x33')}};
  EXPECT_EQ(logged, expected);
}

TEST_F(WalDeltaTest, PageLatchedBeforeBeginLogsTheWholePage) {
  // No pre-image was taken inside the transaction, so the commit cannot
  // diff the page and logs all of it.
  PageGuard guard;
  FR_ASSERT_OK(pool_.FetchPage(11, &guard));
  FR_ASSERT_OK(wal_.BeginTransaction());
  guard.data()[42] ^= 0xFF;
  guard.MarkDirty();
  const std::string image(reinterpret_cast<const char*>(guard.data()),
                          kPageSize);
  guard.Release();
  FR_ASSERT_OK(wal_.CommitTransaction());

  std::vector<LoggedDelta> logged;
  ReadNewDeltas(&logged);
  const std::vector<LoggedDelta> expected = {{11, 0, image}};
  EXPECT_EQ(logged, expected);
}

TEST_F(WalDeltaTest, ReusedTransactionDiffsAgainstItsOwnPreImage) {
  std::vector<LoggedDelta> logged, expected;
  CommitFlip(3, 10, &logged, &expected);
  EXPECT_EQ(logged, expected);

  // An aborted transaction between the two commits: its bytes stay in the
  // pool (redo-only, no undo) but its snapshots and write set must not.
  FR_ASSERT_OK(wal_.BeginTransaction());
  Edit(3, [](uint8_t* p) { p[2000] ^= 0xFF; });
  Edit(4, [](uint8_t* p) { p[0] ^= 0xFF; });
  pre_images_.clear();
  FR_ASSERT_OK(wal_.AbortTransaction());
  EXPECT_EQ(wal_.active_transactions(), 0);
  EXPECT_TRUE(wal_.CanEvict(3));
  EXPECT_TRUE(wal_.CanEvict(4));

  // The second commit's pre-image of page 3 holds both earlier changes,
  // so only its own byte is logged, and page 4 is not logged at all.
  logged.clear();
  expected.clear();
  CommitFlip(3, 500, &logged, &expected);
  EXPECT_EQ(logged, expected);
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0].page_id, 3u);
  EXPECT_EQ(logged[0].offset, 500u);
  EXPECT_EQ(logged[0].bytes.size(), 1u);
}

TEST_F(WalDeltaTest, TransactionAfterALargeOneDiffsCorrectly) {
  // Touches more pages than a finished transaction keeps buffers for.
  FR_ASSERT_OK(wal_.BeginTransaction());
  for (PageId i = 0; i < kPages; ++i) {
    Edit(i, [i](uint8_t* p) { p[(i * 97) % kPageSize] ^= 0xFF; });
  }
  std::vector<LoggedDelta> logged, expected;
  Commit(&logged, &expected);
  EXPECT_EQ(logged.size(), static_cast<size_t>(kPages));
  EXPECT_EQ(logged, expected);

  logged.clear();
  expected.clear();
  FR_ASSERT_OK(wal_.BeginTransaction());
  Edit(70, [](uint8_t* p) { p[4095] ^= 0xFF; });
  Edit(2, [](uint8_t* p) { std::memset(p + 64, 0, 128); });
  Commit(&logged, &expected);
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(logged, expected);
}

// ---------------------------------------------------------------------------
// WAL-enabled database
// ---------------------------------------------------------------------------

Database::Options WalMemoryOptions(StorageDevice* disk, StorageDevice* log,
                                   bool sync_on_commit = true) {
  Database::Options options;
  options.buffer_pool_frames = 512;
  options.device = disk;
  options.wal_device = log;
  options.enable_wal = true;
  options.wal_sync_on_commit = sync_on_commit;
  return options;
}

TEST(WalDatabaseTest, NormalOperationsWorkAndCommitTransactions) {
  MemoryDevice disk, log;
  auto db_or = Database::Open(WalMemoryOptions(&disk, &log));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  ASSERT_NE(db->wal(), nullptr);

  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
  FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
  Oid dept;
  FR_ASSERT_OK(db->Insert(
      "Dept", Object(0, {Value("sales"), Value(int32_t{100})}), &dept));
  FR_ASSERT_OK(db->Update("Dept", dept, "budget", Value(int32_t{250})));

  const WalStats& stats = db->wal()->stats();
  EXPECT_GE(stats.transactions, 2u);  // insert + update at minimum
  EXPECT_GT(stats.records, 0u);
  EXPECT_GT(stats.delta_bytes, 0u);
  EXPECT_FALSE(db->wal()->broken());

  Object got;
  FR_ASSERT_OK(db->Get("Dept", dept, &got));
  EXPECT_EQ(got.field(1).as_int32(), 250);
}

TEST(WalDatabaseTest, CommittedStateSurvivesCrashWithoutCheckpoint) {
  MemoryDevice disk, log;
  FaultPlan plan;
  FaultInjectingDevice db_dev(&disk, &plan);
  FaultInjectingDevice log_dev(&log, &plan);
  Oid dept;
  {
    auto db_or = Database::Open(WalMemoryOptions(&db_dev, &log_dev));
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->Insert(
        "Dept", Object(0, {Value("sales"), Value(int32_t{100})}), &dept));
    FR_ASSERT_OK(db->Update("Dept", dept, "budget", Value(int32_t{777})));
    // Crash NOW: no Checkpoint ran, no data page was ever flushed — the
    // committed state exists only in the log. Every write from here on
    // (including destructor writeback) is lost.
    plan.Arm(1);
  }
  plan.Reset();

  auto db_or = Database::Open(WalMemoryOptions(&db_dev, &log_dev));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  EXPECT_TRUE(db->recovery_stats().log_found);
  EXPECT_GE(db->recovery_stats().committed_txns, 2u);
  Object got;
  FR_ASSERT_OK(db->Get("Dept", dept, &got));
  EXPECT_EQ(got.field(1).as_int32(), 777);
}

TEST(WalDatabaseTest, CheckpointTruncatesLogAndSurvivesReopen) {
  MemoryDevice disk, log;
  Oid emp;
  std::string spec = "Emp1.dept.name";
  {
    auto db_or = Database::Open(WalMemoryOptions(&disk, &log));
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(
        TypeDescriptor("DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "EMP", {CharAttr("name", 20), Int32Attr("salary"),
                RefAttr("dept", "DEPT")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->CreateSet("Emp1", "EMP"));
    Oid dept;
    FR_ASSERT_OK(db->Insert(
        "Dept", Object(0, {Value("sales"), Value(int32_t{1})}), &dept));
    FR_ASSERT_OK(db->Insert(
        "Emp1", Object(0, {Value("alice"), Value(int32_t{10}), Value(dept)}),
        &emp));
    FR_ASSERT_OK(db->Replicate(spec, {}));
    uint64_t epoch_before = db->wal()->epoch();
    uint64_t log_before = db->wal()->log_bytes();
    EXPECT_GT(log_before, 0u);
    FR_ASSERT_OK(db->Checkpoint());
    EXPECT_GT(db->wal()->epoch(), epoch_before);  // new epoch = truncated
    EXPECT_EQ(db->wal()->log_bytes(), 0u);
    EXPECT_EQ(db->wal()->stats().checkpoints, 1u);
  }

  auto db_or = Database::Open(WalMemoryOptions(&disk, &log));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  const ReplicationPathInfo* path = db->replication().FindPath(spec);
  ASSERT_NE(path, nullptr);
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));
  Object got;
  FR_ASSERT_OK(db->Get("Emp1", emp, &got));
}

TEST(WalDatabaseTest, GroupCommitSyncsLogBeforeAnyPageFlush) {
  MemoryDevice disk, log;
  auto db_or = Database::Open(
      WalMemoryOptions(&disk, &log, /*sync_on_commit=*/false));
  FR_ASSERT_OK(db_or.status());
  auto db = std::move(db_or).value();
  FR_ASSERT_OK(db->DefineType(TypeDescriptor(
      "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
  FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
  Oid dept;
  FR_ASSERT_OK(db->Insert(
      "Dept", Object(0, {Value("sales"), Value(int32_t{5})}), &dept));

  // Group commit: the commit is flushed but not yet durable.
  EXPECT_LT(db->wal()->durable_lsn(), db->wal()->log_bytes());
  uint64_t syncs_before = db->wal()->stats().log_syncs;

  // Flushing a data page must first make the log durable through that
  // page's commit record — the write-ahead invariant.
  FR_ASSERT_OK(db->pool().FlushAll());
  EXPECT_EQ(db->wal()->durable_lsn(), db->wal()->log_bytes());
  EXPECT_GT(db->wal()->stats().log_syncs, syncs_before);
}

TEST(WalDatabaseTest, FileBackedEndToEnd) {
  std::string dir = ::testing::TempDir();
  std::string db_path = dir + "/wal_e2e.frdb";
  std::string wal_path = db_path + ".wal";
  ::remove(db_path.c_str());
  ::remove(wal_path.c_str());

  Database::Options options;
  options.buffer_pool_frames = 256;
  options.file_path = db_path;
  options.enable_wal = true;
  Oid dept;
  {
    auto db_or = Database::Open(options);
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    FR_ASSERT_OK(db->DefineType(TypeDescriptor(
        "DEPT", {CharAttr("name", 20), Int32Attr("budget")})));
    FR_ASSERT_OK(db->CreateSet("Dept", "DEPT"));
    FR_ASSERT_OK(db->Insert(
        "Dept", Object(0, {Value("ops"), Value(int32_t{9})}), &dept));
    FR_ASSERT_OK(db->Checkpoint());
    FR_ASSERT_OK(db->Update("Dept", dept, "budget", Value(int32_t{11})));
    // No checkpoint after the update: reopen must recover it from the
    // .wal file.
  }
  {
    auto db_or = Database::Open(options);
    FR_ASSERT_OK(db_or.status());
    auto db = std::move(db_or).value();
    Object got;
    FR_ASSERT_OK(db->Get("Dept", dept, &got));
    EXPECT_EQ(got.field(1).as_int32(), 11);
  }
  ::remove(db_path.c_str());
  ::remove(wal_path.c_str());
}

TEST(WalDatabaseTest, WalOffBehavesAsBefore) {
  auto db = OpenEmployeeDatabase();
  EXPECT_EQ(db->wal(), nullptr);
  EXPECT_FALSE(db->recovery_stats().log_found);
  PopulateEmployees(db.get(), 2, 4, 16);
  FR_ASSERT_OK(db->Replicate("Emp1.dept.name", {}));
  const ReplicationPathInfo* path =
      db->replication().FindPath("Emp1.dept.name");
  ASSERT_NE(path, nullptr);
  FR_ASSERT_OK(db->replication().VerifyPathConsistency(path->id));
}

}  // namespace
}  // namespace fieldrep
