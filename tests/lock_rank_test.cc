// Tests for the runtime lock-rank checker (src/common/lock_rank.{h,cc})
// and the annotated mutex wrappers built on it. Inversion and
// double-acquire cases are death tests: the checker's contract is an
// abort that names both locks, so a deadlock found in CI reads as a
// diagnosis instead of a hang.

#include <thread>

#include <gtest/gtest.h>

#include "common/annotated_mutex.h"
#include "common/lock_rank.h"

namespace fieldrep {
namespace {

// The checker is compiled out of Release builds; death tests would then
// outlive the EXPECT_DEATH and fail. Gate every enforcement test on the
// build-time flag the wrappers themselves use.
#define SKIP_IF_CHECKS_DISABLED()                                   \
  do {                                                              \
    if (!kLockRankChecksEnabled) {                                  \
      GTEST_SKIP() << "lock-rank checks compiled out (Release)";    \
    }                                                               \
  } while (0)

TEST(LockRankTest, AscendingAcquisitionSucceeds) {
  Mutex low(LockRank::kServer, "test.low");
  Mutex high(LockRank::kWalLog, "test.high");
  MutexLock l1(low);
  MutexLock l2(high);
  EXPECT_EQ(lock_rank::HeldCount(), kLockRankChecksEnabled ? 2u : 0u);
}

TEST(LockRankTest, HeldStackDrainsOnRelease) {
  Mutex mu(LockRank::kLeaf, "test.leaf");
  { MutexLock lock(mu); }
  EXPECT_EQ(lock_rank::HeldCount(), 0u);
}

TEST(LockRankDeathTest, InvertedAcquisitionAbortsWithBothNames) {
  SKIP_IF_CHECKS_DISABLED();
  Mutex low(LockRank::kServer, "test.rank_low");
  Mutex high(LockRank::kWalLog, "test.rank_high");
  // Taking the low-ranked lock while holding the high-ranked one is the
  // inversion; the abort message must identify both ends of the cycle.
  EXPECT_DEATH(
      {
        MutexLock l1(high);
        MutexLock l2(low);
      },
      "lock-rank violation.*test\\.rank_low.*test\\.rank_high");
}

TEST(LockRankDeathTest, EqualRankDistinctLocksAbort) {
  SKIP_IF_CHECKS_DISABLED();
  // kWalLog is not a same-rank-ok class: two distinct locks at one rank
  // have no defined order between them, so holding both is an inversion
  // waiting for the opposite interleaving.
  Mutex a(LockRank::kWalLog, "test.peer_a");
  Mutex b(LockRank::kWalLog, "test.peer_b");
  EXPECT_DEATH(
      {
        MutexLock l1(a);
        MutexLock l2(b);
      },
      "lock-rank violation.*test\\.peer_b.*test\\.peer_a");
}

TEST(LockRankDeathTest, SelfDeadlockAborts) {
  SKIP_IF_CHECKS_DISABLED();
  Mutex mu(LockRank::kLeaf, "test.self");
  EXPECT_DEATH(
      {
        mu.lock();
        mu.lock();  // non-recursive re-acquire: guaranteed deadlock
      },
      "lock-rank violation.*test\\.self");
}

TEST(LockRankDeathTest, ReleasingUnheldLockAborts) {
  SKIP_IF_CHECKS_DISABLED();
  int not_a_lock = 0;
  EXPECT_DEATH(lock_rank::OnRelease(&not_a_lock, "test.unheld"),
               "test\\.unheld.*does not hold");
}

TEST(LockRankTest, SameRankClassPermitsMultipleFrameLatches) {
  // Per-frame latches are the one same-rank-ok class: elevator write-back
  // holds several at once.
  SharedMutex a(LockRank::kFrameLatch, "test.frame_a");
  SharedMutex b(LockRank::kFrameLatch, "test.frame_b");
  WriterMutexLock l1(a);
  WriterMutexLock l2(b);
  EXPECT_EQ(lock_rank::HeldCount(), kLockRankChecksEnabled ? 2u : 0u);
}

TEST(LockRankTest, TryLockIsRecordedButNotOrderChecked) {
  SKIP_IF_CHECKS_DISABLED();
  // try_lock cannot block, so it cannot complete a deadlock cycle: a
  // downward-rank try_lock is legal. But once held it participates in
  // the order checks for later blocking acquisitions.
  Mutex low(LockRank::kServer, "test.try_low");
  Mutex high(LockRank::kWalLog, "test.try_high");
  MutexLock l1(high);
  ASSERT_TRUE(low.try_lock());
  EXPECT_EQ(lock_rank::HeldCount(), 2u);
  low.unlock();
}

TEST(LockRankTest, SharedAcquisitionsTrackLikeExclusive) {
  SharedMutex mu(LockRank::kDatabaseMaps, "test.shared");
  {
    ReaderMutexLock lock(mu);
    EXPECT_EQ(lock_rank::HeldCount(), kLockRankChecksEnabled ? 1u : 0u);
  }
  EXPECT_EQ(lock_rank::HeldCount(), 0u);
}

TEST(LockRankTest, HeldStackIsPerThread) {
  SKIP_IF_CHECKS_DISABLED();
  Mutex mu(LockRank::kWalLog, "test.cross_thread");
  MutexLock lock(mu);
  // Another thread holds nothing and may take any rank, including one
  // below what this thread holds.
  std::thread t([] {
    Mutex low(LockRank::kServer, "test.other_thread_low");
    MutexLock l(low);
    EXPECT_EQ(lock_rank::HeldCount(), 1u);
  });
  t.join();
  EXPECT_EQ(lock_rank::HeldCount(), 1u);
}

TEST(LockRankTest, CondVarWaitKeepsStackBalanced) {
  SKIP_IF_CHECKS_DISABLED();
  // UniqueMutexLock's unlock/relock inside a CondVar wait must pop and
  // re-push the rank entry, or every wait would poison the held stack.
  Mutex mu(LockRank::kLeaf, "test.cv_mu");
  CondVar cv;
  bool ready = false;
  std::thread t([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    UniqueMutexLock lock(mu);
    cv.wait(lock, [&]() REQUIRES(mu) { return ready; });
    EXPECT_EQ(lock_rank::HeldCount(), 1u);
  }
  t.join();
  EXPECT_EQ(lock_rank::HeldCount(), 0u);
}

TEST(LockRankTest, ChecksCompiledOutOfRelease) {
#if defined(NDEBUG) && !defined(FIELDREP_LOCK_RANK_CHECKS)
  // Release lane: the checker must cost nothing and track nothing.
  Mutex mu(LockRank::kLeaf, "test.release");
  MutexLock lock(mu);
  EXPECT_EQ(lock_rank::HeldCount(), 0u);
  EXPECT_FALSE(kLockRankChecksEnabled);
#else
  EXPECT_TRUE(kLockRankChecksEnabled);
#endif
}

}  // namespace
}  // namespace fieldrep
