#include "db/lock_table.h"

#include "common/clock.h"
#include "common/lock_rank.h"
#include "common/strings.h"

namespace fieldrep {

namespace {
/// True when waiting for `lock_id` cannot close a cycle: the id is above
/// everything the transaction holds. With every waiter obeying this rule
/// a wait chain is a strictly ascending id sequence.
bool MayWait(const LockTable::Txn& txn, uint32_t lock_id) {
  return txn.held.empty() || lock_id > txn.held.rbegin()->first;
}
}  // namespace

void LockTable::RegisterTxn(Txn* txn) {
  txn->id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
}

LockTable::Entry* LockTable::GetEntryLocked(uint32_t lock_id) {
  auto it = entries_.find(lock_id);
  if (it != entries_.end()) return it->second.get();
  auto entry = std::make_unique<Entry>();
  entry->name = lock_id == kSchemaLockId
                    ? "db.setlock.schema"
                    : StringPrintf("db.setlock.%u", lock_id - 1);
  Entry* raw = entry.get();
  entries_.emplace(lock_id, std::move(entry));
  return raw;
}

bool LockTable::CompatibleLocked(const Entry& e, uint64_t txn_id, Mode mode) {
  if (e.exclusive_owner != 0 && e.exclusive_owner != txn_id) return false;
  if (mode == Mode::kExclusive && e.sharers > 0 &&
      !(e.sharers == 1 && e.sole_sharer == txn_id)) {
    return false;
  }
  return true;
}

Status LockTable::Acquire(Txn* txn, uint32_t lock_id, Mode mode) {
  auto held_it = txn->held.find(lock_id);
  const bool upgrade =
      held_it != txn->held.end() && held_it->second == Mode::kShared &&
      mode == Mode::kExclusive;
  if (held_it != txn->held.end() && !upgrade) return Status::OK();

  const Entry* granted = nullptr;
  bool counted_conflict = false;
  uint64_t wait_start = 0;
  {
    UniqueMutexLock lock(mu_);
    Entry* e = GetEntryLocked(lock_id);
    for (;;) {
      const bool compatible = CompatibleLocked(*e, txn->id, mode);
      if (compatible) break;
      if (!counted_conflict) {
        conflicts_.fetch_add(1, std::memory_order_relaxed);
        counted_conflict = true;
      }
      // Upgrades with other sharers present and any conflicting request
      // at or below a held id die: waiting there could close a cycle.
      if (upgrade || !MayWait(*txn, lock_id)) {
        aborts_.fetch_add(1, std::memory_order_relaxed);
        return Status::Aborted(StringPrintf(
            "lock conflict on %s; release and retry the transaction",
            e->name.c_str()));
      }
      if (wait_start == 0) wait_start = NowNs();
      waiters_.fetch_add(1, std::memory_order_relaxed);
      cv_.wait(lock);
      waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (upgrade) {
      e->sharers = 0;
      e->sole_sharer = 0;
      e->exclusive_owner = txn->id;
    } else if (mode == Mode::kShared) {
      if (++e->sharers == 1) e->sole_sharer = txn->id;
    } else {
      e->exclusive_owner = txn->id;
    }
    granted = e;
  }
  if (wait_start != 0) {
    const uint64_t waited = NowNs() - wait_start;
    wait_ns_.fetch_add(waited, std::memory_order_relaxed);
    wait_hist_ns_.Observe(waited);
  }
  if (upgrade) {
    held_it->second = Mode::kExclusive;
  } else {
    // Register the logical lock on this thread *after* dropping mu_
    // (kSetLock < kLockTable; the table lock is internal plumbing, the
    // set lock is what the transaction semantically holds).
    lock_rank::OnAcquire(granted, LockRank::kSetLock, granted->name.c_str(),
                         /*blocking=*/true);
    txn->held.emplace(lock_id, mode);
    held_.fetch_add(1, std::memory_order_relaxed);
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

LockTable::TryOutcome LockTable::TryAcquire(Txn* txn, uint32_t lock_id,
                                            Mode mode) {
  auto held_it = txn->held.find(lock_id);
  const bool upgrade =
      held_it != txn->held.end() && held_it->second == Mode::kShared &&
      mode == Mode::kExclusive;
  if (held_it != txn->held.end() && !upgrade) return TryOutcome::kAcquired;

  const Entry* granted = nullptr;
  {
    MutexLock lock(mu_);
    Entry* e = GetEntryLocked(lock_id);
    if (!CompatibleLocked(*e, txn->id, mode)) {
      conflicts_.fetch_add(1, std::memory_order_relaxed);
      if (upgrade || !MayWait(*txn, lock_id)) {
        aborts_.fetch_add(1, std::memory_order_relaxed);
        return TryOutcome::kMustAbort;
      }
      return TryOutcome::kWouldBlock;
    }
    if (upgrade) {
      e->sharers = 0;
      e->sole_sharer = 0;
      e->exclusive_owner = txn->id;
    } else if (mode == Mode::kShared) {
      if (++e->sharers == 1) e->sole_sharer = txn->id;
    } else {
      e->exclusive_owner = txn->id;
    }
    granted = e;
  }
  if (upgrade) {
    held_it->second = Mode::kExclusive;
  } else {
    lock_rank::OnAcquire(granted, LockRank::kSetLock, granted->name.c_str(),
                         /*blocking=*/false);
    txn->held.emplace(lock_id, mode);
    held_.fetch_add(1, std::memory_order_relaxed);
  }
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return TryOutcome::kAcquired;
}

void LockTable::ReleaseAll(Txn* txn) {
  if (txn->held.empty()) return;
  std::vector<const Entry*> released;
  released.reserve(txn->held.size());
  {
    MutexLock lock(mu_);
    for (const auto& [lock_id, mode] : txn->held) {
      Entry* e = GetEntryLocked(lock_id);
      if (mode == Mode::kExclusive) {
        if (e->exclusive_owner == txn->id) e->exclusive_owner = 0;
      } else if (e->sharers > 0) {
        if (--e->sharers == 1) {
          // The surviving sharer's id is unknown here; sole-sharer
          // upgrades simply stop matching until it re-shares. Conservative
          // but safe — upgrades then die and retry.
          e->sole_sharer = 0;
        } else if (e->sharers == 0) {
          e->sole_sharer = 0;
        }
      }
      released.push_back(e);
    }
    cv_.notify_all();
  }
  for (const Entry* e : released) lock_rank::OnRelease(e, e->name.c_str());
  held_.fetch_sub(txn->held.size(), std::memory_order_relaxed);
  txn->held.clear();
}

void LockTable::RegisterHeldOnThread(const Txn& txn) {
  if (txn.held.empty() || !kLockRankChecksEnabled) return;
  MutexLock lock(mu_);
  for (const auto& [lock_id, mode] : txn.held) {
    Entry* e = GetEntryLocked(lock_id);
    // blocking=false: attach order is the map's id order, not the
    // original acquisition order; recorded but not order-checked.
    lock_rank::OnAcquire(e, LockRank::kSetLock, e->name.c_str(),
                         /*blocking=*/false);
  }
}

void LockTable::UnregisterHeldFromThread(const Txn& txn) {
  if (txn.held.empty() || !kLockRankChecksEnabled) return;
  MutexLock lock(mu_);
  for (const auto& [lock_id, mode] : txn.held) {
    Entry* e = GetEntryLocked(lock_id);
    lock_rank::OnRelease(e, e->name.c_str());
  }
}

void LockTable::CollectMetrics(std::vector<MetricSample>* out) const {
  auto add = [out](const char* name, const char* help, MetricKind kind,
                   double value) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.kind = kind;
    s.value = value;
    out->push_back(std::move(s));
  };
  add("fieldrep_lock_acquisitions_total",
      "Set locks granted to write transactions.", MetricKind::kCounter,
      static_cast<double>(acquisitions()));
  add("fieldrep_lock_conflicts_total",
      "Lock requests that found a conflicting holder.", MetricKind::kCounter,
      static_cast<double>(conflicts()));
  add("fieldrep_lock_aborts_total",
      "Transactions killed by the ascending wait-or-die policy.",
      MetricKind::kCounter, static_cast<double>(aborts()));
  add("fieldrep_lock_wait_ns_total",
      "Total nanoseconds spent blocked on set locks.", MetricKind::kCounter,
      static_cast<double>(wait_ns()));
  add("fieldrep_lock_held", "Set locks currently held.", MetricKind::kGauge,
      static_cast<double>(held()));
  add("fieldrep_lock_waiters", "Transactions currently blocked.",
      MetricKind::kGauge, static_cast<double>(waiters()));
  MetricSample wait;
  wait.name = "fieldrep_lock_wait_ns";
  wait.help = "Per-acquisition lock wait latency, nanoseconds.";
  wait.kind = MetricKind::kHistogram;
  wait.histogram = wait_hist_ns_.TakeSnapshot();
  out->push_back(std::move(wait));
}

}  // namespace fieldrep
