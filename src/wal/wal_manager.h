#ifndef FIELDREP_WAL_WAL_MANAGER_H_
#define FIELDREP_WAL_WAL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "telemetry/metrics.h"
#include "wal/log_writer.h"

namespace fieldrep {

/// Counters describing write-ahead-log activity.
struct WalStats {
  uint64_t transactions = 0;     ///< Committed transactions.
  uint64_t empty_commits = 0;    ///< Commits that changed no page bytes.
  uint64_t records = 0;          ///< Log records appended.
  uint64_t delta_bytes = 0;      ///< Payload bytes of page-write records.
  uint64_t log_page_writes = 0;  ///< Pages written to the log device.
  uint64_t log_syncs = 0;        ///< Sync calls on the log device.
  uint64_t checkpoints = 0;      ///< Completed checkpoints.
  uint64_t checkpoint_pages = 0; ///< Dirty pages flushed by checkpoints.
  uint64_t group_batches = 0;    ///< Group-commit sync batches (leader syncs).
  uint64_t group_commits = 0;    ///< Commits made durable by those batches.

  std::string ToString() const;
};

/// One in-flight transaction's private WAL state. Lives on the thread
/// running the transaction (a linked stack threaded through `tls_prev`,
/// one node per manager), or detached between a network session's
/// statements. Opaque outside the manager.
struct WalTxn;

/// \brief The durability engine: redo-only write-ahead logging with
/// no-steal buffering and epoch-based log truncation.
///
/// One logical mutation (an object update plus its entire replica
/// propagation along the inverted path, Section 4.2 of the paper) runs
/// inside a transaction bracket. While the transaction is open the
/// manager, hooked into the BufferPool as its PageObserver,
///
///   - snapshots each page's pre-image on first exclusive access (into
///     page buffers the thread reuses from one transaction to the next),
///   - tracks the set of pages the mutation dirtied, and
///   - vetoes eviction of those pages (no-steal: uncommitted bytes never
///     reach the device).
///
/// At commit it writes a Begin record, one physiological redo record per
/// changed page (its first through last changed byte, found by a block
/// compare of the page against its snapshot), and a Commit record, then
/// (by default) syncs the log. Only after the log is durable may the
/// pages themselves be flushed — the flush-ordering invariant, enforced
/// through BeforePageFlush and the per-frame page LSN. Recovery replays
/// exactly the committed transactions, so a crash anywhere inside a
/// propagation yields either the fully-old or fully-new replica state.
///
/// Checkpointing is driven by the pool's dirty-frame table: flush the
/// dirty pages (their log records are already durable), sync the
/// database device, then start a fresh log epoch — which logically
/// truncates the log without a device truncate.
///
/// Concurrency (DESIGN.md §14): any number of write transactions may be
/// open at once, one per thread (network sessions carry theirs across
/// worker threads via Detach/AttachTransaction). A transaction's
/// snapshots and dirty set live in its thread-bound WalTxn, untouched by
/// other threads; the per-set 2PL layer above guarantees two live
/// transactions never write the same data page. Shared state is small
/// and explicitly locked: the no-steal protection set (`protected_`,
/// refcounts under `state_mu_` — reachable from any evicting thread),
/// the log writer and stats under `log_mu_`, and `commit_mu_`, which
/// serializes top-level commits end to end so each commit's metadata
/// snapshot (precommit hook), page diffs, and page-LSN stamps are
/// mutually consistent. Neither state_mu_ nor log_mu_ is ever held
/// across a call into the buffer pool.
class WalManager : public PageObserver {
 public:
  struct Options {
    /// Sync the log on every commit. When false, records stay buffered
    /// until a page flush forces them out; a crash may lose recently
    /// committed transactions but never atomicity.
    bool sync_on_commit = true;
    /// True group commit: commits only flush the log; durability comes
    /// from WaitDurable, where concurrent committers batch behind one
    /// leader sync (K commits -> 1 fdatasync). Overrides the per-commit
    /// sync of `sync_on_commit`.
    bool group_commit = false;
    /// Log size past which the database should checkpoint (0 = never).
    /// The manager only reports the condition (needs_auto_checkpoint);
    /// the database acts on it once the transaction's locks are
    /// released, because a checkpoint must not run while any other
    /// transaction is live (no-steal: FlushAll would write their
    /// uncommitted pages).
    uint64_t checkpoint_threshold_bytes = 0;
  };

  /// \param log_device backing store of the log (not owned).
  /// \param pool the buffer pool this manager observes (not owned).
  WalManager(StorageDevice* log_device, BufferPool* pool,
             const Options& options);

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Starts the first epoch of this process lifetime. `epoch` must exceed
  /// every epoch already on the log device (recovery reports the old one).
  Status Initialize(uint64_t epoch);

  /// Hook run inside commit (under commit_mu_), before deltas are
  /// computed. The database uses it to write its catalog/metadata state
  /// into the checkpoint pages so that every commit is self-describing
  /// after replay.
  void set_precommit_hook(std::function<Status()> hook) {
    precommit_hook_ = std::move(hook);
  }

  // --- Transactions (flat nesting, one per thread) ---------------------------

  /// Opens a transaction on this thread (or deepens the one already
  /// open). Fails fast once the log is broken.
  Status BeginTransaction();
  /// Logs and (optionally) syncs the outermost transaction's deltas.
  /// `commit_lsn`, when non-null, receives the commit record's end LSN
  /// (0 for nested or empty commits) — the value to pass to WaitDurable.
  /// On a log-device failure the manager enters a broken state: the
  /// affected pages stay pinned in memory forever and every later
  /// transaction fails fast, so no uncommitted byte can reach the device.
  Status CommitTransaction(uint64_t* commit_lsn = nullptr);
  /// Discards the transaction bracket. Redo-only logging has no undo:
  /// in-memory partial effects of a failed mutation remain (as before
  /// this subsystem existed) and are never logged. Their pages stay dirty
  /// in the pool, so a checkpoint or an eviction can write them to the
  /// device, after which they survive a restart; only a crash before
  /// such a write-back discards them.
  Status AbortTransaction();
  /// Whether the *current thread* has an open transaction on this
  /// manager.
  bool in_transaction() const;
  /// Number of live transactions across all threads (including detached
  /// session transactions).
  int active_transactions() const {
    return active_txns_.load(std::memory_order_acquire);
  }

  /// Unbinds the current thread's open transaction so another thread can
  /// continue it (network sessions migrate across workers between
  /// statements). Returns null when no transaction is open. The handle
  /// stays owned by the manager; hand it back via AttachTransaction or
  /// the transaction leaks its no-steal protections.
  WalTxn* DetachTransaction();
  /// Rebinds a detached transaction to the current thread.
  void AttachTransaction(WalTxn* txn);

  // --- Group commit -----------------------------------------------------------

  /// Blocks until the log is durable through `lsn` (0 returns at once).
  /// In group-commit mode this is where the fsync amortization happens:
  /// the first arriving session becomes the batch leader, snapshots the
  /// flushed tail, performs one device sync *outside* `log_mu_` (so
  /// concurrent commits keep appending and join the next batch), marks
  /// the snapshot durable, and wakes every follower whose commit LSN the
  /// sync covered. Safe from any thread; also correct (one sync, batch of
  /// one) when called without group_commit enabled.
  Status WaitDurable(uint64_t lsn);

  /// End LSN of the most recent top-level commit (by any thread) that
  /// logged deltas. Under concurrency prefer the `commit_lsn` out-param
  /// of the commit that actually did the work.
  uint64_t last_commit_lsn() const {
    return last_commit_lsn_.load(std::memory_order_acquire);
  }
  bool group_commit_enabled() const { return options_.group_commit; }

  // --- Checkpoint ------------------------------------------------------------

  /// Flushes the pool's dirty frames, syncs the database device, and
  /// begins a fresh log epoch. Refused while any transaction is live
  /// anywhere (no-steal); the database quiesces writers first by taking
  /// the schema lock exclusively.
  Status Checkpoint();

  /// True when the log has outgrown Options::checkpoint_threshold_bytes.
  /// The database polls this after releasing a committed transaction's
  /// locks and checkpoints from a quiesced context.
  bool needs_auto_checkpoint() const {
    return options_.checkpoint_threshold_bytes != 0 &&
           log_bytes() > options_.checkpoint_threshold_bytes;
  }

  // --- Introspection ---------------------------------------------------------

  WalStats stats() const {
    MutexLock lock(log_mu_);
    return stats_;
  }
  uint64_t epoch() const {
    MutexLock lock(log_mu_);
    return writer_.epoch();
  }
  uint64_t durable_lsn() const {
    MutexLock lock(log_mu_);
    return writer_.durable_lsn();
  }
  uint64_t log_bytes() const {
    MutexLock lock(log_mu_);
    return writer_.next_lsn();
  }
  bool broken() const { return broken_.load(std::memory_order_relaxed); }

  /// Top-level commit latency distribution (Observe'd around
  /// CommitTopLevel, including the commit sync).
  Histogram::Snapshot commit_latency() const {
    return commit_latency_ns_.TakeSnapshot();
  }

  /// Appends this manager's metric samples (WalStats counters, log size
  /// and broken gauges, commit-latency and checkpoint-duration
  /// histograms) to `out`.
  void CollectMetrics(std::vector<MetricSample>* out) const;

  // --- PageObserver ----------------------------------------------------------

  void OnPageAccess(PageId page_id, const uint8_t* data) override;
  void OnPageDirtied(PageId page_id) override;
  bool CanEvict(PageId page_id) const override;
  Status BeforePageFlush(PageId page_id, uint64_t page_lsn) override;

 private:
  /// The current thread's open transaction on *this* manager (threads
  /// may hold transactions on several managers at once — tests open
  /// multiple databases).
  WalTxn* CurrentTxn() const;
  Status CommitTopLevel(WalTxn* txn, uint64_t* commit_lsn);
  /// Drops `txn`'s no-steal protections (skipped once broken: the
  /// protection set is frozen so unloggable bytes stay off the device),
  /// then clears it and keeps it as the finishing thread's spare, whose
  /// snapshot buffers the thread's next BeginTransaction reuses.
  void FinishTxn(WalTxn* txn, bool keep_protected);
  Status CheckpointImpl();

  StorageDevice* log_device_;
  BufferPool* pool_;
  LogWriter writer_ GUARDED_BY(log_mu_);
  Options options_;
  std::function<Status()> precommit_hook_;

  std::atomic<int> active_txns_{0};
  std::atomic<bool> broken_{false};

  /// Serializes top-level commits end to end: precommit hook, page
  /// diffing, log append, and page-LSN stamping happen atomically with
  /// respect to other commits, so the metadata image each commit embeds
  /// reflects exactly the commits before it. Rank sits below every
  /// storage/log lock the commit path acquires.
  Mutex commit_mu_{LockRank::kWalCommit, "wal.commit_mu"};
  /// Commit ids in log order; assigned under commit_mu_.
  uint64_t next_txn_id_ GUARDED_BY(commit_mu_) = 1;

  /// Guards the no-steal protection set: pages dirtied by any live
  /// transaction, refcounted because meta pages recur across
  /// transactions. Read by CanEvict from any thread that evicts a dirty
  /// page. kWalState is the deepest engine rank a pool walk reaches
  /// (victim → shard → state).
  mutable Mutex state_mu_{LockRank::kWalState, "wal.state_mu"};
  std::map<PageId, int> protected_ GUARDED_BY(state_mu_);

  /// Guards writer_ and stats_: commits and checkpoints append while
  /// BeforePageFlush may sync from any evicting thread. Never held
  /// across a call into the buffer pool.
  mutable Mutex log_mu_{LockRank::kWalLog, "wal.log_mu"};
  WalStats stats_ GUARDED_BY(log_mu_);

  /// Group-commit coordinator state. Lock order (enforced by LockRank):
  /// group_mu_ before log_mu_ (WaitDurable holds group_mu_ only around
  /// leader election and follower waits, never across the device sync
  /// itself).
  Mutex group_mu_{LockRank::kWalGroup, "wal.group_mu"};
  CondVar group_cv_;
  bool group_leader_active_ GUARDED_BY(group_mu_) = false;
  uint64_t group_waiters_ GUARDED_BY(group_mu_) = 0;
  std::atomic<uint64_t> last_commit_lsn_{0};

  /// Always-on latency instruments: relaxed atomics, so Observe is noise
  /// next to the log append/sync it brackets.
  Histogram commit_latency_ns_{Histogram::LatencyBoundsNs()};
  Histogram checkpoint_ns_{Histogram::LatencyBoundsNs()};
  /// Commits released per leader sync (the amortization factor).
  Histogram group_batch_size_{
      std::vector<uint64_t>{1, 2, 4, 8, 16, 32, 64, 128, 256}};
  Histogram group_sync_ns_{Histogram::LatencyBoundsNs()};
};

/// \brief RAII transaction bracket.
///
/// Begins a (possibly nested) transaction on construction; the destructor
/// aborts unless Commit() ran. A null manager makes every operation a
/// no-op, so call sites need not test whether WAL is enabled.
class WalTransaction {
 public:
  explicit WalTransaction(WalManager* wal);
  ~WalTransaction();

  WalTransaction(const WalTransaction&) = delete;
  WalTransaction& operator=(const WalTransaction&) = delete;

  /// Status of the BeginTransaction call; check before doing work.
  const Status& begin_status() const { return begin_status_; }
  Status Commit(uint64_t* commit_lsn = nullptr);

 private:
  WalManager* wal_;
  bool active_ = false;
  Status begin_status_;
};

}  // namespace fieldrep

#endif  // FIELDREP_WAL_WAL_MANAGER_H_
