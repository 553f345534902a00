#ifndef FIELDREP_DB_DATABASE_H_
#define FIELDREP_DB_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/annotated_mutex.h"
#include "check/check_report.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/lock_table.h"
#include "index/index_manager.h"
#include "objects/set_provider.h"
#include "query/executor.h"
#include "replication/replication_manager.h"
#include "storage/buffer_pool.h"
#include "storage/file_device.h"
#include "storage/memory_device.h"
#include "telemetry/metrics.h"
#include "telemetry/workload_profiler.h"
#include "wal/recovery_manager.h"
#include "wal/wal_manager.h"

namespace fieldrep {

/// \brief The public facade of the library: one object-oriented database
/// with field replication.
///
/// A Database owns the storage device, buffer pool, catalog, object sets,
/// auxiliary files (link sets, replica sets, output files), indexes,
/// replication machinery, and query executor, and wires them together.
///
/// Typical use (the paper's employee database):
/// \code
///   auto db = Database::Open({});
///   db->DefineType(...ORG...); db->DefineType(...DEPT...);
///   db->DefineType(...EMP...);
///   db->CreateSet("Org", "ORG"); db->CreateSet("Dept", "DEPT");
///   db->CreateSet("Emp1", "EMP");
///   ... insert objects ...
///   db->Replicate("Emp1.dept.name", {});
///   ReadQuery q{.set_name = "Emp1",
///               .projections = {"name", "salary", "dept.name"},
///               .predicate = Predicate::Compare("salary", CompareOp::kGt,
///                                               Value(int32_t{100000}))};
///   ReadResult r;
///   db->Retrieve(q, &r);   // no functional join: dept.name is replicated
/// \endcode
class Database : public SetProvider {
 public:
  struct Options {
    /// Buffer pool capacity in 4 KiB frames.
    size_t buffer_pool_frames = 4096;
    /// Path of the backing file; empty selects the in-memory device.
    std::string file_path;
    /// External database device (not owned; overrides file_path). Lets a
    /// test keep the "disk" alive across simulated machine crashes.
    StorageDevice* device = nullptr;

    /// Enables write-ahead logging and crash recovery. On open, the
    /// committed tail of the log is replayed onto the database device;
    /// afterwards every mutating operation (including its full replica
    /// propagation) commits atomically.
    bool enable_wal = false;
    /// Backing file of the log; empty derives `file_path + ".wal"`, or an
    /// in-memory log for in-memory databases.
    std::string wal_path;
    /// External log device (not owned; overrides wal_path).
    StorageDevice* wal_device = nullptr;
    /// Sync the log on every commit (full durability). False trades the
    /// durability of the most recent commits for fewer syncs; atomicity
    /// is unaffected.
    bool wal_sync_on_commit = true;
    /// True group commit (DESIGN.md §12): commits flush the log but defer
    /// the device sync to WalManager::WaitDurable, where concurrent
    /// committers share one leader fsync. Every mutating entry point still
    /// returns only after its commit is durable, so single-threaded
    /// callers keep full durability (at one sync per commit); the win
    /// appears when many sessions commit concurrently.
    bool wal_group_commit = false;
    /// Auto-checkpoint once the log exceeds this size (0 = only explicit
    /// Checkpoint() calls truncate the log).
    uint64_t wal_checkpoint_threshold_bytes = 0;

    /// Scan read-ahead window in pages (0 disables prefetching entirely).
    /// Read-ahead changes only *physical* I/O scheduling; the logical
    /// counters (IoStats::disk_reads / disk_writes) are identical for any
    /// window, so the paper's cost-model measurements are unaffected.
    uint32_t read_ahead_window = kDefaultReadAheadWindow;

    /// Worker threads for parallel read-query execution (DESIGN.md §10).
    /// 1 (the default) runs the original serial engine — no pool is
    /// created and no query code path changes. Values > 1 attach a
    /// fixed-size ThreadPool that ExecuteRead fans page-aligned OID
    /// ranges out over; the logical I/O counters stay identical to the
    /// serial plan. Mutations remain single-writer regardless.
    size_t worker_threads = 1;

    /// Engine-wide telemetry (DESIGN.md §11). The component-level
    /// instruments (pool shard hit/miss, WAL commit latency, replication
    /// propagation counters, ...) are always-on relaxed atomics; this
    /// flag only controls whether the database builds the
    /// MetricsRegistry/WorkloadProfiler that name and expose them.
    /// Telemetry never changes the logical I/O a query performs.
    bool enable_telemetry = true;
    /// Slow-query log threshold: read/update queries whose wall time
    /// reaches this many nanoseconds are traced and reported through
    /// `slow_query_hook` (or, with no hook, a one-line Summary() on
    /// stderr). 0 disables the slow-query log.
    uint64_t slow_query_ns = 0;
    /// Receives the QueryTrace of every slow query when set.
    std::function<void(const QueryTrace&)> slow_query_hook;
  };

  /// Opens a database. Never returns null on OK status.
  static Result<std::unique_ptr<Database>> Open(const Options& options);

  ~Database() override = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Schema ---------------------------------------------------------------

  /// `define type NAME (...)`.
  Status DefineType(TypeDescriptor type);
  /// `create Name: {own ref TYPE}`.
  Status CreateSet(const std::string& name, const std::string& type_name);
  /// `replicate Spec` with strategy options; returns the path id.
  Status Replicate(const std::string& spec, const ReplicateOptions& options,
                   uint16_t* path_id = nullptr);
  /// Drops a replication path by its original spec.
  Status DropReplication(const std::string& spec);
  /// `build btree NAME on Set.key` (plain attribute or replicated path).
  Status BuildIndex(const std::string& index_name, const std::string& set_name,
                    const std::string& key_expr, bool clustered = false);

  // --- Data -----------------------------------------------------------------

  Status Insert(const std::string& set_name, const Object& object, Oid* oid);
  Status Get(const std::string& set_name, const Oid& oid, Object* object);
  /// Updates one attribute by name (replication-consistent).
  Status Update(const std::string& set_name, const Oid& oid,
                const std::string& attr_name, const Value& value);
  Status Delete(const std::string& set_name, const Oid& oid);

  // --- Session transactions ---------------------------------------------------

  /// One explicit multi-statement transaction: its two-phase lock set,
  /// publish scope, and (once the first mutation runs) its WAL bracket.
  /// Created by BeginSessionTransaction on the calling thread; network
  /// sessions carry it across worker threads with
  /// Detach/AttachSessionTransaction. Opaque outside the Database.
  struct SessionTxn;

  /// Opens an explicit transaction bracket on the calling thread: every
  /// mutating call on this thread (or on whatever thread the transaction
  /// is attached to) until Commit/Abort joins one WAL transaction and
  /// accumulates per-set 2PL locks, which are held to commit/abort
  /// (strict two-phase locking, DESIGN.md §14). Requires WAL. Any number
  /// of session transactions may be open concurrently — disjoint lock
  /// sets proceed in parallel; conflicts block (ascending requests) or
  /// abort with a retryable Status::Aborted (descending, wait-or-die).
  Status BeginSessionTransaction();
  /// Commits the transaction attached to this thread and releases its
  /// locks. `commit_lsn` (optional) receives the LSN to pass to
  /// WaitWalDurable — in group-commit mode the commit returns before the
  /// log is synced.
  Status CommitSessionTransaction(uint64_t* commit_lsn = nullptr);
  /// Aborts the transaction attached to this thread and releases its
  /// locks. Redo-only logging keeps the partial in-memory effects: they
  /// are never logged, but once a checkpoint or an eviction writes their
  /// pages back they survive a restart (DESIGN.md §7).
  Status AbortSessionTransaction();
  /// Whether any explicit session transaction is open, on any thread.
  bool InSessionTransaction() const;

  /// Unbinds the calling thread's session transaction so another thread
  /// can continue it (the network server migrates sessions across its
  /// worker pool between statements). Null when none is attached. The
  /// locks stay held by the transaction while detached.
  SessionTxn* DetachSessionTransaction();
  /// Rebinds a detached session transaction to the calling thread.
  void AttachSessionTransaction(SessionTxn* txn);

  /// Non-blocking acquisition of the write-lock set for `set_name` (or,
  /// when null, the exclusive schema lock for DDL) on the calling
  /// thread's attached session transaction — the server's parking loop:
  /// kAcquired means the statement may run (every lock is now held and
  /// the statement's own blocking acquisition is a no-op); kWouldBlock
  /// means the caller should park the statement and retry after some
  /// transaction releases; kMustAbort means wait-or-die killed the
  /// transaction — abort it and have the client retry. Locks granted by
  /// earlier calls stay held in the WouldBlock case.
  Status TryLockSetForWrite(const std::string* set_name,
                            LockTable::TryOutcome* outcome);

  /// The per-set two-phase lock table (telemetry: conflict/wait counters).
  LockTable& lock_table() { return lock_table_; }

  /// Blocks until the WAL is durable through `lsn` (no-op without WAL or
  /// for lsn 0). Concurrent callers batch behind one leader fsync.
  Status WaitWalDurable(uint64_t lsn);

  // --- Queries ----------------------------------------------------------------

  Status Retrieve(const ReadQuery& query, ReadResult* result);
  Status Replace(const UpdateQuery& query, UpdateResult* result);
  /// Traced variants: `trace`, when non-null, receives the query's
  /// EXPLAIN ANALYZE (per-stage wall time and IoStats deltas, strategy
  /// choices, parallel fan-out). Traced queries also feed the slow-query
  /// log when they cross `Options::slow_query_ns`.
  Status Retrieve(const ReadQuery& query, ReadResult* result,
                  QueryTrace* trace);
  Status Replace(const UpdateQuery& query, UpdateResult* result,
                 QueryTrace* trace);

  // --- Measurement -------------------------------------------------------------

  /// Flushes all dirty pages and empties the buffer pool, then zeroes the
  /// I/O counters: the state the cost model assumes at the start of a
  /// query. Benchmarks call this before each measured query.
  Status ColdStart();
  IoStats io_stats() const { return pool_->stats(); }

  /// Resizes the read-query worker pool (1 detaches it and restores the
  /// serial engine). Callers must quiesce queries first; benchmarks use
  /// this to sweep a thread ladder over one populated database.
  Status SetWorkerThreads(size_t n);

  // --- Observability -----------------------------------------------------------

  /// The engine's metric registry; null when opened with
  /// `enable_telemetry = false`. All component counters (buffer pool,
  /// WAL, replication, thread pool, workload profiler) are attached as
  /// render-time collectors, so Collect() always reflects live state.
  MetricsRegistry* metrics() { return metrics_.get(); }
  /// The workload profiler (per-path dereference counts, per-field
  /// update/propagation rates); null when telemetry is disabled.
  WorkloadProfiler* profiler() { return profiler_.get(); }

  /// Snapshot of the workload profile — the §6 cost model's input,
  /// expressed in catalog terms. Empty when telemetry is disabled.
  WorkloadProfile Stats() const;

  /// Full metrics snapshot in Prometheus text exposition / JSON. Empty
  /// string when telemetry is disabled.
  std::string MetricsPrometheus() const;
  std::string MetricsJson() const;
  /// Writes MetricsJson() to `path` (the dump fieldrep_stats --snapshot
  /// re-renders offline).
  Status DumpMetricsJson(const std::string& path) const;

  // --- Persistence -------------------------------------------------------------

  /// Writes the catalog, file metadata, and index roots to the database
  /// header pages and flushes everything, so that Open() on the same
  /// backing file restores the full database (file-backed devices).
  /// Without WAL this is the only durability point; with WAL it
  /// additionally flushes the pool and truncates the log (fuzzy
  /// checkpoint).
  Status Checkpoint();

  /// Human-readable storage report: per-set and per-auxiliary-file record
  /// and page counts, index sizes, device pages, and buffer-pool state —
  /// the space-overhead picture Section 4.2 discusses.
  std::string StorageReport();

  // --- Integrity ---------------------------------------------------------------

  /// Verifies structural invariants bottom-up — page/slot structure and
  /// checksums, B+ tree ordering, catalog/object typing, replication
  /// mirrors (link objects, replica slots, S' files), WAL state — and
  /// appends findings to `report`. Read-only: nothing is repaired. The
  /// returned status reports checker failures only; corruption is
  /// expressed as findings (`report->ok()`). Used by fieldrep_fsck and by
  /// tests as a closing assertion.
  Status CheckIntegrity(const CheckOptions& options, CheckReport* report);
  Status CheckIntegrity(CheckReport* report);

  // --- Component access --------------------------------------------------------

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  BufferPool& pool() { return *pool_; }
  IndexManager& indexes() { return *indexes_; }
  ReplicationManager& replication() { return *replication_; }
  Executor& executor() { return *executor_; }
  /// Null when the database was opened without `enable_wal`.
  WalManager* wal() { return wal_.get(); }
  /// The log's backing device; null without `enable_wal`.
  StorageDevice* wal_device() { return wal_device_; }
  /// File ids of all auxiliary files (link sets, replica sets, output
  /// files) currently open, in id order.
  std::vector<FileId> AuxFileIds() const;
  /// What recovery did at Open (all zeros when WAL is off).
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  // --- SetProvider ---------------------------------------------------------------

  Result<ObjectSet*> GetSet(const std::string& name) override;
  Result<ObjectSet*> GetSetByFile(FileId file_id) override;
  Result<RecordFile*> GetAuxFile(FileId file_id) override;
  Result<RecordFile*> CreateAuxFile(FileId* file_id) override;

 private:
  Database() = default;

  /// Serializes everything Checkpoint persists beyond the catalog — file
  /// metadata for sets and auxiliary files, index tree roots, the output
  /// file id — from the *committed-state registry*, so the image never
  /// contains another live transaction's uncommitted metadata. The
  /// scratch output file is the one live read (under the executor's
  /// output lock).
  std::string EncodeState() const;
  /// Rebuilds sets, auxiliary files, and index trees from a checkpoint
  /// blob (after the catalog itself was decoded).
  Status DecodeState(class ByteReader* reader);
  /// Loads the checkpoint blob from the header page chain, if any.
  Status RestoreFromDevice();
  /// Serializes catalog + state into the meta page chain (page 0 header).
  /// With WAL enabled this runs inside every commit (pre-commit hook,
  /// under the WAL's commit mutex), so each committed transaction is
  /// self-describing after replay.
  Status WriteStateToMetaPages();

  /// Invokes the slow-query hook (or the default stderr line) when a
  /// traced query crossed the configured threshold.
  void MaybeLogSlowQuery(const QueryTrace& trace) const;

  // --- Write concurrency (DESIGN.md §14) -------------------------------------

  /// The session transaction attached to the calling thread (null when
  /// none; a thread holds at most one per database).
  SessionTxn* CurrentTxn() const;

  /// Runs one mutating operation under two-phase locking. When a session
  /// transaction is attached to this thread, the operation joins it: the
  /// lock set grows (held to the session's commit/abort), the session's
  /// WAL bracket opens lazily on this first mutation, and `fn` runs with
  /// commit and durability deferred. Otherwise the operation is its own
  /// transaction: acquire locks (schema shared + the replication
  /// closure's set locks in ascending id order — deadlock-free, never
  /// killed by wait-or-die), run `fn` inside a WAL bracket, commit,
  /// release, wait for group-commit durability, and opportunistically
  /// auto-checkpoint. `set_name == nullptr` is a DDL/maintenance
  /// operation and takes the schema lock exclusively, quiescing every
  /// writer. `wal_bracket = false` skips transaction bracketing and
  /// publication entirely (lock-only quiescence for ColdStart /
  /// SetWorkerThreads, whose bodies must not dirty pages).
  Status WriteOp(const std::string* set_name,
                 const std::function<Status()>& fn, bool wal_bracket = true);

  /// Schema lock shared, then the closure's set locks in ascending order.
  Status AcquireWriteLocks(SessionTxn* txn, const std::string& set_name);
  /// Schema lock exclusive (DDL, checkpoint, maintenance); marks the
  /// transaction's publish scope as everything.
  Status AcquireSchemaExclusive(SessionTxn* txn);

  /// The set of sets a write to `set_name` may touch, as lock id ->
  /// set name: the target set plus the *type-overlap closure* over
  /// replication paths — a path is relevant when its head set is already
  /// in the closure or any of its chain/terminal types overlaps the
  /// closure's types; a relevant path contributes its head set and every
  /// set whose element type appears in its chain, iterated to fixpoint.
  /// Conservative (type-level, not instance-level) but sound: any
  /// propagation triggered by the write stays inside the closure, and
  /// auxiliary files (link sets, S', indexes) are covered by their head
  /// set's exclusive lock. Caller holds the schema lock (shared or
  /// exclusive), so the catalog is stable.
  Status WriteLockClosure(const std::string& set_name,
                          std::map<uint32_t, std::string>* locks) const;

  /// Releases the transaction's locks, unlinks it from this thread, and
  /// frees it (explicit sessions only).
  void FinishSessionTxn(SessionTxn* txn);

  /// Copies the live metadata of the transaction's publish scope into the
  /// committed-state registry. Runs inside the WAL commit (precommit
  /// hook) for logged operations — serialized by the commit mutex, before
  /// the metadata image is encoded — and directly after `fn` for unlogged
  /// databases.
  void PublishCommittedState(SessionTxn* txn);
  /// Rebuilds the whole committed-state registry from live state (DDL
  /// publish-all, Open, and commits outside any tracked transaction).
  void RefreshAllCommitted();

  /// Best-effort checkpoint once the log crosses the configured
  /// threshold. Called after a committed operation released its locks;
  /// skipped (silently) while other transactions are live.
  void MaybeAutoCheckpoint();

  // Declaration order doubles as destruction order (reversed): the pool
  // must be torn down while the WAL manager it observes — and the devices
  // both of them write to — are still alive. The registry and profiler
  // come first (destroyed last): components hold raw pointers to the
  // profiler, and registry collectors capture component pointers.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<WorkloadProfiler> profiler_;
  StorageDevice* device_ = nullptr;
  StorageDevice* wal_device_ = nullptr;
  std::unique_ptr<StorageDevice> owned_device_;
  std::unique_ptr<StorageDevice> owned_wal_device_;
  std::unique_ptr<WalManager> wal_;
  std::unique_ptr<BufferPool> pool_;
  Catalog catalog_;
  std::map<std::string, std::unique_ptr<ObjectSet>> sets_ GUARDED_BY(maps_mu_);
  std::map<FileId, ObjectSet*> sets_by_file_ GUARDED_BY(maps_mu_);
  std::map<FileId, std::unique_ptr<RecordFile>> aux_files_
      GUARDED_BY(maps_mu_);
  std::unique_ptr<IndexManager> indexes_;
  std::unique_ptr<ReplicationManager> replication_;
  /// Declared before the executor that holds a raw pointer to it; the
  /// executor is destroyed first, and RunBatch is blocking, so no task
  /// can outlive a query — the join in ~ThreadPool finds an idle pool.
  std::unique_ptr<ThreadPool> workers_;
  std::unique_ptr<Executor> executor_;
  /// Per-set two-phase locks (DESIGN.md §14): writers hold the schema
  /// lock shared plus their closure's set locks exclusive; DDL,
  /// Checkpoint, and maintenance hold the schema lock exclusive. Readers
  /// take no set locks at all — snapshot reads stay non-blocking.
  LockTable lock_table_;
  /// Explicit session transactions currently open (any thread).
  std::atomic<int> open_sessions_{0};
  /// Guards the committed-state registry: the per-file metadata images of
  /// the most recent *committed* transaction touching each file. The
  /// WAL precommit hook encodes checkpoint blobs from these (not from
  /// live metadata), so one transaction's commit never embeds another
  /// live transaction's uncommitted record counts or page lists.
  mutable Mutex committed_mu_{LockRank::kCommittedState, "db.committed_mu"};
  std::map<std::string, std::string> committed_set_meta_
      GUARDED_BY(committed_mu_);
  std::map<FileId, std::string> committed_aux_meta_ GUARDED_BY(committed_mu_);
  std::map<std::string, std::string> committed_tree_meta_
      GUARDED_BY(committed_mu_);
  /// Guards the set/aux-file maps: readers resolving OIDs take it
  /// shared, CreateSet/CreateAuxFile/DecodeState take it unique.
  mutable SharedMutex maps_mu_{LockRank::kDatabaseMaps, "db.maps_mu"};
  /// Pages holding the most recent checkpoint blob (page 0 is the header).
  std::vector<PageId> meta_pages_;
  RecoveryStats recovery_stats_;
  /// Slow-query log configuration (from Options).
  uint64_t slow_query_ns_ = 0;
  std::function<void(const QueryTrace&)> slow_query_hook_;
};

}  // namespace fieldrep

#endif  // FIELDREP_DB_DATABASE_H_
