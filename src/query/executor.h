#ifndef FIELDREP_QUERY_EXECUTOR_H_
#define FIELDREP_QUERY_EXECUTOR_H_

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/annotated_mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/index_manager.h"
#include "objects/set_provider.h"
#include "query/read_query.h"
#include "query/update_query.h"
#include "replication/replication_manager.h"
#include "telemetry/query_trace.h"

namespace fieldrep {

class WorkloadProfiler;

/// \brief Executes read and update queries.
///
/// Reads follow the paper's processing model (Section 6.5): descend the
/// index on the clause attribute (or scan when none exists), fetch the
/// selected head objects in sorted-OID order, answer path projections from
/// replicas when possible — eliminating functional joins — and otherwise
/// join level-by-level with per-level OID sorting, so that every page
/// needed by the join is read exactly once through the buffer pool (the
/// model's optimal-join assumption). Result tuples can be spooled to the
/// output file T.
///
/// Updates locate target objects the same way and route every assignment
/// through the ReplicationManager so replicated data stays consistent.
///
/// Parallel reads (DESIGN.md §10): every read stage is one loop body over
/// [begin, end) ranges of its sorted OID batch. When a worker pool with
/// more than one thread is attached (and the query has at least two
/// heads), the batch splits into page-aligned ranges that run
/// concurrently. Page alignment means no page is split across workers, so
/// with a buffer-resident pool the logical I/O counters (fetches, hits,
/// disk_reads) are identical to the serial plan's — each page costs one
/// disk_read plus hits regardless of which worker touches it first. With
/// no pool (or one thread) each stage is the single range [0, n), run
/// inline on the query thread.
class Executor {
 public:
  Executor(Catalog* catalog, SetProvider* sets, IndexManager* indexes,
           ReplicationManager* replication);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// `trace`, when non-null, is filled with the query's EXPLAIN ANALYZE:
  /// per-stage wall time and pool-level IoStats deltas (telescoping, so
  /// stage deltas sum exactly to the query total), row counts, strategy
  /// choices, and parallel fan-out. Tracing reads the shared pool
  /// counters only at stage boundaries — it never changes what I/O the
  /// query performs.
  Status ExecuteRead(const ReadQuery& query, ReadResult* result,
                     QueryTrace* trace = nullptr);
  Status ExecuteUpdate(const UpdateQuery& query, UpdateResult* result,
                       QueryTrace* trace = nullptr);

  /// Attaches (or detaches, with nullptr) the worker pool parallel reads
  /// run on. Not thread-safe: call while no query is executing.
  void set_worker_pool(ThreadPool* pool) { workers_ = pool; }
  /// Attaches the workload profiler; per-path read recording (once per
  /// query and projection, with the row count) is a no-op when null.
  void set_profiler(WorkloadProfiler* profiler) { profiler_ = profiler; }

  /// Lazily creates the output file T; called automatically by reads with
  /// write_output.
  Status EnsureOutputFile();
  /// Clears the output file (call before measuring a query's I/O so old
  /// pages are not rewritten into the measurement).
  Status TruncateOutput();
  Result<RecordFile*> output_file();
  /// Checkpoint support.
  FileId output_file_id() const {
    return output_file_id_.load(std::memory_order_acquire);
  }
  void restore_output_file_id(FileId id) {
    output_file_id_.store(id, std::memory_order_release);
  }
  /// Serialized metadata of the output file, with its id stored into
  /// `file_id` (kInvalidFileId, with an empty string, when no output file
  /// exists yet). Both are read under the output lock so a concurrent
  /// spooling reader cannot tear the pair. Checkpoint support (the output
  /// file is scratch state, excluded from the committed-metadata
  /// registry).
  std::string EncodeOutputMetadata(FileId* file_id);

 private:
  struct ColumnPlan {
    enum class Kind { kAttr, kReplica, kJoin };
    Kind kind = Kind::kAttr;
    int attr_index = -1;                        // kAttr
    const ReplicationPathInfo* path = nullptr;  // kReplica / replica-start join
    int replica_pos = -1;  // index into the path's terminal values
    int start_attr = -1;   // kJoin without replica start: head ref attribute
    /// Attribute indices applied to successively fetched objects; all but
    /// the last must be refs, the last produces the column value.
    std::vector<int> hop_attrs;

    /// The in-place replica value this plan reads from `head` (an in-place
    /// kReplica, or a kJoin with a replicated prefix); null when absent.
    const Value* InPlaceValue(const Object& head) const {
      const ReplicaValueSlot* slot = head.FindReplicaValues(path->id);
      if (slot == nullptr ||
          replica_pos >= static_cast<int>(slot->values.size())) {
        return nullptr;
      }
      return &slot->values[replica_pos];
    }
    /// The first object a kJoin plan visits; invalid on a null reference.
    Oid JoinStart(const Object& head) const {
      const Value* v =
          path != nullptr ? InPlaceValue(head) : &head.field(start_attr);
      return v != nullptr && v->is_ref() ? v->as_ref() : Oid::Invalid();
    }
  };

  /// A predicate bound together with the plan that produces the value it
  /// tests: a plain attribute, a replica slot, or a reference-path
  /// resolution (Section 3.3.4's clause on Emp1.dept.org.name).
  struct BoundClause {
    BoundPredicate predicate;
    ColumnPlan plan;
  };

  Status PlanColumn(const ObjectSet& set, const std::string& set_name,
                    bool use_replication, const std::string& projection,
                    ColumnPlan* plan) const;

  /// Resolves one column value for a fetched head object. Join columns are
  /// resolved eagerly with per-object reads (used for predicate evaluation;
  /// projections batch joins instead).
  Result<Value> EvaluateColumn(const ColumnPlan& plan,
                               const Object& head) const;

  /// Reads the separate replica record at `oid` in `file` (a path's S'
  /// file) and returns its value at `pos`; null when absent.
  static Result<Value> ReadReplicaValue(RecordFile* file, const Oid& oid,
                                        int pos);

  Status BindClause(const ObjectSet& set, const std::string& set_name,
                    bool use_replication, const Predicate& predicate,
                    BoundClause* clause) const;

  /// Resolves candidate OIDs for the clause: index range scan when an index
  /// exists on the clause expression, full scan otherwise. Candidates come
  /// back sorted; `needs_recheck` says whether the predicate must be
  /// re-evaluated against the fetched objects.
  Status CollectTargets(ObjectSet* set,
                        const std::optional<Predicate>& predicate,
                        const std::string& set_name, bool use_replication,
                        bool* used_index, bool* needs_recheck,
                        std::optional<BoundClause>* clause,
                        std::vector<Oid>* oids);

  Status ReadObjectAt(const Oid& oid, Object* object,
                      ObjectSet** set_out = nullptr) const;

  /// Stages 0–2 of ExecuteRead: heads, separate replicas, join hops.
  /// Each stage runs one loop body over page-aligned ranges of its sorted
  /// OIDs — one inline range without a parallel plan, one pool task per
  /// range with one. `tracer` brackets the stages (no-op when untraced);
  /// `trace`, when non-null, gets the parallel fan-out.
  Status RunReadStages(ReadResult* result, ObjectSet* set,
                       const std::vector<ColumnPlan>& plans,
                       bool needs_recheck,
                       const std::optional<BoundClause>& clause,
                       const std::vector<Oid>& oids, StageTracer* tracer,
                       QueryTrace* trace);

  Status EnsureOutputFileLocked() REQUIRES(output_mu_);
  Result<RecordFile*> OutputFileLocked() REQUIRES(output_mu_);

  Catalog* catalog_;
  SetProvider* sets_;
  IndexManager* indexes_;
  ReplicationManager* replication_;
  /// The output file id is written under output_mu_ but read by
  /// unsynchronized checkpoint paths, so it is atomic on top.
  std::atomic<FileId> output_file_id_{kInvalidFileId};
  ThreadPool* workers_ = nullptr;
  /// Serializes output-file creation, truncation, and stage-3 spooling —
  /// the only mutating steps of a read query. Readers of other files
  /// never take it; writers never touch the output file.
  mutable Mutex output_mu_{LockRank::kExecutorOutput, "executor.output_mu"};
  WorkloadProfiler* profiler_ = nullptr;
};

}  // namespace fieldrep

#endif  // FIELDREP_QUERY_EXECUTOR_H_
