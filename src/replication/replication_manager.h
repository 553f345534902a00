#ifndef FIELDREP_REPLICATION_REPLICATION_MANAGER_H_
#define FIELDREP_REPLICATION_REPLICATION_MANAGER_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "check/check_report.h"
#include "common/status.h"
#include "index/index_manager.h"
#include "objects/object.h"
#include "objects/set_provider.h"
#include "replication/inverted_path.h"

namespace fieldrep {

class BufferPool;
class WalManager;
class WorkloadProfiler;
struct MetricSample;

/// Options for `replicate <path>` (Sections 4, 5, 4.3).
struct ReplicateOptions {
  ReplicationStrategy strategy = ReplicationStrategy::kInPlace;
  /// Collapse the inverted path to one level (Section 4.3.3). In-place,
  /// 2-level paths only.
  bool collapsed = false;
  /// Inline link objects with at most this many members (Section 4.3.1);
  /// 0 disables. Applies to links first created by this path.
  uint32_t inline_threshold = 1;
  /// Cluster the link objects of different levels of this path into one
  /// link file, grouped by terminal chain (Section 4.3.2: avoid the two
  /// I/Os of reading L_O and L_D from different sets by keeping them
  /// together). In-place, non-collapsed paths of 2+ levels only, and the
  /// path must not share links with existing paths (the clustering
  /// conflict the paper leaves "for future study" is resolved here by
  /// simply refusing to share).
  bool cluster_links = false;
};

/// \brief The replication engine: creates and drops replication paths and
/// performs every object mutation so that replicated values, link objects,
/// inverted paths, and replica files stay consistent.
///
/// All data mutations on sets that may participate in replication must go
/// through InsertObject / DeleteObject / UpdateField(s); Database's public
/// API routes them here. Query execution reads replicas through
/// ReadReplicatedValues.
///
/// One schema restriction (documented in DESIGN.md): separate replication
/// of a path whose terminal type equals the head set's element type is
/// rejected, because head-side and terminal-side replica bookkeeping would
/// collide on the same object.
class ReplicationManager {
 public:
  /// \param indexes may be null (no index maintenance).
  ReplicationManager(Catalog* catalog, SetProvider* sets,
                     IndexManager* indexes);

  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// Attaches a write-ahead log. Every mutating entry point then runs as
  /// one transaction, so an entire inverted-path propagation — head slots,
  /// link objects, replica records, indexes — commits atomically. Null
  /// detaches (operations run unlogged, as before).
  void set_wal(WalManager* wal) { wal_ = wal; }

  /// Attaches the buffer pool so propagation fan-out can batch-prefetch
  /// the pages of head/frontier OID sets before reading them. Null (the
  /// default) disables propagation read-ahead.
  void set_pool(BufferPool* pool) { pool_ = pool; }

  /// Attaches the workload profiler; per-path / per-field activity
  /// recording is a no-op when null (the default).
  void set_profiler(WorkloadProfiler* profiler) { profiler_ = profiler; }

  /// Always-on propagation activity counters (relaxed atomics, read-any-
  /// time; exact when the single writer is quiesced).
  struct Telemetry {
    uint64_t propagations = 0;     ///< Terminal-value fan-outs executed.
    uint64_t heads_updated = 0;    ///< Head replica slots rewritten.
    uint64_t link_traversals = 0;  ///< Link-object member expansions.
    uint64_t separate_replica_writes = 0;  ///< Shared S' record updates.
  };
  Telemetry telemetry() const;

  /// Appends this manager's metric samples (the Telemetry counters) to
  /// `out`.
  void CollectMetrics(std::vector<MetricSample>* out) const;

  // --- Path lifecycle --------------------------------------------------------

  /// `replicate <spec>`: binds the path, assigns its link sequence (sharing
  /// links with existing paths that have a common prefix, Section 4.1.4),
  /// creates link sets / the S' replica set, and bulk-builds the hidden
  /// state for every existing head object.
  Status CreatePath(const std::string& spec, const ReplicateOptions& options,
                    uint16_t* path_id);

  /// Removes a path: strips hidden slots from heads, unwinds unshared
  /// links, deletes private link sets and the replica set.
  Status DropPath(uint16_t path_id);

  // --- Data mutations --------------------------------------------------------

  /// Inserts `object` into `set_name`, enforcing referential integrity of
  /// its ref attributes and performing the `insert E` maintenance of
  /// Section 4.1.1 for every path headed at the set.
  Status InsertObject(const std::string& set_name, const Object& object,
                      Oid* oid);

  /// Deletes the object, performing the `delete E` maintenance of
  /// Section 4.1.1. Deleting an object that is still referenced on some
  /// replication path (it owns link objects) or whose replica record is
  /// still shared fails with FailedPrecondition — the paper's assumption
  /// that "D can be deleted only when it is not referenced".
  Status DeleteObject(const std::string& set_name, const Oid& oid);

  /// Updates one field, propagating to replicas: scalar terminal fields
  /// propagate values (in-place: to every head through the inverted path;
  /// separate: to the shared S' record); reference attributes trigger the
  /// `update E.dept` link surgery of Sections 4.1.1/4.1.2/5.2.
  Status UpdateField(const std::string& set_name, const Oid& oid,
                     int attr_index, const Value& value);

  /// Batched multi-field update (one base-object write).
  Status UpdateFields(const std::string& set_name, const Oid& oid,
                      const std::vector<std::pair<int, Value>>& updates);

  // --- Query support ---------------------------------------------------------

  /// Values of the path's replicated terminal fields for `head`, read from
  /// the replica: in-place paths cost no I/O; separate paths read one S'
  /// record. Values align with `path.bound.terminal_fields`; broken chains
  /// yield nulls.
  Status ReadReplicatedValues(const ReplicationPathInfo& path,
                              const Object& head,
                              std::vector<Value>* values) const;

  /// Finds the longest in-place... see Executor; exposed for planning:
  /// the replication path (any strategy) exactly matching `spec`, or null.
  const ReplicationPathInfo* FindPath(const std::string& spec) const {
    return catalog_->FindPathBySpec(spec);
  }

  // --- Inverse functions (Section 8 future work) --------------------------------

  /// The objects of `referencing_set` whose `ref_attr` references `target`
  /// — the paper's "inverted paths ... used ... in implementing inverse
  /// functions (or bidirectional reference attributes)". Answered from the
  /// level-1 link object when a replication path maintains one (no scan);
  /// falls back to a set scan otherwise. `*via_link` reports which.
  Status FindReferencers(const std::string& referencing_set,
                         const std::string& ref_attr, const Oid& target,
                         std::vector<Oid>* referencers,
                         bool* via_link = nullptr);

  InvertedPathOps& ops() { return ops_; }

  // --- Introspection / verification -----------------------------------------

  /// Recomputes every head's replicated values by forward traversal and
  /// compares with the stored replicas; verifies link-object membership
  /// both ways. Inconsistencies are appended to `report` as kReplication
  /// findings and checking continues; the returned status is non-OK only
  /// when the traversal itself cannot run. Read-only. Used by
  /// IntegrityChecker.
  Status VerifyPathToReport(uint16_t path_id, CheckReport* report);

  /// First-failure wrapper over VerifyPathToReport for tests: fails with
  /// Internal on the first error finding.
  Status VerifyPathConsistency(uint16_t path_id);

 private:
  struct MutationContext;

  // Path bookkeeping helpers (replication_manager.cc).
  /// Builds the hidden state for every existing head at path creation,
  /// materializing link objects and replica records in *target-set
  /// physical order* — "the link objects for Dept are stored in the same
  /// physical order as the objects in Dept which reference them"
  /// (Section 4.1), and likewise for S' (Section 5).
  Status BulkBuildPath(const ReplicationPathInfo& path,
                       const std::vector<Oid>& heads);
  Status BuildChain(const ReplicationPathInfo& path, const Oid& head_oid,
                    MutationContext* ctx, std::vector<Oid>* chain);
  Status AddHeadToPath(const ReplicationPathInfo& path, const Oid& head_oid,
                       Object* head_obj, MutationContext* ctx);
  Status RemoveHeadFromPath(const ReplicationPathInfo& path,
                            const Oid& head_oid, Object* head_obj,
                            MutationContext* ctx);
  Status HandleRefUpdate(const std::string& set_name, const Oid& oid,
                         Object* object, int attr_index, const Value& value,
                         MutationContext* ctx);
  Status ReadTerminalValues(const ReplicationPathInfo& path,
                            const Oid& terminal_oid, MutationContext* ctx,
                            std::vector<Value>* values);
  Status EnsureReplica(const ReplicationPathInfo& path,
                       const Oid& terminal_oid, Object* terminal_obj,
                       uint32_t new_refs, Oid* replica_oid);
  Status ReleaseReplica(const ReplicationPathInfo& path,
                        const Oid& terminal_oid, Object* terminal_obj,
                        uint32_t released_refs);

  // Propagation (propagation.cc).
  /// Heads (sorted, deduped) that reach the object at `level` via the
  /// path's links `level`..1.
  Status CollectHeadsFromLevel(const ReplicationPathInfo& path,
                               uint16_t level, const Oid& oid,
                               MutationContext* ctx, std::vector<Oid>* heads);
  /// Scalar/terminal-value propagation after `attr_index` of a terminal
  /// object changed (Section 4.1.3 decides *when* from the link IDs /
  /// replica slots stored in the object itself). `propagated`, when
  /// non-null, reports whether any replica work happened (fan-out or S'
  /// write) — the workload profiler's per-field signal.
  Status PropagateTerminalValue(const std::string& set_name, const Oid& oid,
                                Object* object, int attr_index,
                                MutationContext* ctx,
                                bool* propagated = nullptr);
  /// Rewrites the replica slot of each head with `values` (in-place paths).
  Status UpdateHeadSlots(const ReplicationPathInfo& path,
                         const std::vector<Oid>& heads,
                         const std::vector<Value>& values, int value_pos,
                         MutationContext* ctx);
  /// Repoints each head's ReplicaRefSlot to `replica_oid` (separate paths).
  Status RepointHeadRefs(const ReplicationPathInfo& path,
                         const std::vector<Oid>& heads, const Oid& replica_oid,
                         MutationContext* ctx);

  Status CheckReferentialIntegrity(const TypeDescriptor& type,
                                   const Object& object) const;

  Catalog* catalog_;
  SetProvider* sets_;
  IndexManager* indexes_;
  WalManager* wal_ = nullptr;
  BufferPool* pool_ = nullptr;
  WorkloadProfiler* profiler_ = nullptr;
  InvertedPathOps ops_;

  /// See Telemetry.
  std::atomic<uint64_t> propagations_{0};
  std::atomic<uint64_t> heads_updated_{0};
  std::atomic<uint64_t> link_traversals_{0};
  std::atomic<uint64_t> separate_replica_writes_{0};
};

}  // namespace fieldrep

#endif  // FIELDREP_REPLICATION_REPLICATION_MANAGER_H_
