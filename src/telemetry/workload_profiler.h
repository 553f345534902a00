#ifndef FIELDREP_TELEMETRY_WORKLOAD_PROFILER_H_
#define FIELDREP_TELEMETRY_WORKLOAD_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/json.h"
#include "telemetry/metrics.h"

namespace fieldrep {

/// Read-side and propagation activity of one replication path, keyed by
/// the path's catalog spec ("Emp1.dept.name").
struct PathActivity {
  uint64_t read_queries = 0;  ///< Queries that projected/tested the path.
  uint64_t derefs = 0;        ///< Row-level dereferences through the path.
  uint64_t replica_rows = 0;  ///< Dereferences answered from a replica.
  uint64_t join_rows = 0;     ///< Dereferences answered by functional joins.
  uint64_t propagations = 0;  ///< Terminal updates propagated through it.
  uint64_t heads_touched = 0; ///< Head replica slots rewritten.
};

/// Update-side activity of one attribute, keyed "Set.attr".
struct FieldActivity {
  uint64_t updates = 0;       ///< UpdateField calls on the attribute.
  uint64_t propagations = 0;  ///< Updates that triggered replica fan-out.
};

/// \brief Snapshot of the profiler: the workload trace the §6 cost model
/// (and the ROADMAP's replication-tuning advisor) takes as input —
/// per-path dereference counts and per-field update/propagation rates,
/// in the catalog's own terms.
struct WorkloadProfile {
  std::map<std::string, PathActivity> paths;
  std::map<std::string, FieldActivity> fields;

  JsonValue ToJson() const;
  std::string ToString() const;
};

/// \brief Accumulates the workload profile. Recording is mutex-striped
/// per call but amortized: the executor records once per (query,
/// projection) with the row count, not once per row, so the lock is off
/// every per-object hot path. Thread-safe against concurrent readers and
/// the propagating writer.
class WorkloadProfiler {
 public:
  WorkloadProfiler() = default;
  WorkloadProfiler(const WorkloadProfiler&) = delete;
  WorkloadProfiler& operator=(const WorkloadProfiler&) = delete;

  /// A read query resolved `rows` values through `spec`; answered from a
  /// replica (`from_replica`) or by functional joins.
  void RecordPathRead(const std::string& spec, bool from_replica,
                      uint64_t rows);

  /// An update hit attribute "Set.attr"; `propagated` when replicas
  /// fanned out (or were queued) because of it.
  void RecordFieldUpdate(const std::string& field, bool propagated);

  /// A propagation through `spec` rewrote `heads` head slots.
  void RecordPropagation(const std::string& spec, uint64_t heads);

  WorkloadProfile Snapshot() const;
  void Reset();

  /// Registry collector: emits the per-path / per-field activity as
  /// labeled samples (dynamic label sets).
  void CollectMetrics(std::vector<MetricSample>* out) const;

 private:
  /// kProfiler is near-leaf: recording call sites hold engine locks
  /// (the closure's set X locks during propagation), and the profiler
  /// calls nothing back.
  mutable Mutex mu_{LockRank::kProfiler, "workload_profiler.mu"};
  WorkloadProfile profile_ GUARDED_BY(mu_);
};

}  // namespace fieldrep

#endif  // FIELDREP_TELEMETRY_WORKLOAD_PROFILER_H_
