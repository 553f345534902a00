#ifndef FIELDREP_TELEMETRY_QUERY_TRACE_H_
#define FIELDREP_TELEMETRY_QUERY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "storage/io_stats.h"

namespace fieldrep {

class BufferPool;

/// One stage of a traced query: its wall time, the pool-level IoStats
/// delta it caused, and how many items (OIDs, pending entries, rows) it
/// processed.
struct QueryStageTrace {
  std::string name;
  uint64_t wall_ns = 0;
  IoStats io;
  uint64_t items = 0;
};

/// \brief EXPLAIN ANALYZE for one query.
///
/// Filled by Executor::ExecuteRead / ExecuteUpdate when the caller passes
/// a trace object (Database::Retrieve/Replace overloads, or implicitly
/// when `Options::slow_query_ns` arms the slow-query log). Stage
/// snapshots telescope: each stage's `io` is the pool counter delta
/// between consecutive boundaries, so the per-stage deltas always sum to
/// the query's total `io` exactly.
struct QueryTrace {
  enum class Kind { kRead, kUpdate };

  Kind kind = Kind::kRead;
  std::string set_name;
  uint64_t wall_ns = 0;
  IoStats io;  ///< Pool-level delta across the whole query.
  uint64_t rows = 0;
  bool used_index = false;
  /// Page-aligned ranges the head stage fanned out over (0 = serial plan).
  uint64_t parallel_ranges = 0;
  /// Per-projection strategy ("attr", "replica-inplace", "replica-separate",
  /// "join"), aligned with the query's projections; for updates, the
  /// assigned attribute names.
  std::vector<std::string> strategies;
  std::vector<QueryStageTrace> stages;

  /// Buffer hit ratio of the whole query (hits / fetches; 1.0 when the
  /// query touched no pages).
  double hit_ratio() const {
    return io.fetches == 0
               ? 1.0
               : static_cast<double>(io.hits) /
                     static_cast<double>(io.fetches);
  }

  /// One-line form — the slow-query log format.
  std::string Summary() const;
  /// Multi-line EXPLAIN ANALYZE rendering.
  std::string ToString() const;
  JsonValue ToJson() const;
};

/// \brief Stage bracketing helper for the executor.
///
/// Construction snapshots the pool counters and the clock; each
/// EndStage() closes the current bracket (recording the delta since the
/// previous boundary) and opens the next; Finish() stamps the query-level
/// totals. A null trace makes every call a no-op, so untraced queries pay
/// nothing. Stage boundaries must be quiesced points (the executor's
/// stages end at RunBatch barriers), or the deltas would smear across
/// stages — they would still telescope to the correct total.
class StageTracer {
 public:
  StageTracer(QueryTrace* trace, BufferPool* pool);

  bool active() const { return trace_ != nullptr; }

  /// Closes the current stage bracket as `name` with `items` processed.
  void EndStage(const std::string& name, uint64_t items = 0);

  /// Stamps query totals (wall time + total IoStats delta).
  void Finish();

 private:
  IoStats PoolStats() const;

  QueryTrace* trace_ = nullptr;
  BufferPool* pool_ = nullptr;
  uint64_t query_start_ns_ = 0;
  IoStats query_start_io_;
  uint64_t stage_start_ns_ = 0;
  IoStats stage_start_io_;
};

}  // namespace fieldrep

#endif  // FIELDREP_TELEMETRY_QUERY_TRACE_H_
