#include <algorithm>
#include <functional>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>

#include "common/bytes.h"
#include "common/strings.h"
#include "query/executor.h"
#include "replication/link_object.h"
#include "telemetry/workload_profiler.h"

namespace fieldrep {

namespace {
/// Record tag for output-file tuples (distinct from object type tags and
/// the RecordFile relocation stubs).
constexpr uint16_t kOutputRecordTag = 0xFF02;

std::string SerializeOutputRow(const std::vector<Value>& row, uint32_t pad) {
  std::string out;
  PutU16(&out, kOutputRecordTag);
  PutU16(&out, static_cast<uint16_t>(row.size()));
  for (const Value& v : row) EncodeTaggedValue(v, &out);
  if (out.size() < pad) out.resize(pad, '\0');
  return out;
}

Oid RefOrInvalid(const Value& v) {
  return v.is_ref() ? v.as_ref() : Oid::Invalid();
}

/// A read queued by an earlier stage: fill result row `row` from `oid`
/// (a separate replica record, or the next object of a join).
struct Pending {
  size_t row;
  Oid oid;
};

constexpr auto kByOid = [](const Pending& a, const Pending& b) {
  return a.oid < b.oid;
};

using Range = std::pair<size_t, size_t>;

/// Appends `src` to `dst`, by a swap while `dst` is still empty, so that
/// merging a single range moves and copies nothing.
template <typename T>
void Concat(std::vector<T>* dst, std::vector<T>* src) {
  if (dst->empty()) {
    dst->swap(*src);
  } else {
    dst->insert(dst->end(), std::make_move_iterator(src->begin()),
                std::make_move_iterator(src->end()));
  }
}

/// Read-ahead: every stage visits its items in sorted (physical) order,
/// so each [begin, end) slice is announced to the pool a window at a
/// time. Prefetching is best-effort — a failed batch falls back to the
/// on-demand reads, which also keep the logical I/O counters exact.
struct ReadAhead {
  BufferPool* pool;
  uint32_t window;

  /// Called before item `i`; prefetches at each window boundary.
  template <typename Item, typename OidOf>
  void At(const std::vector<Item>& items, size_t begin, size_t i, size_t end,
          OidOf oid_of) const {
    if (window == 0 || (i - begin) % window != 0) return;
    const size_t ahead = std::min<size_t>(window, end - i);
    if constexpr (std::is_same_v<Item, Oid>) {
      (void)pool->PrefetchOidPages(
          std::span<const Oid>(items.data() + i, ahead));
    } else {
      std::vector<Oid> batch;
      batch.reserve(ahead);
      for (size_t j = i; j < i + ahead; ++j) {
        batch.push_back(std::invoke(oid_of, items[j]));
      }
      (void)pool->PrefetchOidPages(batch);
    }
  }
};

/// Runs a read stage's loop body over the stage's sorted items. Without a
/// parallel plan (`workers` null) a stage is the one range [0, n) and the
/// body runs inline on the query thread. With one, the items split into
/// page-aligned ranges, one pool task each; RunBatch is the stage barrier,
/// so the tracer's pool snapshots at stage boundaries are quiesced.
class StageRunner {
 public:
  explicit StageRunner(ThreadPool* workers) : workers_(workers) {}

  bool parallel() const { return workers_ != nullptr; }

  /// Splits `n` sorted items into at most one range per worker without
  /// splitting a page across ranges: a range boundary is moved forward
  /// while the item before it addresses the same page. With a
  /// buffer-resident pool this makes the logical I/O counters independent
  /// of which worker processes which range — every page is fetched by
  /// exactly one range's access stream plus single-flight-deduplicated
  /// concurrent hits.
  template <typename PageOf>
  std::vector<Range> Split(size_t n, PageOf page_of) const {
    if (workers_ == nullptr) return {{0, n}};
    std::vector<Range> ranges;
    const size_t target = (n + workers_->size() - 1) / workers_->size();
    for (size_t start = 0; start < n;) {
      size_t end = std::min(start + target, n);
      while (end < n && page_of(end) == page_of(end - 1)) ++end;
      ranges.emplace_back(start, end);
      start = end;
    }
    return ranges;
  }

  /// Calls `body(r, begin, end)` for every range; returns the first error
  /// in range order.
  template <typename Body>
  Status Run(const std::vector<Range>& ranges, const Body& body) const {
    if (workers_ == nullptr) {
      return body(size_t{0}, ranges[0].first, ranges[0].second);
    }
    std::vector<Status> statuses(ranges.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(ranges.size());
    for (size_t r = 0; r < ranges.size(); ++r) {
      tasks.emplace_back([&, r] {
        statuses[r] = body(r, ranges[r].first, ranges[r].second);
      });
    }
    workers_->RunBatch(std::move(tasks));
    for (const Status& s : statuses) FIELDREP_RETURN_IF_ERROR(s);
    return Status::OK();
  }

 private:
  ThreadPool* workers_;
};
}  // namespace

Status Executor::RunReadStages(ReadResult* result, ObjectSet* set,
                               const std::vector<ColumnPlan>& plans,
                               bool needs_recheck,
                               const std::optional<BoundClause>& clause,
                               const std::vector<Oid>& oids,
                               StageTracer* tracer, QueryTrace* trace) {
  // A parallel plan needs a pool of at least two workers and at least two
  // heads to split.
  const StageRunner runner(
      workers_ != nullptr && workers_->size() > 1 && oids.size() > 1
          ? workers_
          : nullptr);
  const ReadAhead read_ahead{set->file().pool(),
                             set->file().pool()->read_ahead_window()};

  // Stage 0: fetch head objects in physical order; evaluate attribute and
  // in-place-replica columns; queue separate-replica reads and joins. Each
  // range collects its rows and queued reads with range-local row indices,
  // and the merge concatenates the ranges in order, so rows come out in
  // sorted-OID order whatever the split.
  struct HeadsOut {
    std::vector<std::vector<Value>> rows;
    uint64_t heads = 0;
    std::vector<std::vector<Pending>> replicas;
    std::vector<std::vector<Pending>> joins;
  };
  const std::vector<Range> head_ranges =
      runner.Split(oids.size(), [&](size_t i) { return oids[i].page_id; });
  if (trace != nullptr && runner.parallel()) {
    trace->parallel_ranges = head_ranges.size();
  }
  std::vector<HeadsOut> heads(head_ranges.size());
  FIELDREP_RETURN_IF_ERROR(runner.Run(
      head_ranges, [&](size_t r, size_t begin, size_t end) -> Status {
        HeadsOut& out = heads[r];
        out.replicas.resize(plans.size());
        out.joins.resize(plans.size());
        for (size_t i = begin; i < end; ++i) {
          read_ahead.At(oids, begin, i, end, std::identity());
          Object object;
          FIELDREP_RETURN_IF_ERROR(set->Read(oids[i], &object));
          if (needs_recheck && clause.has_value()) {
            FIELDREP_ASSIGN_OR_RETURN(Value value,
                                      EvaluateColumn(clause->plan, object));
            FIELDREP_ASSIGN_OR_RETURN(bool match,
                                      clause->predicate.Matches(value));
            if (!match) continue;
          }
          ++out.heads;
          const size_t row_index = out.rows.size();
          std::vector<Value> row(plans.size(), Value::Null());
          for (size_t c = 0; c < plans.size(); ++c) {
            const ColumnPlan& plan = plans[c];
            switch (plan.kind) {
              case ColumnPlan::Kind::kAttr:
                row[c] = object.field(plan.attr_index);
                break;
              case ColumnPlan::Kind::kReplica:
                if (plan.path->strategy == ReplicationStrategy::kInPlace) {
                  if (const Value* v = plan.InPlaceValue(object)) row[c] = *v;
                } else if (const ReplicaRefSlot* slot =
                               object.FindReplicaRef(plan.path->id)) {
                  out.replicas[c].push_back({row_index, slot->replica_oid});
                }
                break;
              case ColumnPlan::Kind::kJoin:
                // With a replicated prefix the first hop's OID comes from
                // the hidden replica slot at zero I/O cost.
                if (Oid start = plan.JoinStart(object); start.valid()) {
                  out.joins[c].push_back({row_index, start});
                }
                break;
            }
          }
          out.rows.push_back(std::move(row));
        }
        return Status::OK();
      }));
  std::vector<std::vector<Pending>> pending_replicas(plans.size());
  std::vector<std::vector<Pending>> pending_joins(plans.size());
  for (HeadsOut& out : heads) {
    const size_t base = result->rows.size();
    auto merge = [base](std::vector<Pending>* dst, std::vector<Pending>* src) {
      if (base != 0) {
        for (Pending& p : *src) p.row += base;
      }
      Concat(dst, src);
    };
    result->heads_scanned += out.heads;
    Concat(&result->rows, &out.rows);
    for (size_t c = 0; c < plans.size(); ++c) {
      merge(&pending_replicas[c], &out.replicas[c]);
      merge(&pending_joins[c], &out.joins[c]);
    }
  }
  tracer->EndStage("heads", oids.size());

  // Stage 1: separate-replica columns, sorted by replica OID so the S'
  // file is read in clustered order. Each entry writes its own result
  // cell, so ranges touch disjoint memory.
  uint64_t replica_reads = 0;
  for (size_t c = 0; c < plans.size(); ++c) {
    std::vector<Pending>& pending = pending_replicas[c];
    if (pending.empty()) continue;
    const ColumnPlan& plan = plans[c];
    std::sort(pending.begin(), pending.end(), kByOid);
    FIELDREP_ASSIGN_OR_RETURN(
        RecordFile * file, sets_->GetAuxFile(plan.path->replica_set_file));
    FIELDREP_RETURN_IF_ERROR(runner.Run(
        runner.Split(pending.size(),
                     [&](size_t i) { return pending[i].oid.page_id; }),
        [&](size_t, size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) {
            read_ahead.At(pending, begin, i, end, &Pending::oid);
            FIELDREP_ASSIGN_OR_RETURN(
                result->rows[pending[i].row][c],
                ReadReplicaValue(file, pending[i].oid, plan.replica_pos));
          }
          return Status::OK();
        }));
    replica_reads += pending.size();
  }
  tracer->EndStage("replicas", replica_reads);

  // Stage 2: functional joins, level by level. Each level sorts the
  // frontier (the optimal-join discipline of Section 6.2) and
  // concatenates the ranges' next-level entries in range order; the next
  // level re-sorts, so the split never affects the outcome.
  uint64_t join_reads = 0;
  for (size_t c = 0; c < plans.size(); ++c) {
    if (pending_joins[c].empty()) continue;
    const ColumnPlan& plan = plans[c];
    std::vector<Pending> frontier = std::move(pending_joins[c]);
    for (size_t hop = 0; hop < plan.hop_attrs.size(); ++hop) {
      const bool last = hop + 1 == plan.hop_attrs.size();
      std::sort(frontier.begin(), frontier.end(), kByOid);
      const std::vector<Range> ranges = runner.Split(
          frontier.size(), [&](size_t i) { return frontier[i].oid.page_id; });
      std::vector<std::vector<Pending>> nexts(ranges.size());
      FIELDREP_RETURN_IF_ERROR(runner.Run(
          ranges, [&](size_t r, size_t begin, size_t end) -> Status {
            for (size_t i = begin; i < end; ++i) {
              read_ahead.At(frontier, begin, i, end, &Pending::oid);
              Object target;
              FIELDREP_RETURN_IF_ERROR(ReadObjectAt(frontier[i].oid, &target));
              const Value& v = target.field(plan.hop_attrs[hop]);
              if (last) {
                result->rows[frontier[i].row][c] = v;
              } else if (Oid next = RefOrInvalid(v); next.valid()) {
                nexts[r].push_back({frontier[i].row, next});
              }
            }
            return Status::OK();
          }));
      join_reads += frontier.size();
      frontier.clear();
      for (std::vector<Pending>& next : nexts) Concat(&frontier, &next);
    }
  }
  tracer->EndStage("joins", join_reads);
  return Status::OK();
}

Status Executor::ExecuteRead(const ReadQuery& query, ReadResult* result,
                             QueryTrace* trace) {
  *result = ReadResult();
  FIELDREP_ASSIGN_OR_RETURN(ObjectSet * set, sets_->GetSet(query.set_name));
  StageTracer tracer(trace, set->file().pool());
  if (trace != nullptr) {
    trace->kind = QueryTrace::Kind::kRead;
    trace->set_name = query.set_name;
  }

  // Plan projections.
  std::vector<ColumnPlan> plans;
  plans.reserve(query.projections.size());
  for (const std::string& projection : query.projections) {
    ColumnPlan plan;
    FIELDREP_RETURN_IF_ERROR(PlanColumn(*set, query.set_name,
                                        query.use_replication, projection,
                                        &plan));
    plans.push_back(std::move(plan));
  }
  result->access.reserve(plans.size());
  for (const ColumnPlan& plan : plans) {
    switch (plan.kind) {
      case ColumnPlan::Kind::kAttr:
        result->access.push_back(ReadResult::Access::kAttribute);
        break;
      case ColumnPlan::Kind::kReplica:
        result->access.push_back(
            plan.path->strategy == ReplicationStrategy::kInPlace
                ? ReadResult::Access::kReplicaInPlace
                : ReadResult::Access::kReplicaSeparate);
        break;
      case ColumnPlan::Kind::kJoin:
        result->access.push_back(ReadResult::Access::kJoin);
        break;
    }
  }
  if (trace != nullptr) {
    trace->strategies.reserve(result->access.size());
    for (ReadResult::Access a : result->access) {
      switch (a) {
        case ReadResult::Access::kAttribute:
          trace->strategies.push_back("attr");
          break;
        case ReadResult::Access::kReplicaInPlace:
          trace->strategies.push_back("replica-inplace");
          break;
        case ReadResult::Access::kReplicaSeparate:
          trace->strategies.push_back("replica-separate");
          break;
        case ReadResult::Access::kJoin:
          trace->strategies.push_back("join");
          break;
      }
    }
  }
  tracer.EndStage("plan", plans.size());

  // Resolve the clause to sorted head OIDs.
  bool needs_recheck = false;
  std::optional<BoundClause> clause;
  std::vector<Oid> oids;
  FIELDREP_RETURN_IF_ERROR(CollectTargets(
      set, query.predicate, query.set_name, query.use_replication,
      &result->used_index, &needs_recheck, &clause, &oids));
  if (trace != nullptr) trace->used_index = result->used_index;
  tracer.EndStage("collect", oids.size());

  FIELDREP_RETURN_IF_ERROR(RunReadStages(result, set, plans, needs_recheck,
                                         clause, oids, &tracer, trace));
  // Stage 3: spool result tuples to the output file T. Always serial —
  // output insertion is a mutation, so it holds the output lock (the
  // only lock a read query ever takes; set locks stay reader-free).
  if (query.write_output) {
    MutexLock write_lock(output_mu_);
    FIELDREP_ASSIGN_OR_RETURN(RecordFile * out, OutputFileLocked());
    for (const std::vector<Value>& row : result->rows) {
      Oid ignored;
      FIELDREP_RETURN_IF_ERROR(
          out->Insert(SerializeOutputRow(row, query.output_pad), &ignored));
      ++result->rows_written;
    }
    tracer.EndStage("output", result->rows_written);
  }
  if (trace != nullptr) {
    trace->rows = result->rows.size();
  }
  tracer.Finish();

  // Workload profile: one record per replicated-path or join projection,
  // keyed by the catalog path spec when one exists (so read-side and
  // propagation activity aggregate under the same key).
  if (profiler_ != nullptr) {
    for (size_t c = 0; c < plans.size(); ++c) {
      const ColumnPlan& plan = plans[c];
      if (plan.kind == ColumnPlan::Kind::kAttr) continue;
      const bool from_replica = plan.kind == ColumnPlan::Kind::kReplica;
      const std::string spec =
          plan.path != nullptr ? plan.path->spec
                               : query.set_name + "." + query.projections[c];
      profiler_->RecordPathRead(spec, from_replica, result->rows.size());
    }
  }
  return Status::OK();
}

}  // namespace fieldrep
