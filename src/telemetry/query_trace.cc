#include "telemetry/query_trace.h"

#include "common/strings.h"
#include "storage/buffer_pool.h"

namespace fieldrep {

namespace {
const char* KindName(QueryTrace::Kind kind) {
  return kind == QueryTrace::Kind::kRead ? "read" : "update";
}
}  // namespace

std::string QueryTrace::Summary() const {
  std::string strat = JoinStrings(strategies, ",");
  return StringPrintf(
      "%s %s: %.3f ms rows=%llu io=%llu (reads=%llu writes=%llu "
      "hit_ratio=%.2f) index=%d ranges=%llu [%s]",
      KindName(kind), set_name.c_str(), wall_ns / 1e6,
      static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(io.TotalIo()),
      static_cast<unsigned long long>(io.disk_reads),
      static_cast<unsigned long long>(io.disk_writes), hit_ratio(),
      used_index ? 1 : 0, static_cast<unsigned long long>(parallel_ranges),
      strat.c_str());
}

std::string QueryTrace::ToString() const {
  std::string out = StringPrintf(
      "QueryTrace(%s %s)\n  total: %.3f ms, %s\n  rows=%llu index=%d "
      "hit_ratio=%.2f parallel_ranges=%llu\n",
      KindName(kind), set_name.c_str(), wall_ns / 1e6,
      io.ToString().c_str(), static_cast<unsigned long long>(rows),
      used_index ? 1 : 0, hit_ratio(),
      static_cast<unsigned long long>(parallel_ranges));
  if (!strategies.empty()) {
    out += "  strategies: " + JoinStrings(strategies, ", ") + '\n';
  }
  for (const QueryStageTrace& stage : stages) {
    out += StringPrintf(
        "  stage %-10s %9.3f ms  items=%-8llu fetches=%llu hits=%llu "
        "reads=%llu writes=%llu\n",
        stage.name.c_str(), stage.wall_ns / 1e6,
        static_cast<unsigned long long>(stage.items),
        static_cast<unsigned long long>(stage.io.fetches),
        static_cast<unsigned long long>(stage.io.hits),
        static_cast<unsigned long long>(stage.io.disk_reads),
        static_cast<unsigned long long>(stage.io.disk_writes));
  }
  return out;
}

namespace {
JsonValue IoToJson(const IoStats& io) {
  JsonValue out = JsonValue::Object();
#define FIELDREP_IO_JSON(field) out.Set(#field, JsonValue::Number(io.field));
  FIELDREP_IO_STATS_FIELDS(FIELDREP_IO_JSON)
#undef FIELDREP_IO_JSON
  return out;
}
}  // namespace

JsonValue QueryTrace::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("kind", JsonValue::Str(KindName(kind)));
  out.Set("set", JsonValue::Str(set_name));
  out.Set("wall_ns", JsonValue::Number(wall_ns));
  out.Set("rows", JsonValue::Number(rows));
  out.Set("used_index", JsonValue::Bool(used_index));
  out.Set("hit_ratio", JsonValue::Number(hit_ratio()));
  out.Set("parallel_ranges", JsonValue::Number(parallel_ranges));
  out.Set("io", IoToJson(io));
  JsonValue strat = JsonValue::Array();
  for (const std::string& s : strategies) strat.Append(JsonValue::Str(s));
  out.Set("strategies", std::move(strat));
  JsonValue stage_list = JsonValue::Array();
  for (const QueryStageTrace& stage : stages) {
    JsonValue s = JsonValue::Object();
    s.Set("name", JsonValue::Str(stage.name));
    s.Set("wall_ns", JsonValue::Number(stage.wall_ns));
    s.Set("items", JsonValue::Number(stage.items));
    s.Set("io", IoToJson(stage.io));
    stage_list.Append(std::move(s));
  }
  out.Set("stages", std::move(stage_list));
  return out;
}

StageTracer::StageTracer(QueryTrace* trace, BufferPool* pool)
    : trace_(trace), pool_(pool) {
  if (trace_ == nullptr) return;
  query_start_ns_ = NowNs();
  query_start_io_ = PoolStats();
  stage_start_ns_ = query_start_ns_;
  stage_start_io_ = query_start_io_;
}

IoStats StageTracer::PoolStats() const {
  return pool_ != nullptr ? pool_->stats() : IoStats();
}

void StageTracer::EndStage(const std::string& name, uint64_t items) {
  if (trace_ == nullptr) return;
  const uint64_t now = NowNs();
  const IoStats io = PoolStats();
  QueryStageTrace stage;
  stage.name = name;
  stage.wall_ns = now - stage_start_ns_;
  stage.io = io - stage_start_io_;
  stage.items = items;
  trace_->stages.push_back(std::move(stage));
  stage_start_ns_ = now;
  stage_start_io_ = io;
}

void StageTracer::Finish() {
  if (trace_ == nullptr) return;
  trace_->wall_ns = NowNs() - query_start_ns_;
  trace_->io = PoolStats() - query_start_io_;
}

}  // namespace fieldrep
