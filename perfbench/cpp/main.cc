// fieldrep_perfbench: one benchmark run of one workload.
//
//   fieldrep_perfbench --workload=read_ooc|update_fanout
//                      --seed=N --seconds=N [--trace]
//                      [--rounds=N] [--spans=PATH] [--s-count=N] [--ops=N]
//
// The run builds the §6 model database in two memfd files (data file and
// log; anonymous tmpfs, so nothing is written to any directory), reopens
// it with the workload's pool and warms up. It then runs a fixed number of
// operations (the workload's op budget per second times --seconds, split
// over --rounds) drawn from --seed in one closed-loop client thread. Each
// round repeats the set-up and the same ops on a fresh database. After the
// last round the run closes
// and reopens the database (WAL recovery), checks every replica against
// the last acknowledged source value and runs CheckIntegrity. With
// --trace it also records spans, takes per-layer numbers and runs the
// cold-pool cost-model probes. The result is one JSON object on the last
// line of standard output.
#include <sys/resource.h>
#include <sys/mman.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "costmodel/cost_model.h"
#include "db/database.h"
#include "model_db.h"
#include "storage/file_device.h"
#include "telemetry/query_trace.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using fieldrep::CheckReport;
using fieldrep::Database;
using fieldrep::FileDevice;
using fieldrep::IoStats;
using fieldrep::Object;
using fieldrep::Predicate;
using fieldrep::QueryTrace;
using fieldrep::ReadQuery;
using fieldrep::ReadResult;
using fieldrep::Status;
using fieldrep::UpdateQuery;
using fieldrep::UpdateResult;
using fieldrep::Value;

// --- Workloads ---------------------------------------------------------------

enum OpType : uint8_t { kGet, kRetrieve, kUpdate, kOpTypes };
constexpr const char* kOpNames[kOpTypes] = {"get", "query", "update"};

struct WorkloadSpec {
  const char* name;
  ModelShape shape;
  /// Pool as a percentage of the data pages; 0 = large enough for all.
  uint32_t pool_pct;
  double share[kOpTypes];  ///< op mix by count
  uint32_t read_range;     ///< field_r rows per Retrieve
  uint64_t ops_per_second; ///< op budget per --seconds
  uint64_t warmup_ops;
};

// Every workload runs every op type, so every end-to-end metric exists on
// every workload, with at least 1,000 samples per op type in each round of
// a 10-second run. On a 4-vCPU host a budget-second takes 0.45 to 1 s,
// depending on the host's speed state.
constexpr WorkloadSpec kWorkloads[] = {
    {"read_ooc", {50000, 5}, 5,
     {0.90, 0.08, 0.02}, 100, 35000, 20000},
    {"update_fanout", {20000, 5}, 0,
     {0.20, 0.10, 0.70}, 10, 15000, 15000},
};

/// Auto-checkpoint threshold: the same on every run and every workload.
/// A checkpoint here rewrites most of the hot set (thousands of pages), so
/// with a small threshold a round's page writes step by one checkpoint
/// whenever a seed's log volume crosses another multiple of it. At 64 MiB
/// no auto-checkpoint fires inside a round of a 30-second run; each timed
/// phase ends with an explicit Checkpoint instead.
constexpr uint64_t kCheckpointBytes = 64ull << 20;

/// Zipfian ranks (Gray et al.): rank 0 is hottest. A seeded permutation
/// maps ranks to items so hotness is independent of physical placement.
class ZipfianItems {
 public:
  ZipfianItems(uint32_t n, double theta, uint64_t seed) : n_(n) {
    for (uint32_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(i, theta);
    zeta2_ = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2_ / zetan_);
    fieldrep::Random rng(seed);
    perm_ = rng.Permutation(n);
  }

  uint32_t Next(fieldrep::Random* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < zeta2_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    return perm_[std::min<uint64_t>(rank, n_ - 1)];
  }

 private:
  uint32_t n_;
  double zetan_ = 0, zeta2_ = 0, alpha_ = 0, eta_ = 0;
  std::vector<uint32_t> perm_;
};

struct Op {
  OpType type;
  uint32_t arg;  ///< R index (get), S index (update), start key (ranges)
};

std::vector<Op> GenerateOps(const WorkloadSpec& spec, uint32_t s_count,
                            uint64_t count, uint64_t seed) {
  const uint32_t r_count = s_count * spec.shape.f;
  const double theta = 0.99;
  ZipfianItems get_items(r_count, theta, seed * 4 + 1);
  ZipfianItems update_items(s_count, theta, seed * 4 + 2);
  ZipfianItems read_starts(r_count - spec.read_range + 1, theta, seed * 4 + 3);
  fieldrep::Random rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    double u = rng.NextDouble();
    OpType type = kGet;
    for (int t = 0; t < kOpTypes; ++t) {
      if (spec.share[t] <= 0) continue;
      type = static_cast<OpType>(t);
      if (u < spec.share[t]) break;
      u -= spec.share[t];
    }
    uint32_t arg = 0;
    switch (type) {
      case kGet: arg = get_items.Next(&rng); break;
      case kRetrieve: arg = read_starts.Next(&rng); break;
      case kUpdate: arg = update_items.Next(&rng); break;
      default: break;
    }
    ops.push_back(Op{type, arg});
  }
  return ops;
}

// --- Host-drift probe -----------------------------------------------------------

/// A fixed memory-bound kernel: a dependent walk over a 32 MiB random
/// cycle. It is context for the reader, not a metric.
class DriftProbe {
 public:
  DriftProbe() : next_(1u << 23) {
    for (uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
    fieldrep::Random rng(12345);
    for (uint32_t i = static_cast<uint32_t>(next_.size()) - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.Uniform(i)]);  // Sattolo: one cycle
    }
  }

  double RunMs() {
    const uint64_t start = NowNs();
    uint32_t at = 0;
    for (uint32_t i = 0; i < (1u << 21); ++i) at = next_[at];
    sink_ = sink_ + at;
    return static_cast<double>(NowNs() - start) / 1e6;
  }

  /// A register-only companion (xorshift steps): separates a slower core
  /// from a slower memory system.
  double RunAluMs() {
    const uint64_t start = NowNs();
    uint64_t x = 88172645463325252ull;
    for (uint32_t i = 0; i < (1u << 26); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink_ = sink_ + static_cast<uint32_t>(x);
    return static_cast<double>(NowNs() - start) / 1e6;
  }

 private:
  std::vector<uint32_t> next_;
  volatile uint32_t sink_ = 0;
};

// --- Counters --------------------------------------------------------------------

struct Counters {
  IoStats io;
  uint64_t data_reads = 0, data_writes = 0, log_writes = 0;
  fieldrep::WalStats wal;
  uint64_t lock_acquisitions = 0, lock_conflicts = 0, lock_wait_ns = 0;
  std::map<std::string, double> metrics;  ///< summed over labels

  double Metric(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second;
  }
};

/// An anonymous tmpfs file. FileDevice opens it through its /proc/self/fd
/// path; it lives as long as the run, and fdatasync costs what it costs on
/// tmpfs.
class MemFile {
 public:
  explicit MemFile(const char* name) : fd_(memfd_create(name, 0)) {}
  ~MemFile() {
    if (fd_ >= 0) close(fd_);
  }
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  int fd() const { return fd_; }
  std::string path() const { return "/proc/self/fd/" + std::to_string(fd_); }
  void Truncate() const {
    if (ftruncate(fd_, 0) != 0) std::perror("ftruncate");
  }

 private:
  const int fd_;
};

struct Devices {
  FileDevice data_file;
  FileDevice log_file;
  std::unique_ptr<TimingDevice> data;
  std::unique_ptr<TimingDevice> log;
};

Counters Snapshot(Database& db, const Devices& dev) {
  Counters c;
  c.io = db.io_stats();
  c.data_reads = dev.data->pages_read();
  c.data_writes = dev.data->pages_written();
  c.log_writes = dev.log->pages_written();
  c.wal = db.wal()->stats();
  c.lock_acquisitions = db.lock_table().acquisitions();
  c.lock_conflicts = db.lock_table().conflicts();
  c.lock_wait_ns = db.lock_table().wait_ns();
  if (db.metrics() != nullptr) {
    for (const fieldrep::MetricSample& s : db.metrics()->Collect()) {
      if (s.histogram.has_value()) {
        c.metrics[s.name + ".sum"] += static_cast<double>(s.histogram->sum);
        c.metrics[s.name + ".count"] += static_cast<double>(s.histogram->count);
      } else {
        c.metrics[s.name] += s.value;
      }
    }
  }
  return c;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

double PercentileUs(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) return 0;
  const size_t idx = static_cast<size_t>(p * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<long>(idx), ns.end());
  return static_cast<double>(ns[idx]) / 1e3;
}

/// Samples per p99 window: a p99 is taken over windows of this many
/// consecutive samples of one op type, and the run reports the lowest.
constexpr size_t kP99Window = 1000;

/// The lowest p99 over windows of kP99Window consecutive samples; a short
/// tail is folded into the window before it. Host stalls come in bursts
/// of 0.25 to 1 s that slow a third or more of the ops they cover, so a
/// p99 over a window that holds a burst measures the burst. A tail the
/// program makes on its own (1% or more of its ops) is in every window.
double LowestWindowP99Us(const std::vector<uint64_t>& ns) {
  if (ns.size() < kP99Window) return PercentileUs(ns, 0.99);
  double lowest = 0;
  const size_t windows = ns.size() / kP99Window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = ns.begin() + static_cast<long>(w * kP99Window);
    const auto end = w + 1 == windows ? ns.end() : begin + static_cast<long>(kP99Window);
    const double p99 = PercentileUs(std::vector<uint64_t>(begin, end), 0.99);
    if (w == 0 || p99 < lowest) lowest = p99;
  }
  return lowest;
}

std::string TrimNul(std::string s) {
  while (!s.empty() && s.back() == '\0') s.pop_back();
  return s;
}

// --- JSON output -------------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- The run -----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  bool trace = false;
  int rounds = 3;
  std::string spans_path;
  uint32_t s_count = 0;  ///< 0 = the workload's size
  uint64_t ops = 0;      ///< 0 = ops_per_second * seconds
};

class Run {
 public:
  Run(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args), recorder_(args.trace) {
    shape_ = spec.shape;
    if (args.s_count != 0) shape_.s_count = args.s_count;
    read_range_ = std::min<uint32_t>(spec.read_range,
                                     shape_.s_count * shape_.f / 2);
    read_query_.set_name = "R";
    read_query_.projections = {"sref.repfield"};
  }

  int Main();

 private:
  Status Setup(double* seconds);
  Status OpenDatabase();
  void CloseDatabase() {
    db_.reset();
    (void)devices_->data_file.Close();
    (void)devices_->log_file.Close();
    devices_.reset();
  }
  void TruncateFiles() {
    data_file_.Truncate();
    log_file_.Truncate();
  }
  /// Runs ops[begin, end); records latencies when `timed`.
  void RunOps(size_t begin, size_t end, bool timed);
  Status CheckReplicas(uint64_t* mismatches, uint64_t* findings);
  Status CostModelProbes(JsonObject* layers);

  const WorkloadSpec& spec_;
  const Args& args_;
  ModelShape shape_;
  uint32_t read_range_ = 0;
  MemFile data_file_{"fieldrep-data"};
  MemFile log_file_{"fieldrep-log"};
  ModelData data_;
  std::vector<std::string> expected_;  ///< last acknowledged repfield per S
  std::vector<Op> ops_;
  size_t pool_frames_ = 0;
  uint32_t data_pages_ = 0;

  SpanRecorder recorder_;
  std::unique_ptr<Devices> devices_;
  std::unique_ptr<Database> db_;
  ReadQuery read_query_;

  uint64_t failed_ = 0;
  uint64_t op_counts_[kOpTypes] = {};
  std::vector<uint64_t> latency_ns_[kOpTypes];
  std::vector<QueryTrace> traces_[kOpTypes];
  uint32_t next_op_id_ = 1;
  double probe_output_us_ = 0;
  double probe_update_us_ = 0;
  uint64_t min_samples_ = UINT64_MAX;
};

Status Run::OpenDatabase() {
  devices_ = std::make_unique<Devices>();
  FIELDREP_RETURN_IF_ERROR(devices_->data_file.Open(data_file_.path()));
  FIELDREP_RETURN_IF_ERROR(devices_->log_file.Open(log_file_.path()));
  devices_->data =
      std::make_unique<TimingDevice>(&devices_->data_file, false, &recorder_);
  devices_->log =
      std::make_unique<TimingDevice>(&devices_->log_file, true, &recorder_);
  Database::Options options;
  options.device = devices_->data.get();
  options.enable_wal = true;
  options.wal_device = devices_->log.get();
  options.wal_sync_on_commit = true;
  options.wal_group_commit = false;
  options.wal_checkpoint_threshold_bytes = kCheckpointBytes;
  options.buffer_pool_frames = pool_frames_;
  FIELDREP_ASSIGN_OR_RETURN(db_, Database::Open(options));
  return Status::OK();
}

Status Run::Setup(double* seconds) {
  TruncateFiles();
  const uint64_t start = NowNs();
  {
    // Bulk build without WAL into a pool that holds everything.
    Database::Options build;
    build.file_path = data_file_.path();
    build.buffer_pool_frames =
        static_cast<size_t>(shape_.s_count) * shape_.f / 12 + 4096;
    FIELDREP_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                              Database::Open(build));
    data_ = ModelData();
    FIELDREP_RETURN_IF_ERROR(
        BuildModelDatabase(db.get(), shape_, args_.seed, &data_));
    FIELDREP_RETURN_IF_ERROR(db->Checkpoint());
    data_pages_ = db->pool().device()->page_count();
  }
  pool_frames_ = spec_.pool_pct == 0
                     ? data_pages_ + data_pages_ / 2 + 1024
                     : std::max<size_t>(64, static_cast<size_t>(data_pages_) *
                                                spec_.pool_pct / 100);
  FIELDREP_RETURN_IF_ERROR(OpenDatabase());
  expected_.resize(data_.s_oids.size());
  for (size_t i = 0; i < data_.s_oids.size(); ++i) {
    expected_[i] = InitialRepfield(data_.s_keys[i]);
  }
  RunOps(0, spec_.warmup_ops, /*timed=*/false);
  // The timed phase starts and ends at a checkpoint, so it is charged for
  // every page its ops dirty, not for however many auto-checkpoints fell
  // inside it.
  FIELDREP_RETURN_IF_ERROR(db_->Checkpoint());
  *seconds = static_cast<double>(NowNs() - start) / 1e9;
  return Status::OK();
}

void Run::RunOps(size_t begin, size_t end, bool timed) {
  static const std::string kR = "R", kS = "S", kRepfield = "repfield";
  const bool trace = timed && recorder_.enabled();
  Database& db = *db_;
  for (size_t i = begin; i < end; ++i) {
    const Op& op = ops_[i];
    const uint32_t op_id = next_op_id_++;
    if (trace) recorder_.BeginOp(op_id);
    QueryTrace query_trace;
    QueryTrace* qt = trace ? &query_trace : nullptr;
    bool ok = true;
    uint64_t t0 = 0, t1 = 0;
    switch (op.type) {
      case kGet: {
        Object object;
        t0 = NowNs();
        Status s = db.Get(kR, data_.r_oids[op.arg], &object);
        t1 = NowNs();
        ok = s.ok() && !object.fields().empty() && object.field(0).is_int32() &&
             object.field(0).as_int32() == data_.r_keys[op.arg];
        break;
      }
      case kRetrieve: {
        read_query_.predicate = Predicate::Between(
            "field_r", Value(static_cast<int32_t>(op.arg)),
            Value(static_cast<int32_t>(op.arg + read_range_ - 1)));
        ReadResult result;
        t0 = NowNs();
        Status s = qt != nullptr ? db.Retrieve(read_query_, &result, qt)
                                 : db.Retrieve(read_query_, &result);
        t1 = NowNs();
        ok = s.ok() && result.rows.size() == read_range_;
        break;
      }
      case kUpdate: {
        char value[24];
        std::snprintf(value, sizeof(value), "u%010zu", i);
        t0 = NowNs();
        Status s = db.Update(kS, data_.s_oids[op.arg], kRepfield, Value(value));
        t1 = NowNs();
        ok = s.ok();
        if (ok) expected_[op.arg] = value;
        break;
      }
      default:
        break;
    }
    if (!ok) ++failed_;
    if (!timed) continue;
    ++op_counts_[op.type];
    latency_ns_[op.type].push_back(t1 - t0);
    if (trace) {
      // Stage spans are placed back to back from the call's start.
      uint64_t at = t0;
      for (const fieldrep::QueryStageTrace& stage : query_trace.stages) {
        const SpanKind kind = StageSpanKind(stage.name);
        if (kind != SpanKind::kCount) {
          recorder_.Add(kind, op_id, at, at + stage.wall_ns);
        }
        at += stage.wall_ns;
      }
      recorder_.Add(static_cast<SpanKind>(op.type), op_id, t0, t1);
      if (qt != nullptr) traces_[op.type].push_back(std::move(query_trace));
    }
  }
}

Status Run::CheckReplicas(uint64_t* mismatches, uint64_t* findings) {
  // Every R row's in-place replica and its joined source must both equal
  // the last acknowledged value of its S object.
  std::unordered_map<uint64_t, uint32_t> s_index;
  s_index.reserve(data_.s_oids.size() * 2);
  for (uint32_t i = 0; i < data_.s_oids.size(); ++i) {
    s_index[data_.s_oids[i].Packed()] = i;
  }
  for (bool use_replication : {true, false}) {
    ReadQuery query;
    query.set_name = "R";
    query.projections = {"sref", "sref.repfield"};
    query.use_replication = use_replication;
    ReadResult result;
    FIELDREP_RETURN_IF_ERROR(db_->Retrieve(query, &result));
    if (result.rows.size() != data_.r_oids.size()) ++*mismatches;
    for (const std::vector<Value>& row : result.rows) {
      auto it = row.size() == 2 && row[0].is_ref()
                    ? s_index.find(row[0].as_ref().Packed())
                    : s_index.end();
      if (it == s_index.end() || !row[1].is_string() ||
          TrimNul(row[1].as_string()) != expected_[it->second]) {
        ++*mismatches;
      }
    }
  }
  CheckReport report;
  FIELDREP_RETURN_IF_ERROR(db_->CheckIntegrity(&report));
  *findings = report.findings.size();
  return Status::OK();
}

Status Run::CostModelProbes(JsonObject* layers) {
  // Cold start, run the workload's own query shape as the model prices it
  // (output spooled to T, t = 100), flush; count logical page I/O.
  const int kTrials = 5;
  const uint32_t update_rows = 1;  // the single-object Update
  const double fr = static_cast<double>(read_range_) / data_.r_oids.size();
  const double fs = static_cast<double>(update_rows) / data_.s_oids.size();
  fieldrep::CostModel model(ModelParams(shape_, data_, fr, fs));
  fieldrep::Random rng(args_.seed * 7 + 5);
  double read_pages = 0, update_pages = 0, output_us = 0, update_us = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int32_t lo = static_cast<int32_t>(
        rng.Uniform(data_.r_oids.size() - read_range_ + 1));
    ReadQuery read;
    read.set_name = "R";
    read.projections = {"field_r", "sref.repfield"};
    read.predicate = Predicate::Between("field_r", Value(lo),
                                        Value(lo + static_cast<int32_t>(read_range_) - 1));
    read.write_output = true;
    read.output_pad = 100;
    FIELDREP_RETURN_IF_ERROR(db_->executor().TruncateOutput());
    FIELDREP_RETURN_IF_ERROR(db_->ColdStart());
    ReadResult read_result;
    QueryTrace read_trace;
    FIELDREP_RETURN_IF_ERROR(db_->Retrieve(read, &read_result, &read_trace));
    FIELDREP_RETURN_IF_ERROR(db_->pool().FlushAll());
    read_pages += static_cast<double>(db_->io_stats().TotalIo());
    for (const auto& stage : read_trace.stages) {
      if (stage.name == "output") output_us += stage.wall_ns / 1e3;
    }

    const int32_t ulo = static_cast<int32_t>(
        rng.Uniform(data_.s_oids.size() - update_rows + 1));
    UpdateQuery update;
    update.set_name = "S";
    update.predicate = Predicate::Between(
        "field_s", Value(ulo), Value(ulo + static_cast<int32_t>(update_rows) - 1));
    char value[24];
    std::snprintf(value, sizeof(value), "probe-%d", trial);
    update.assignments = {{"repfield", Value(value)},
                          {"filler", Value(std::string(kSFiller, 'p'))}};
    FIELDREP_RETURN_IF_ERROR(db_->ColdStart());
    UpdateResult update_result;
    QueryTrace update_trace;
    FIELDREP_RETURN_IF_ERROR(db_->Replace(update, &update_result, &update_trace));
    FIELDREP_RETURN_IF_ERROR(db_->pool().FlushAll());
    update_pages += static_cast<double>(db_->io_stats().TotalIo());
    for (const auto& stage : update_trace.stages) {
      if (stage.name == "update") update_us += stage.wall_ns / 1e3;
    }
  }
  const double read_model =
      model.ReadCost(fieldrep::ModelStrategy::kInPlace,
                     fieldrep::IndexSetting::kUnclustered);
  const double update_model =
      model.UpdateCost(fieldrep::ModelStrategy::kInPlace,
                       fieldrep::IndexSetting::kUnclustered);
  read_pages /= kTrials;
  update_pages /= kTrials;
  layers->Num("costmodel.read_pages_model", read_model);
  layers->Num("costmodel.read_pages_measured", read_pages);
  layers->Num("costmodel.read_pages_gap", read_pages - read_model);
  layers->Num("costmodel.update_pages_model", update_model);
  layers->Num("costmodel.update_pages_measured", update_pages);
  layers->Num("costmodel.update_pages_gap", update_pages - update_model);
  probe_output_us_ = output_us / kTrials;
  probe_update_us_ = update_us / kTrials;
  return Status::OK();
}

int Run::Main() {
  if (data_file_.fd() < 0 || log_file_.fd() < 0) {
    std::perror("memfd_create");
    return 1;
  }
  DriftProbe drift;
  const uint32_t s_count = shape_.s_count;
  const uint64_t timed_ops =
      args_.ops != 0 ? args_.ops
                     : spec_.ops_per_second * args_.seconds /
                           static_cast<uint64_t>(std::max(1, args_.rounds));
  WorkloadSpec spec = spec_;
  spec.read_range = read_range_;
  ops_ = GenerateOps(spec, s_count, spec_.warmup_ops + timed_ops, args_.seed);

  // Each round sets up a fresh database and runs the same timed ops on it.
  // The host's speed switches between states that last seconds, so p50s
  // pool the samples of all rounds and throughput is total ops over total
  // timed seconds. Host stalls come in bursts that can fill the top
  // percent of a whole round, so a p99 is the lowest over every round's
  // windows of 1,000 samples (LowestWindowP99Us). setup_s is the median
  // round.
  // The counts repeat in every round, and the last round's database is
  // the one checked below.
  const int rounds = std::max(1, args_.rounds);
  std::map<std::string, std::vector<double>> per_round;
  const std::string kKinds[3] = {"get", "query", "update"};
  std::vector<uint64_t> pooled[3];
  std::vector<double> drift_ms, alu_ms;
  Counters before, after;
  uint64_t phase_start = 0;
  double phase_s = 0, total_phase_s = 0;
  for (int round = 0; round < rounds; ++round) {
    if (db_ != nullptr) CloseDatabase();
    next_op_id_ = 1;
    for (int t = 0; t < kOpTypes; ++t) {
      op_counts_[t] = 0;
      latency_ns_[t].clear();
      latency_ns_[t].reserve(timed_ops);
      traces_[t].clear();
    }
    double setup_seconds = 0;
    Status s = Setup(&setup_seconds);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    per_round["setup_s"].push_back(setup_seconds);
    drift_ms.push_back(drift.RunMs());
    alu_ms.push_back(drift.RunAluMs());
    recorder_.Clear();
    before = Snapshot(*db_, *devices_);
    phase_start = NowNs();
    RunOps(spec_.warmup_ops, spec_.warmup_ops + timed_ops, /*timed=*/true);
    s = db_->Checkpoint();
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      return 1;
    }
    phase_s = static_cast<double>(NowNs() - phase_start) / 1e9;
    after = Snapshot(*db_, *devices_);
    drift_ms.push_back(drift.RunMs());
    alu_ms.push_back(drift.RunAluMs());

    total_phase_s += phase_s;
    per_round["ops_per_s"].push_back(static_cast<double>(timed_ops) / phase_s);
    const std::vector<uint64_t>* by_kind[3][2] = {
        {&latency_ns_[kGet], nullptr},
        {&latency_ns_[kRetrieve], nullptr},
        {&latency_ns_[kUpdate], nullptr}};
    for (int k = 0; k < 3; ++k) {
      std::vector<uint64_t> round_lat;
      for (const std::vector<uint64_t>* lat : by_kind[k]) {
        if (lat != nullptr) round_lat.insert(round_lat.end(), lat->begin(), lat->end());
      }
      per_round[kKinds[k] + "_p50_us"].push_back(PercentileUs(round_lat, 0.50));
      per_round[kKinds[k] + "_p99_us"].push_back(LowestWindowP99Us(round_lat));
      pooled[k].insert(pooled[k].end(), round_lat.begin(), round_lat.end());
      min_samples_ = std::min<uint64_t>(min_samples_, round_lat.size());
    }
  }
  const double ops = static_cast<double>(timed_ops);
  const uint64_t end_pages =
      devices_->data->page_count() + devices_->log->page_count();
  const double payload = static_cast<double>(data_.r_oids.size()) * kTargetR +
                         static_cast<double>(data_.s_oids.size()) * kTargetS;

  JsonObject e2e;
  e2e.Num("ops_per_s", ops * rounds / total_phase_s);
  for (int k = 0; k < 3; ++k) {
    e2e.Num(kKinds[k] + "_p50_us", PercentileUs(pooled[k], 0.50));
    const std::vector<double>& p99s = per_round[kKinds[k] + "_p99_us"];
    e2e.Num(kKinds[k] + "_p99_us", *std::min_element(p99s.begin(), p99s.end()));
  }
  const uint64_t io_pages = (after.data_reads - before.data_reads) +
                            (after.data_writes - before.data_writes) +
                            (after.log_writes - before.log_writes);
  e2e.Num("io_pages_per_op", static_cast<double>(io_pages) / ops);
  e2e.Num("space_amp", static_cast<double>(end_pages) * fieldrep::kPageSize /
                           payload);
  e2e.Num("setup_s", Median(per_round["setup_s"]));
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  e2e.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);

  // --- Per-layer numbers (traced runs) ------------------------------------
  JsonObject layers;
  if (recorder_.enabled()) {
    const auto delta = [&](const std::string& name) {
      return after.Metric(name) - before.Metric(name);
    };
    const IoStats io = after.io - before.io;
    const fieldrep::WalStats& w0 = before.wal;
    const fieldrep::WalStats& w1 = after.wal;
    const double updates = static_cast<double>(op_counts_[kUpdate]);
    const double queries = static_cast<double>(op_counts_[kRetrieve]);
    const double commits = static_cast<double>(w1.transactions - w0.transactions);
    const double data_reads = static_cast<double>(after.data_reads - before.data_reads);
    const double evictions = delta("fieldrep_pool_evictions_total");

    // Span totals by kind, and op self time (op span minus the union of
    // its children; children precede their op's root span in the store).
    double kind_us[static_cast<size_t>(SpanKind::kCount)] = {};
    double self_us = 0;
    const std::vector<Span>& spans = recorder_.spans();
    size_t first_child = 0;
    std::vector<std::pair<uint64_t, uint64_t>> children;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      kind_us[static_cast<size_t>(sp.kind)] += (sp.end_ns - sp.start_ns) / 1e3;
      if (!IsOpKind(sp.kind)) continue;
      children.clear();
      for (size_t j = first_child; j < i; ++j) {
        if (spans[j].op != sp.op) continue;
        children.emplace_back(std::max(spans[j].start_ns, sp.start_ns),
                              std::min(spans[j].end_ns, sp.end_ns));
      }
      std::sort(children.begin(), children.end());
      uint64_t covered = 0, reach = sp.start_ns;
      for (const auto& [a, b] : children) {
        const uint64_t from = std::max(a, reach);
        if (b > from) {
          covered += b - from;
          reach = b;
        }
      }
      self_us += (sp.end_ns - sp.start_ns - covered) / 1e3;
      first_child = i + 1;
    }
    const auto us = [&](SpanKind k) { return kind_us[static_cast<size_t>(k)]; };

    // QueryTrace stage sums.
    std::map<std::string, double> read_stage_us;
    double rows = 0, heads = 0, ranges = 0, collect_fetches = 0;
    for (const QueryTrace& qt : traces_[kRetrieve]) {
      rows += static_cast<double>(qt.rows);
      ranges += static_cast<double>(qt.parallel_ranges);
      for (const auto& stage : qt.stages) {
        read_stage_us[stage.name] += stage.wall_ns / 1e3;
        if (stage.name == "heads") heads += static_cast<double>(stage.items);
        if (stage.name == "collect") {
          collect_fetches += static_cast<double>(stage.io.fetches);
        }
      }
    }

    layers.Num("storage.pool_hit_ratio", Ratio(io.hits, io.fetches));
    layers.Num("storage.pool_fetches_per_op", io.fetches / ops);
    layers.Num("storage.pool_evictions_per_op", evictions / ops);
    layers.Num("storage.pool_eviction_scan_steps_per_eviction",
               Ratio(delta("fieldrep_pool_eviction_scan_steps_total"), evictions));
    layers.Num("storage.pool_batched_read_share",
               Ratio(static_cast<double>(io.batched_reads), data_reads));
    layers.Num("storage.pool_latch_waits_per_op",
               delta("fieldrep_pool_latch_waits_total") / ops);
    layers.Num("storage.pool_single_flight_waits_per_op",
               delta("fieldrep_pool_single_flight_waits_total") / ops);
    layers.Num("storage.device_reads_per_op", data_reads / ops);
    layers.Num("storage.device_writes_per_op",
               static_cast<double>(after.data_writes - before.data_writes) / ops);
    layers.Num("storage.device_read_us_per_op", us(SpanKind::kDataRead) / ops);
    layers.Num("storage.device_write_us_per_op",
               (us(SpanKind::kDataWrite) + us(SpanKind::kDataSync)) / ops);
    layers.Num("storage.device_busy_share",
               (us(SpanKind::kDataRead) + us(SpanKind::kDataWrite) +
                us(SpanKind::kDataSync) + us(SpanKind::kLogRead) +
                us(SpanKind::kLogWrite) + us(SpanKind::kLogSync)) /
                   (phase_s * 1e6));
    layers.Num("wal.records_per_update", Ratio(w1.records - w0.records, updates));
    layers.Num("wal.delta_bytes_per_update",
               Ratio(w1.delta_bytes - w0.delta_bytes, updates));
    layers.Num("wal.log_writes_per_commit",
               Ratio(w1.log_page_writes - w0.log_page_writes, commits));
    layers.Num("wal.syncs_per_commit", Ratio(w1.log_syncs - w0.log_syncs, commits));
    layers.Num("wal.append_us_per_commit", Ratio(us(SpanKind::kLogWrite), commits));
    layers.Num("wal.sync_us_per_commit", Ratio(us(SpanKind::kLogSync), commits));
    const double checkpoints = static_cast<double>(w1.checkpoints - w0.checkpoints);
    layers.Num("wal.checkpoints", checkpoints);
    layers.Num("wal.pages_per_checkpoint",
               Ratio(w1.checkpoint_pages - w0.checkpoint_pages, checkpoints));
    layers.Num("wal.checkpoint_us",
               Ratio(delta("fieldrep_wal_checkpoint_duration_ns.sum") / 1e3,
                     delta("fieldrep_wal_checkpoint_duration_ns.count")));
    layers.Num("replication.propagations_per_update",
               Ratio(delta("fieldrep_replication_propagations_total"), updates));
    layers.Num("replication.heads_updated_per_update",
               Ratio(delta("fieldrep_replication_heads_updated_total"), updates));
    layers.Num("replication.link_traversals_per_update",
               Ratio(delta("fieldrep_replication_link_traversals_total"), updates));
    layers.Num("replication.separate_replica_writes_per_update",
               Ratio(delta("fieldrep_replication_separate_replica_writes_total"),
                     updates));
    layers.Num("query.plan_us", Ratio(read_stage_us["plan"], queries));
    layers.Num("query.heads_us", Ratio(read_stage_us["heads"], queries));
    layers.Num("query.replicas_us", Ratio(read_stage_us["replicas"], queries));
    layers.Num("query.joins_us", Ratio(read_stage_us["joins"], queries));
    layers.Num("query.rows_per_query", Ratio(rows, queries));
    layers.Num("query.heads_scanned_per_row", Ratio(heads, rows));
    const double replica_rows = delta("fieldrep_path_replica_rows_total");
    const double join_rows = delta("fieldrep_path_join_rows_total");
    layers.Num("query.replica_row_share",
               Ratio(replica_rows, replica_rows + join_rows));
    layers.Num("query.parallel_ranges_per_query", Ratio(ranges, queries));
    layers.Num("index.collect_us_per_query", Ratio(read_stage_us["collect"], queries));
    layers.Num("index.fetches_per_query", Ratio(collect_fetches, queries));
    layers.Num("thread_pool.tasks_per_query",
               Ratio(delta("fieldrep_threadpool_tasks_total"), queries));
    layers.Num("thread_pool.task_us_per_query",
               Ratio(delta("fieldrep_threadpool_task_ns.sum") / 1e3, queries));
    layers.Num("db.lock_acquisitions_per_op",
               (after.lock_acquisitions - before.lock_acquisitions) / ops);
    layers.Num("db.lock_conflicts_per_op",
               (after.lock_conflicts - before.lock_conflicts) / ops);
    layers.Num("db.lock_wait_us_per_op",
               (after.lock_wait_ns - before.lock_wait_ns) / 1e3 / ops);
    layers.Num("db.self_us_per_op", self_us / ops);
    if (!args_.spans_path.empty() &&
        !recorder_.WriteTsv(args_.spans_path, phase_start)) {
      std::fprintf(stderr, "cannot write %s\n", args_.spans_path.c_str());
      return 1;
    }
    recorder_.Clear();
  }

  // --- Correctness: reopen (WAL recovery) and check every replica ---------
  CloseDatabase();
  Status s = OpenDatabase();
  uint64_t mismatches = 0, findings = 0;
  if (s.ok()) s = CheckReplicas(&mismatches, &findings);
  if (s.ok() && recorder_.enabled()) {
    s = CostModelProbes(&layers);
    // Timed queries do not spool output and the workloads update through
    // Update, not Replace; those two stages come from the cold probes.
    layers.Num("query.output_us", probe_output_us_);
    layers.Num("query.update_us", probe_update_us_);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "check failed: %s\n", s.ToString().c_str());
    return 1;
  }
  CloseDatabase();
  TruncateFiles();

  JsonObject context;
  context.Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  context.Str("build_type", PERFBENCH_BUILD_TYPE);
  struct statfs fs;
  char fs_type[32] = "unknown";
  if (fstatfs(data_file_.fd(), &fs) == 0) {
    std::snprintf(fs_type, sizeof(fs_type), "0x%lx",
                  static_cast<unsigned long>(fs.f_type));
  }
  context.Str("fs_magic", fs_type);
  context.Str("flush_policy",
              "wal on, sync on commit, group commit off, auto-checkpoint at 64 MiB of log");
  context.Raw("drift_probe_ms", JsonArray(drift_ms));
  context.Raw("alu_probe_ms", JsonArray(alu_ms));
  context.Num("s_count", s_count);
  context.Num("f", shape_.f);
  context.Num("data_pages", data_pages_);
  context.Num("pool_frames", static_cast<double>(pool_frames_));
  context.Num("rounds", rounds);
  context.Num("timed_ops_per_round", ops);
  context.Num("min_latency_samples_per_round", static_cast<double>(min_samples_));
  for (const auto& [name, values] : per_round) {
    context.Raw("rounds." + name, JsonArray(values));
  }
  JsonObject counts, shares;
  for (int t = 0; t < kOpTypes; ++t) {
    counts.Num(kOpNames[t], static_cast<double>(op_counts_[t]));
    shares.Num(kOpNames[t], spec_.share[t]);
  }
  context.Raw("op_counts", counts.Render());
  context.Raw("op_shares", shares.Render());
  // FNV-1a over the timed ops: equal seeds draw equal keys.
  uint64_t digest = 1469598103934665603ull;
  for (size_t i = spec_.warmup_ops; i < ops_.size(); ++i) {
    digest = (digest ^ (ops_[i].type * 0x100000000ull + ops_[i].arg)) *
             1099511628211ull;
  }
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  context.Str("ops_digest", digest_hex);
  context.Num("mismatched_replicas", static_cast<double>(mismatches));
  context.Num("integrity_findings", static_cast<double>(findings));

  JsonObject out;
  out.Str("workload", spec_.name);
  out.Num("seed", static_cast<double>(args_.seed));
  out.Raw("correct", failed_ == 0 && mismatches == 0 && findings == 0
                         ? "true"
                         : "false");
  out.Num("attempted", ops * rounds);
  out.Num("failed", static_cast<double>(failed_ + (mismatches > 0 ? 1 : 0)));
  out.Raw("context", context.Render());
  out.Raw("e2e", e2e.Render());
  out.Raw("layers", layers.Render());
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      args->seconds = std::strtoull(v, nullptr, 10);
    } else if (a == "--trace") {
      args->trace = true;
    } else if (const char* v = value("--rounds=")) {
      args->rounds = std::atoi(v);
    } else if (const char* v = value("--spans=")) {
      args->spans_path = v;
    } else if (const char* v = value("--s-count=")) {
      args->s_count = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--ops=")) {
      args->ops = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return false;
    }
  }
  if (args->seconds == 0 && args->ops == 0) {
    std::fprintf(stderr, "--seconds or --ops must be positive\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  for (const perfbench::WorkloadSpec& spec : perfbench::kWorkloads) {
    if (args.workload == spec.name) return perfbench::Run(spec, args).Main();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
