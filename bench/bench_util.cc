#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "replication/link_object.h"

namespace fieldrep::bench {

namespace {
// Field bytes (excluding the 16-byte object header): the model's r and s.
constexpr uint32_t kTargetR = 100;
constexpr uint32_t kTargetS = 200;
// RTYPE: field_r(4) + sref(8) + filler
constexpr uint32_t kRFiller = kTargetR - 4 - 8;
// STYPE: field_s(4) + repfield(20) + filler
constexpr uint32_t kSFiller = kTargetS - 4 - 20;

}  // namespace

Result<ModelWorkload> BuildModelWorkload(const WorkloadOptions& options) {
  ModelWorkload workload;
  workload.s_count = options.s_count;
  workload.f = options.f;
  workload.clustered = options.clustered;
  workload.strategy = options.strategy;
  workload.inline_threshold = options.inline_threshold;

  Database::Options db_options;
  db_options.buffer_pool_frames = options.pool_frames;
  db_options.read_ahead_window = options.read_ahead_window;
  db_options.file_path = options.file_path;
  db_options.worker_threads = options.worker_threads;
  db_options.enable_telemetry = options.enable_telemetry;
  db_options.slow_query_ns = options.slow_query_ns;
  db_options.slow_query_hook = options.slow_query_hook;
  FIELDREP_ASSIGN_OR_RETURN(workload.db, Database::Open(db_options));
  Database& db = *workload.db;

  FIELDREP_RETURN_IF_ERROR(db.DefineType(TypeDescriptor(
      "STYPE", {Int32Attr("field_s"), CharAttr("repfield", 20),
                CharAttr("filler", kSFiller)})));
  FIELDREP_RETURN_IF_ERROR(db.DefineType(TypeDescriptor(
      "RTYPE", {Int32Attr("field_r"), RefAttr("sref", "STYPE"),
                CharAttr("filler", kRFiller)})));
  FIELDREP_RETURN_IF_ERROR(db.CreateSet("S", "STYPE"));
  FIELDREP_RETURN_IF_ERROR(db.CreateSet("R", "RTYPE"));

  // Replication adds hidden bytes to stored objects (replica slots on R,
  // link refs / replica refs on S); reserve page space so the growth
  // happens in place and the resulting objects-per-page match the model's
  // adjusted r and s exactly.
  if (options.strategy != ModelStrategy::kNoReplication) {
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * s_set, db.GetSet("S"));
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * r_set, db.GetSet("R"));
    if (options.strategy == ModelStrategy::kInPlace) {
      s_set->file().set_growth_reserve(16);  // LinkRef: 11-13 bytes
      r_set->file().set_growth_reserve(30);  // replica slot: 30 bytes
    } else {
      s_set->file().set_growth_reserve(15);  // ReplicaRefSlot: 15 bytes
      r_set->file().set_growth_reserve(15);
    }
  }

  Random rng(options.seed);

  // Populate S. Clustered setting: file order == key order. Unclustered:
  // keys randomly permuted over the file.
  std::vector<uint32_t> s_keys(options.s_count);
  for (uint32_t i = 0; i < options.s_count; ++i) s_keys[i] = i;
  if (!options.clustered) rng.Shuffle(&s_keys);
  workload.s_oids.reserve(options.s_count);
  for (uint32_t i = 0; i < options.s_count; ++i) {
    Object object(0, {Value(static_cast<int32_t>(s_keys[i])),
                      Value(StringPrintf("rep-%06u", s_keys[i])),
                      Value(std::string(kSFiller, 's'))});
    Oid oid;
    FIELDREP_RETURN_IF_ERROR(db.Insert("S", object, &oid));
    workload.s_oids.push_back(oid);
  }

  // Populate R: |R| = f |S|, every sref uniformly random (R and S
  // relatively unclustered, the model's key assumption), but each S object
  // referenced exactly f times (the model's sharing level) via a shuffled
  // multiset of targets.
  const uint64_t r_count = static_cast<uint64_t>(options.f) * options.s_count;
  std::vector<uint32_t> targets(r_count);
  for (uint64_t i = 0; i < r_count; ++i) {
    targets[i] = static_cast<uint32_t>(i % options.s_count);
  }
  rng.Shuffle(&targets);
  std::vector<uint32_t> r_keys(r_count);
  for (uint64_t i = 0; i < r_count; ++i) {
    r_keys[i] = static_cast<uint32_t>(i);
  }
  if (!options.clustered) rng.Shuffle(&r_keys);
  workload.r_oids.reserve(r_count);
  for (uint64_t i = 0; i < r_count; ++i) {
    Object object(0, {Value(static_cast<int32_t>(r_keys[i])),
                      Value(workload.s_oids[targets[i]]),
                      Value(std::string(kRFiller, 'r'))});
    Oid oid;
    FIELDREP_RETURN_IF_ERROR(db.Insert("R", object, &oid));
    workload.r_oids.push_back(oid);
  }

  // Replicate after populating: the bulk build lays link sets and S' out
  // in S physical order (the paper's clustering property).
  if (options.strategy != ModelStrategy::kNoReplication) {
    ReplicateOptions rep;
    rep.strategy = options.strategy == ModelStrategy::kInPlace
                       ? ReplicationStrategy::kInPlace
                       : ReplicationStrategy::kSeparate;
    rep.inline_threshold = options.inline_threshold;
    FIELDREP_RETURN_IF_ERROR(db.Replicate("R.sref.repfield", rep));
  }

  FIELDREP_RETURN_IF_ERROR(
      db.BuildIndex("r_field_r", "R", "field_r", options.clustered));
  FIELDREP_RETURN_IF_ERROR(
      db.BuildIndex("s_field_s", "S", "field_s", options.clustered));

  // Measure the actual serialized sizes the model should reason about.
  {
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * r_set, db.GetSet("R"));
    FIELDREP_ASSIGN_OR_RETURN(ObjectSet * s_set, db.GetSet("S"));
    std::string payload;
    FIELDREP_RETURN_IF_ERROR(r_set->file().Read(workload.r_oids[0], &payload));
    double r_with = static_cast<double>(payload.size()) - 16;
    FIELDREP_RETURN_IF_ERROR(s_set->file().Read(workload.s_oids[0], &payload));
    double s_with = static_cast<double>(payload.size()) - 16;
    workload.actual_r = kTargetR;
    workload.actual_s = kTargetS;
    workload.actual_k = r_with - kTargetR;  // hidden slot bytes on R
    // The hidden bytes added to S are (s_with - kTargetS); ParamsFor feeds
    // them to the model as the strategy's terminal overhead.
    workload.actual_s = kTargetS;
    workload.actual_s_overhead = s_with - kTargetS;
  }
  return workload;
}

CostModelParams ParamsFor(const ModelWorkload& workload, double fr,
                          double fs) {
  CostModelParams params;
  params.S = workload.s_count;
  params.f = workload.f;
  params.fr = fr;
  params.fs = fs;
  params.r = workload.actual_r;
  params.s = workload.actual_s;
  params.t = 100;
  params.k = 20;
  params.inline_link_threshold = workload.inline_threshold;
  switch (workload.strategy) {
    case ModelStrategy::kNoReplication:
      break;
    case ModelStrategy::kInPlace:
      params.inplace_head_bytes = workload.actual_k;
      params.inplace_terminal_bytes = workload.actual_s_overhead;
      // Engine link records: 16 fixed payload bytes + 8 per member + the
      // 4-byte page slot. The model charges h = 20 per object, so the
      // net extra beyond h is 0.
      params.link_fixed_bytes = 0;
      break;
    case ModelStrategy::kSeparate:
      params.sep_head_bytes = workload.actual_k;
      params.sep_terminal_bytes = workload.actual_s_overhead;
      // Replica records: 39 payload bytes + 4-byte slot = 43 per record;
      // net of the model's h = 20 that is 23.
      params.sprime_bytes = 23;
      params.link_fixed_bytes = 0;
      break;
  }
  return params;
}

Result<MeasuredCosts> MeasureQueryCosts(ModelWorkload* workload, double fr,
                                        double fs, int trials,
                                        uint64_t seed) {
  Database& db = *workload->db;
  Random rng(seed);
  const uint64_t r_count = workload->r_oids.size();
  const uint32_t read_span =
      std::max<uint32_t>(1, static_cast<uint32_t>(fr * r_count));
  const uint32_t update_span = std::max<uint32_t>(
      1, static_cast<uint32_t>(fs * workload->s_count));

  MeasuredCosts costs;
  for (int trial = 0; trial < trials; ++trial) {
    // --- Read query ---------------------------------------------------------
    int32_t lo = static_cast<int32_t>(rng.Uniform(r_count - read_span));
    ReadQuery read;
    read.set_name = "R";
    read.projections = {"field_r", "sref.repfield"};
    read.predicate = Predicate::Between(
        "field_r", Value(lo), Value(static_cast<int32_t>(lo + read_span - 1)));
    read.write_output = true;
    read.output_pad = 100;
    FIELDREP_RETURN_IF_ERROR(db.executor().TruncateOutput());
    FIELDREP_RETURN_IF_ERROR(db.ColdStart());
    ReadResult read_result;
    uint64_t read_start = NowNs();
    FIELDREP_RETURN_IF_ERROR(db.Retrieve(read, &read_result));
    FIELDREP_RETURN_IF_ERROR(db.pool().FlushAll());
    costs.read_ms += static_cast<double>(NowNs() - read_start) / 1e6;
    costs.read_io += static_cast<double>(db.io_stats().TotalIo());
    costs.batched_reads += static_cast<double>(db.io_stats().batched_reads);
    costs.coalesced_writes +=
        static_cast<double>(db.io_stats().coalesced_writes);

    // --- Update query --------------------------------------------------------
    int32_t ulo =
        static_cast<int32_t>(rng.Uniform(workload->s_count - update_span));
    UpdateQuery update;
    update.set_name = "S";
    update.predicate = Predicate::Between(
        "field_s", Value(ulo),
        Value(static_cast<int32_t>(ulo + update_span - 1)));
    // The model's "S.fields = newvalues, S.repfield = newvalue": touch the
    // replicated field plus another field (field_s stays fixed so index
    // keys remain unique).
    update.assignments = {
        {"repfield", Value(StringPrintf("upd-%06d", trial))},
        {"filler", Value(std::string(kSFiller, 'u'))},
    };
    FIELDREP_RETURN_IF_ERROR(db.ColdStart());
    UpdateResult update_result;
    uint64_t update_start = NowNs();
    FIELDREP_RETURN_IF_ERROR(db.Replace(update, &update_result));
    FIELDREP_RETURN_IF_ERROR(db.pool().FlushAll());
    costs.update_ms += static_cast<double>(NowNs() - update_start) / 1e6;
    costs.update_io += static_cast<double>(db.io_stats().TotalIo());
    costs.batched_reads += static_cast<double>(db.io_stats().batched_reads);
    costs.coalesced_writes +=
        static_cast<double>(db.io_stats().coalesced_writes);
  }
  costs.read_io /= trials;
  costs.update_io /= trials;
  costs.read_ms /= trials;
  costs.update_ms /= trials;
  costs.batched_reads /= trials;
  costs.coalesced_writes /= trials;
  return costs;
}

Zipfian::Zipfian(uint64_t n, double theta) : n_(n) {
  for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(i, theta);
  zeta2_ = 1.0 + 1.0 / std::pow(2.0, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t Zipfian::Next(Random* rng) const {
  double u = rng->NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < zeta2_) return 1;
  return static_cast<uint64_t>(static_cast<double>(n_) *
                               std::pow(eta_ * u - eta_ + 1.0, alpha_));
}

double Percentile(std::vector<uint64_t>* ns, double p) {
  if (ns->empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(ns->size() - 1));
  std::nth_element(ns->begin(), ns->begin() + static_cast<long>(idx),
                   ns->end());
  return static_cast<double>((*ns)[idx]) / 1e3;  // microseconds
}

std::string Cell(double ours, double paper) {
  return StringPrintf("%7.1f (paper %5.0f)", ours, paper);
}

void BenchJson::Add(const std::string& key, double value) {
  metrics_.emplace_back(key, value);
}

void BenchJson::SetTelemetry(std::string metrics_json) {
  while (!metrics_json.empty() &&
         (metrics_json.back() == '\n' || metrics_json.back() == ' ')) {
    metrics_json.pop_back();
  }
  telemetry_json_ = std::move(metrics_json);
}

std::string BenchJson::Render() const {
  std::string out = "{\n  \"bench\": \"" + bench_name_ + "\",\n"
                    "  \"metrics\": {\n";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out += StringPrintf("    \"%s\": %.6g%s\n", metrics_[i].first.c_str(),
                        metrics_[i].second,
                        i + 1 < metrics_.size() ? "," : "");
  }
  out += "  }";
  if (!telemetry_json_.empty()) {
    out += ",\n  \"telemetry\": ";
    out += telemetry_json_;
  }
  out += "\n}\n";
  return out;
}

Status BenchJson::WriteToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  const std::string body = Render();
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

namespace {
/// Removes argv[i] from the vector, shrinking *argc.
void RemoveArg(int* argc, char** argv, int i) {
  for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
  --*argc;
}
}  // namespace

std::string ConsumeJsonFlag(int* argc, char** argv,
                            const std::string& bench_name) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      RemoveArg(argc, argv, i);
      return "BENCH_" + bench_name + ".json";
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      std::string path = argv[i] + 7;
      RemoveArg(argc, argv, i);
      return path.empty() ? "BENCH_" + bench_name + ".json" : path;
    }
  }
  return "";
}

uint32_t ConsumeWindowFlag(int* argc, char** argv, uint32_t fallback) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--window=", 9) == 0) {
      uint32_t value = static_cast<uint32_t>(std::atoi(argv[i] + 9));
      RemoveArg(argc, argv, i);
      return value;
    }
  }
  return fallback;
}

size_t ConsumeThreadsFlag(int* argc, char** argv, size_t fallback) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      int value = std::atoi(argv[i] + 10);
      RemoveArg(argc, argv, i);
      return value < 1 ? 1 : static_cast<size_t>(value);
    }
  }
  return fallback;
}

bool ConsumeDeviceFlag(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--device=", 9) != 0) continue;
    const bool file = std::strcmp(argv[i] + 9, "file") == 0;
    if (!file) {
      std::fprintf(stderr,
                   "warning: unknown --device=%s (want file), keeping the "
                   "in-memory device\n",
                   argv[i] + 9);
    }
    RemoveArg(argc, argv, i);
    return file;
  }
  return false;
}

}  // namespace fieldrep::bench
