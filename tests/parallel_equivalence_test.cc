// The parallel read executor must be observationally identical to the
// serial engine: same result rows in the same order, same access kinds,
// and byte-identical logical I/O counters (fetches / hits / disk_reads)
// for every worker count, with read-ahead on or off. Covers all three
// replication strategies so every stage of the fan-out is exercised:
// in-place answers from the head pages (stage 0), separate fetches
// replica records from S' (stage 1), and no-replication falls back to
// level-by-level functional joins (stage 2).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace fieldrep {
namespace {

using ::fieldrep::bench::BuildModelWorkload;
using ::fieldrep::bench::ModelWorkload;
using ::fieldrep::bench::WorkloadOptions;

struct RunOutcome {
  ReadResult result;
  IoStats stats;
};

RunOutcome RunConfig(Database* db, const ReadQuery& query, size_t threads,
                     uint32_t window) {
  RunOutcome out;
  FR_EXPECT_OK(db->SetWorkerThreads(threads));
  db->pool().set_read_ahead_window(window);
  FR_EXPECT_OK(db->ColdStart());
  FR_EXPECT_OK(db->Retrieve(query, &out.result));
  out.stats = db->io_stats();
  return out;
}

void ExpectSameOutcome(const RunOutcome& base, const RunOutcome& run,
                       size_t threads, uint32_t window) {
  SCOPED_TRACE(::testing::Message()
               << "threads=" << threads << " window=" << window);
  ASSERT_EQ(base.result.rows.size(), run.result.rows.size());
  for (size_t i = 0; i < base.result.rows.size(); ++i) {
    ASSERT_EQ(base.result.rows[i].size(), run.result.rows[i].size());
    for (size_t c = 0; c < base.result.rows[i].size(); ++c) {
      EXPECT_EQ(base.result.rows[i][c], run.result.rows[i][c])
          << "row " << i << " column " << c;
    }
  }
  EXPECT_EQ(base.result.access, run.result.access);
  EXPECT_EQ(base.result.used_index, run.result.used_index);
  EXPECT_EQ(base.result.heads_scanned, run.result.heads_scanned);
  // The paper's cost unit: the parallel plan may reorder page touches but
  // must never change how many there are or how they classify.
  EXPECT_EQ(base.stats.fetches, run.stats.fetches);
  EXPECT_EQ(base.stats.hits, run.stats.hits);
  EXPECT_EQ(base.stats.disk_reads, run.stats.disk_reads);
  EXPECT_EQ(base.stats.disk_writes, run.stats.disk_writes);
}

// `prepare`, when set, runs on the built workload before the first query.
void ExpectParallelEquivalence(
    const WorkloadOptions& options, const ReadQuery& query,
    const std::function<void(Database*)>& prepare = nullptr) {
  auto workload_or = BuildModelWorkload(options);
  ASSERT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  ModelWorkload workload = std::move(workload_or).value();
  Database* db = workload.db.get();
  if (prepare) prepare(db);

  RunOutcome base = RunConfig(db, query, /*threads=*/1, /*window=*/16);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GT(base.result.rows.size(), 0u);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (uint32_t window : {uint32_t{16}, uint32_t{0}}) {
      RunOutcome run = RunConfig(db, query, threads, window);
      ExpectSameOutcome(base, run, threads, window);
    }
  }
  FR_EXPECT_OK(db->SetWorkerThreads(1));
  EXPECT_EQ(db->pool().total_pins(), 0u);
}

ReadQuery RangeQuery(uint32_t r_count) {
  // An indexed range over half of R, projecting the replicated path.
  // (std::string{} move-assignments sidestep gcc 12's -Wrestrict false
  // positive on const char* assigns in this inline context, PR 105651.)
  ReadQuery query;
  query.set_name = std::string{"R"};
  query.projections = {"field_r", "sref.repfield"};
  query.predicate =
      Predicate::Between("field_r", Value(int32_t{0}),
                         Value(static_cast<int32_t>(r_count / 2)));
  return query;
}

TEST(ParallelEquivalenceTest, InPlaceIndexedRange) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kInPlace;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

TEST(ParallelEquivalenceTest, SeparateIndexedRange) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kSeparate;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

TEST(ParallelEquivalenceTest, NoReplicationFunctionalJoin) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kNoReplication;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

TEST(ParallelEquivalenceTest, FullScanWithoutPredicate) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kInPlace;
  ReadQuery query;
  query.set_name = std::string{"R"};
  query.projections = {"field_r", "sref.repfield"};
  ExpectParallelEquivalence(options, query);
}

TEST(ParallelEquivalenceTest, ClusteredJoinQuery) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.clustered = true;
  options.strategy = ModelStrategy::kNoReplication;
  ExpectParallelEquivalence(options, RangeQuery(options.s_count * options.f));
}

// Index keys on strings are 8-byte prefixes, so an indexed string range
// returns candidates that stage 0 rechecks: "rep-0001" covers the R heads
// whose S key is 100-199 and the recheck keeps about half. The dropped
// heads are spread over every range (R is unclustered), so each range's
// rows and queued join reads must remap to the right result index.
TEST(ParallelEquivalenceTest, StringIndexRecheckDropsRowsInsideRanges) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kInPlace;
  ReadQuery query;
  query.set_name = std::string{"R"};
  query.projections = {"field_r", "sref.field_s"};
  query.predicate =
      Predicate::Between("sref.repfield", Value(std::string{"rep-000100"}),
                         Value(std::string{"rep-000150"}));
  ExpectParallelEquivalence(options, query, [&](Database* db) {
    FR_ASSERT_OK(db->BuildIndex("r_repfield", "R", "sref.repfield"));
    ReadResult result;
    QueryTrace trace;
    FR_ASSERT_OK(db->Retrieve(query, &result, &trace));
    EXPECT_TRUE(result.used_index);
    ASSERT_GT(trace.stages.size(), 2u);
    EXPECT_EQ(trace.stages[2].name, "heads");
    EXPECT_GT(trace.stages[2].items, result.rows.size());
    EXPECT_GT(result.rows.size(), 0u);
  });
}

// One matching head: even with 8 workers the query has no parallel plan.
TEST(ParallelEquivalenceTest, SingleHeadQuery) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kInPlace;
  ReadQuery query = RangeQuery(options.s_count * options.f);
  query.predicate =
      Predicate::Between("field_r", Value(int32_t{7}), Value(int32_t{7}));
  ExpectParallelEquivalence(options, query);
}

// An in-place replica column (stage 0) and a join column (stage 2) in the
// same query.
TEST(ParallelEquivalenceTest, InPlaceReplicaAndJoinColumns) {
  WorkloadOptions options;
  options.s_count = 300;
  options.f = 2;
  options.strategy = ModelStrategy::kInPlace;
  ReadQuery query = RangeQuery(options.s_count * options.f);
  query.projections = {"field_r", "sref.repfield", "sref.field_s"};
  ExpectParallelEquivalence(options, query);
}

}  // namespace
}  // namespace fieldrep
