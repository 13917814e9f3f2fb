// Observability layer tests: the metrics registry primitives (counters,
// gauges, power-of-two latency histograms and their percentile math), the
// per-query trace, the engine's slow-query ring buffer, and the regression
// guarantee that the per-query / per-instance counters (QueryStats,
// ServingCounters) are reproduced exactly by registry snapshot deltas.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "query/trace.h"
#include "xml/parser.h"

namespace xrank {
namespace {

using core::EngineOptions;
using core::XRankEngine;
using index::IndexKind;
using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::Registry;
using query::QueryTrace;
using query::ScopedSpan;

constexpr const char* kCorpusXml = R"(
<workshop>
  <title> XML and IR workshop </title>
  <proceedings>
    <paper id="1">
      <title> XQL and Proximal Nodes </title>
      <body>
        <section> Searching structured text with the xql language </section>
        <section> xyleme supports xql fragments </section>
      </body>
    </paper>
    <paper id="2">
      <title> Querying XML in Xyleme </title>
      <body> ranked keyword search over xml documents </body>
    </paper>
  </proceedings>
</workshop>
)";

std::vector<xml::Document> Corpus() {
  auto doc = xml::ParseDocument(kCorpusXml, "corpus.xml");
  EXPECT_TRUE(doc.ok()) << doc.status();
  std::vector<xml::Document> docs;
  docs.push_back(std::move(doc).value());
  return docs;
}

TEST(MetricsTest, CounterBasics) {
  Counter* c = Registry::Instance().GetCounter("test.counter_basics");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name -> same object; pointers are stable.
  EXPECT_EQ(Registry::Instance().GetCounter("test.counter_basics"), c);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsTest, GaugeBasics) {
  Gauge* g = Registry::Instance().GetGauge("test.gauge_basics");
  g->Set(7);
  EXPECT_EQ(g->value(), 7);
  g->Add(-10);
  EXPECT_EQ(g->value(), -3);
}

TEST(MetricsTest, HistogramObserveCountSum) {
  Histogram* h = Registry::Instance().GetHistogram("test.hist_basics");
  h->Observe(1);
  h->Observe(100);
  h->Observe(1000);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 1101u);
  auto snapshot = h->TakeSnapshot();
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.sum, 1101u);
  ASSERT_EQ(snapshot.bucket_counts.size(), Histogram::kNumBuckets);
  uint64_t total = 0;
  for (uint64_t b : snapshot.bucket_counts) total += b;
  EXPECT_EQ(total, 3u);
  EXPECT_GT(snapshot.p50, 0.0);
  EXPECT_GE(snapshot.p99, snapshot.p50);
}

// Percentile math probed at bucket edges through the exposed static so the
// expectations are exact (no live-histogram races, no snapshotting).
TEST(MetricsTest, PercentileAtBucketEdges) {
  // Empty -> 0.
  std::vector<uint64_t> counts(Histogram::kNumBuckets, 0);
  EXPECT_EQ(Histogram::PercentileFromCounts(counts, 50.0), 0.0);

  // All 100 observations in bucket 3, i.e. the value range (4, 8].
  counts[3] = 100;
  // p100 must land exactly on the bucket's upper bound...
  EXPECT_DOUBLE_EQ(Histogram::PercentileFromCounts(counts, 100.0), 8.0);
  // ...p50 interpolates to the middle of the bucket...
  EXPECT_DOUBLE_EQ(Histogram::PercentileFromCounts(counts, 50.0), 6.0);
  // ...and p->0 clamps to at least one observation's rank, never below the
  // lower bound.
  double p_low = Histogram::PercentileFromCounts(counts, 0.0);
  EXPECT_GE(p_low, 4.0);
  EXPECT_LE(p_low, 4.2);

  // Mass split across two buckets: bucket 0 ([0,1]) and bucket 4 ((8,16]).
  std::vector<uint64_t> split(Histogram::kNumBuckets, 0);
  split[0] = 50;
  split[4] = 50;
  // p50 exhausts bucket 0 exactly: rank 50 is its last observation.
  EXPECT_DOUBLE_EQ(Histogram::PercentileFromCounts(split, 50.0), 1.0);
  // Anything above p50 interpolates inside (8, 16].
  double p75 = Histogram::PercentileFromCounts(split, 75.0);
  EXPECT_GT(p75, 8.0);
  EXPECT_LE(p75, 16.0);

  // Overflow bucket clamps to the largest finite bound.
  std::vector<uint64_t> overflow(Histogram::kNumBuckets, 0);
  overflow[Histogram::kNumFiniteBuckets] = 10;
  EXPECT_DOUBLE_EQ(
      Histogram::PercentileFromCounts(overflow, 99.0),
      static_cast<double>(
          Histogram::BucketBound(Histogram::kNumFiniteBuckets - 1)));
}

// Hot-path concurrency: all mutators are relaxed atomics; this must be
// clean under TSan and lose no increments.
TEST(MetricsTest, ConcurrentIncrementStress) {
  Counter* c = Registry::Instance().GetCounter("test.stress_counter");
  Gauge* g = Registry::Instance().GetGauge("test.stress_gauge");
  Histogram* h = Registry::Instance().GetHistogram("test.stress_hist");
  c->Reset();
  g->Reset();
  h->Reset();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        g->Add(1);
        h->Observe(static_cast<uint64_t>((t * kPerThread + i) % 5000));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(g->value(), static_cast<int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  auto snapshot = h->TakeSnapshot();
  uint64_t total = 0;
  for (uint64_t b : snapshot.bucket_counts) total += b;
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, RegistrySnapshotFindsMetricsByName) {
  Registry::Instance().GetCounter("test.snap_counter")->Increment(5);
  Registry::Instance().GetHistogram("test.snap_hist")->Observe(10);
  auto snapshot = Registry::Instance().Snapshot();
  EXPECT_EQ(snapshot.counter("test.snap_counter"), 5u);
  EXPECT_EQ(snapshot.counter("test.absent"), 0u);
  const auto* hist = snapshot.histogram("test.snap_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_EQ(snapshot.histogram("test.absent"), nullptr);
  // Render paths stay in sync with the snapshot contents.
  std::string table = metrics::RenderTable(snapshot);
  EXPECT_NE(table.find("test.snap_counter"), std::string::npos);
  std::string json = metrics::RenderJson(snapshot);
  EXPECT_NE(json.find("\"test.snap_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
}

TEST(MetricsTest, TraceSpanNesting) {
  QueryTrace trace;
  size_t outer = trace.BeginSpan("merge");
  size_t inner = trace.BeginSpan("dil_fallback");
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  {
    ScopedSpan scoped(&trace, "rank");
  }
  ScopedSpan noop(nullptr, "ignored");  // null-safe: must not crash

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].name, "merge");
  EXPECT_EQ(trace.spans()[0].depth, 0);
  EXPECT_FALSE(trace.spans()[0].open);
  EXPECT_EQ(trace.spans()[1].name, "dil_fallback");
  EXPECT_EQ(trace.spans()[1].depth, 1);  // nested inside "merge"
  EXPECT_EQ(trace.spans()[2].name, "rank");
  EXPECT_EQ(trace.spans()[2].depth, 0);
  EXPECT_GE(trace.spans()[1].start_us, trace.spans()[0].start_us);

  QueryTrace::TermStats term;
  term.term = "xql";
  term.postings_read = 3;
  trace.AddTermStats(term);
  std::string table = trace.FormatTable();
  EXPECT_NE(table.find("merge"), std::string::npos);
  EXPECT_NE(table.find("xql"), std::string::npos);
  std::string json = trace.FormatJson();
  EXPECT_NE(json.find("\"dil_fallback\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
}

// Engine-level tracing: one traced query populates the span tree and the
// per-term counters for every index kind.
TEST(MetricsTest, EngineQueryPopulatesTrace) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    QueryTrace trace;
    query::QueryOptions query_options;
    query_options.trace = &trace;
    auto response = (*engine)->Query("xql xyleme", 5, kind, query_options);
    ASSERT_TRUE(response.ok()) << response.status();

    std::vector<std::string> names;
    for (const auto& span : trace.spans()) names.push_back(span.name);
    for (const char* expected :
         {"parse", "lexicon", "cursor_open", "merge", "rank", "decorate"}) {
      EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
          << "missing span '" << expected << "' for kind "
          << index::IndexKindName(kind);
    }
    // HDIL may carry two rows per term: the TA phase and the DIL fallback
    // each append their own counters.
    ASSERT_GE(trace.terms().size(), 2u)
        << "per-term stats for kind " << index::IndexKindName(kind);
    uint64_t postings = 0;
    for (const char* keyword : {"xql", "xyleme"}) {
      bool found = false;
      for (const auto& term : trace.terms()) {
        if (term.term == keyword) found = true;
      }
      EXPECT_TRUE(found) << "no stats for '" << keyword << "' on "
                         << index::IndexKindName(kind);
    }
    for (const auto& term : trace.terms()) postings += term.postings_read;
    EXPECT_GT(postings, 0u) << index::IndexKindName(kind);
    EXPECT_EQ(trace.index_kind(), index::IndexKindName(kind));
    EXPECT_EQ(trace.query_text(), "xql xyleme");
  }
}

TEST(MetricsTest, SlowQueryRingBufferEviction) {
  EngineOptions options;
  options.indexes = {IndexKind::kHdil};
  options.slow_query_ms = -1;  // log every query (test hook)
  options.slow_query_log_entries = 4;
  options.result_cache_entries = 0;  // every query must execute
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const std::vector<std::string> queries = {"xql",    "xml",    "xyleme",
                                            "search", "ranked", "keyword"};
  for (const std::string& q : queries) {
    auto response = (*engine)->Query(q, 5, IndexKind::kHdil);
    ASSERT_TRUE(response.ok()) << response.status();
  }

  EXPECT_EQ((*engine)->slow_query_count(), queries.size());
  auto log = (*engine)->slow_queries();
  ASSERT_EQ(log.size(), 4u);  // capacity bounded the log
  // Oldest first, and the two oldest queries were evicted.
  EXPECT_EQ(log[0].query, "xyleme");
  EXPECT_EQ(log[1].query, "search");
  EXPECT_EQ(log[2].query, "ranked");
  EXPECT_EQ(log[3].query, "keyword");
  for (const auto& entry : log) {
    EXPECT_EQ(entry.kind, IndexKind::kHdil);
    EXPECT_GE(entry.wall_ms, 0.0);
    // The engine traced internally: the entry carries a span breakdown.
    EXPECT_FALSE(entry.trace.spans().empty());
  }
}

// The regression guarantee of the observability layer: the legacy per-query
// QueryStats and the registry agree — a snapshot delta around one query
// reproduces its stats exactly.
TEST(MetricsTest, QueryStatsMatchesRegistryDelta) {
  EngineOptions options;
  options.indexes = {IndexKind::kHdil};
  options.result_cache_entries = 0;
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  auto before = Registry::Instance().Snapshot();
  auto response = (*engine)->Query("xql xyleme", 5, IndexKind::kHdil);
  ASSERT_TRUE(response.ok()) << response.status();
  auto after = Registry::Instance().Snapshot();

  const query::QueryStats& stats = response->stats;
  EXPECT_EQ(after.counter("query.count") - before.counter("query.count"), 1u);
  EXPECT_EQ(after.counter("query.postings_scanned") -
                before.counter("query.postings_scanned"),
            stats.postings_scanned);
  EXPECT_EQ(after.counter("query.pages_skipped") -
                before.counter("query.pages_skipped"),
            stats.pages_skipped);
  EXPECT_EQ(after.counter("query.btree_probes") -
                before.counter("query.btree_probes"),
            stats.btree_probes);
  EXPECT_EQ(after.counter("query.hash_probes") -
                before.counter("query.hash_probes"),
            stats.hash_probes);
  EXPECT_EQ(after.counter("query.rounds") - before.counter("query.rounds"),
            stats.rounds);
  EXPECT_EQ(after.counter("query.sequential_reads") -
                before.counter("query.sequential_reads"),
            stats.sequential_reads);
  EXPECT_EQ(after.counter("query.random_reads") -
                before.counter("query.random_reads"),
            stats.random_reads);
  EXPECT_EQ(after.counter("query.blocks_pruned") -
                before.counter("query.blocks_pruned"),
            stats.blocks_pruned);
  EXPECT_EQ(after.counter("query.block_cache_hits") -
                before.counter("query.block_cache_hits"),
            stats.block_cache_hits);
  const auto* latency = after.histogram("query.latency_us");
  ASSERT_NE(latency, nullptr);
  const auto* latency_before = before.histogram("query.latency_us");
  EXPECT_EQ(latency->count - (latency_before ? latency_before->count : 0),
            1u);
}

// The engine reports end-to-end latency: a traced query's wall_ms covers at
// least its merge and decoration spans (decoration runs after the
// processor returns), and a result-cache hit reports the time it took
// rather than 0.
TEST(MetricsTest, WallMsIsEndToEnd) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  options.result_cache_entries = 16;
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  QueryTrace trace;
  query::QueryOptions query_options;
  query_options.trace = &trace;
  auto response =
      (*engine)->Query("xql xyleme", 5, IndexKind::kDil, query_options);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_FALSE(response->stats.result_cache_hit);
  int64_t merge_us = -1;
  int64_t decorate_us = -1;
  for (const QueryTrace::Span& span : trace.spans()) {
    if (span.name == "merge") merge_us = span.duration_us;
    if (span.name == "decorate") decorate_us = span.duration_us;
  }
  ASSERT_GE(merge_us, 0);
  ASSERT_GE(decorate_us, 0);
  EXPECT_GE(response->stats.wall_ms * 1e3,
            static_cast<double>(merge_us + decorate_us));

  auto hit = (*engine)->Query("xql xyleme", 5, IndexKind::kDil);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->stats.result_cache_hit);
  EXPECT_GT(hit->stats.wall_ms, 0.0);
}

// Same guarantee for the serving-path counters: per-engine ServingCounters
// and the registry's pool/result-cache counters move in lockstep.
TEST(MetricsTest, ServingCountersMatchRegistryDelta) {
  EngineOptions options;
  options.indexes = {IndexKind::kHdil};
  options.result_cache_entries = 64;
  options.cold_cache_per_query = false;  // let the pool accumulate hits
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  auto counters_before = (*engine)->serving_counters(IndexKind::kHdil);
  auto registry_before = Registry::Instance().Snapshot();

  for (int i = 0; i < 3; ++i) {
    auto response = (*engine)->Query("xql xyleme", 5, IndexKind::kHdil);
    ASSERT_TRUE(response.ok()) << response.status();
  }

  auto counters_after = (*engine)->serving_counters(IndexKind::kHdil);
  auto registry_after = Registry::Instance().Snapshot();

  EXPECT_EQ(counters_after.pool_hits - counters_before.pool_hits,
            registry_after.counter("pool.hits") -
                registry_before.counter("pool.hits"));
  EXPECT_EQ(counters_after.pool_misses - counters_before.pool_misses,
            registry_after.counter("pool.misses") -
                registry_before.counter("pool.misses"));
  EXPECT_EQ(counters_after.result_cache_lookups -
                counters_before.result_cache_lookups,
            registry_after.counter("result_cache.lookups") -
                registry_before.counter("result_cache.lookups"));
  EXPECT_EQ(counters_after.result_cache_hits -
                counters_before.result_cache_hits,
            registry_after.counter("result_cache.hits") -
                registry_before.counter("result_cache.hits"));
  // The repeats were served from the result cache and counted as hits on
  // both sides.
  EXPECT_GE(counters_after.result_cache_hits -
                counters_before.result_cache_hits,
            2u);
}

// Block-cache counters surface through both the registry and the engine's
// ServingCounters, and warm re-execution produces hits.
TEST(MetricsTest, BlockCacheCountersMatchRegistryDelta) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  options.result_cache_entries = 0;  // force real re-execution
  options.cold_cache_per_query = false;
  options.block_cache_bytes = 4u << 20;
  auto engine = XRankEngine::Build(Corpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  auto registry_before = Registry::Instance().Snapshot();
  auto first = (*engine)->Query("xql xyleme", 5, IndexKind::kDil);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = (*engine)->Query("xql xyleme", 5, IndexKind::kDil);
  ASSERT_TRUE(second.ok()) << second.status();
  auto registry_after = Registry::Instance().Snapshot();

  // The second execution re-reads the same list pages from the cache.
  EXPECT_GT(second->stats.block_cache_hits, 0u);
  EXPECT_EQ(registry_after.counter("query.block_cache_hits") -
                registry_before.counter("query.block_cache_hits"),
            first->stats.block_cache_hits + second->stats.block_cache_hits);
  EXPECT_GT(registry_after.counter("block_cache.insertions") -
                registry_before.counter("block_cache.insertions"),
            0u);
  EXPECT_GT(registry_after.counter("block_cache.hits") -
                registry_before.counter("block_cache.hits"),
            0u);

  auto counters = (*engine)->serving_counters(IndexKind::kDil);
  EXPECT_GT(counters.block_cache_lookups, 0u);
  EXPECT_GT(counters.block_cache_hits, 0u);
}

}  // namespace
}  // namespace xrank
