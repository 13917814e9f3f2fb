// Document-sharded serving (core/shard_router.h): the SHARDING root
// manifest, the scatter-gather parity contract (sharded == monolithic,
// bitwise, for every shard count / codec / aggregation / semantics), the
// θ-forwarding work-saving property, fleet-coherent stats, disk round-trip
// through Build/Open, tail-shard live ingest, and deadline/partial
// semantics. The ShardRouterConcurrencyTest suite runs under TSan in CI
// (tools/check_sharding.sh).

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/shard_router.h"
#include "datagen/dblp_gen.h"
#include "datagen/workload.h"
#include "index/codec.h"
#include "query/query.h"
#include "query/scoring.h"
#include "query/trace.h"
#include "xml/parser.h"

namespace xrank::core {
namespace {

using index::IndexKind;
using query::MergeAlgorithm;
using query::QueryOptions;
using query::QueryStats;
using query::QuerySemantics;
using query::RankAggregation;

// xml::Document is move-only, so oracle and router corpora are regenerated
// from the same seed instead of copied.
datagen::Corpus MakeCorpus(size_t num_papers = 32) {
  datagen::DblpOptions options;
  options.num_papers = num_papers;
  options.seed = 7;
  options.planted_sets = 4;
  options.mean_citations = 3.0;  // inter-document links cross shard cuts
  return datagen::GenerateDblp(options);
}

std::vector<std::vector<std::string>> MakeWorkload(
    const datagen::PlantedTerms& planted) {
  datagen::WorkloadOptions high;
  high.num_queries = 3;
  high.num_keywords = 2;
  high.mode = datagen::CorrelationMode::kHigh;
  high.seed = 3;
  std::vector<std::vector<std::string>> queries =
      datagen::MakeQueries(planted, high);
  datagen::WorkloadOptions low = high;
  low.mode = datagen::CorrelationMode::kLow;
  low.seed = 4;
  for (auto& q : datagen::MakeQueries(planted, low)) {
    queries.push_back(std::move(q));
  }
  return queries;
}

// Bitwise response equality: ids, ranks (EXPECT_EQ on the doubles — no
// tolerance), decoration, and order (i.e. tie-breaks) must all agree.
void ExpectSameResults(const EngineResponse& expected,
                       const EngineResponse& actual, const std::string& what) {
  ASSERT_EQ(expected.results.size(), actual.results.size()) << what;
  for (size_t i = 0; i < expected.results.size(); ++i) {
    EXPECT_EQ(expected.results[i].id, actual.results[i].id)
        << what << " result " << i;
    EXPECT_EQ(expected.results[i].rank, actual.results[i].rank)
        << what << " result " << i;
    EXPECT_EQ(expected.results[i].element_tag, actual.results[i].element_tag)
        << what << " result " << i;
    EXPECT_EQ(expected.results[i].document_uri,
              actual.results[i].document_uri)
        << what << " result " << i;
  }
}

// --- SHARDING manifest round-trip and validation ----------------------------

TEST(ShardingManifestTest, DirNamesAreZeroPadded) {
  EXPECT_EQ(ShardDirName(0), "shard-0000");
  EXPECT_EQ(ShardDirName(7), "shard-0007");
  EXPECT_EQ(ShardDirName(123), "shard-0123");
}

TEST(ShardingManifestTest, SerializeParseRoundTrip) {
  ShardingManifest manifest;
  manifest.shards.push_back({"shard-0000", 0, 10});
  manifest.shards.push_back({"shard-0001", 10, 3});
  manifest.shards.push_back({"shard-0002", 13, 7});

  auto parsed = ParseShardingManifest(SerializeShardingManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->shards.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed->shards[i].dir, manifest.shards[i].dir);
    EXPECT_EQ(parsed->shards[i].doc_base, manifest.shards[i].doc_base);
    EXPECT_EQ(parsed->shards[i].doc_count, manifest.shards[i].doc_count);
  }
}

TEST(ShardingManifestTest, ParseRejectsTamperedBytes) {
  ShardingManifest manifest;
  manifest.shards.push_back({"shard-0000", 0, 4});
  std::string blob = SerializeShardingManifest(manifest);

  // Flip one byte inside a committed line: the CRC trailer must notice.
  std::string tampered = blob;
  tampered[tampered.find("count 4")] = 'k';
  auto result = ParseShardingManifest(tampered);
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);

  // A torn file (no trailer) is refused too.
  auto torn = ParseShardingManifest(blob.substr(0, blob.size() / 2));
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
}

TEST(ShardingManifestTest, ParseRejectsBrokenPartitions) {
  // Gap between shards: not a contiguous cover.
  ShardingManifest gap;
  gap.shards.push_back({"shard-0000", 0, 2});
  gap.shards.push_back({"shard-0001", 3, 2});
  auto gap_result = ParseShardingManifest(SerializeShardingManifest(gap));
  EXPECT_EQ(gap_result.status().code(), StatusCode::kCorruption);

  // First shard not at document 0.
  ShardingManifest offset;
  offset.shards.push_back({"shard-0000", 1, 2});
  auto offset_result =
      ParseShardingManifest(SerializeShardingManifest(offset));
  EXPECT_EQ(offset_result.status().code(), StatusCode::kCorruption);

  // No shards at all.
  auto empty_result = ParseShardingManifest(SerializeShardingManifest({}));
  EXPECT_EQ(empty_result.status().code(), StatusCode::kCorruption);
}

TEST(ShardingFileTest, WriteReadRoundTripAndDetection) {
  std::string root = ::testing::TempDir() + "xrank_sharding_file_test";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  EXPECT_FALSE(IsShardedRoot(root));
  EXPECT_EQ(ReadShardingFile(root).status().code(), StatusCode::kNotFound);

  ShardingManifest manifest;
  manifest.shards.push_back({"shard-0000", 0, 5});
  manifest.shards.push_back({"shard-0001", 5, 5});
  ASSERT_TRUE(WriteShardingFile(root, manifest).ok());
  EXPECT_TRUE(IsShardedRoot(root));

  auto read = ReadShardingFile(root);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->shards.size(), 2u);
  EXPECT_EQ(read->shards[1].doc_base, 5u);
}

// --- parity: sharded == monolithic, bitwise ---------------------------------

TEST(ShardRouterParityTest, MatchesMonolithAcrossCodecsAndShardCounts) {
  const std::vector<std::vector<std::string>> queries =
      MakeWorkload(MakeCorpus().planted);
  const uint32_t codecs[] = {index::kPostingCodecVarint,
                             index::kPostingCodecBp128,
                             index::kPostingCodecVarintGb};
  for (uint32_t codec : codecs) {
    EngineOptions engine_options;
    engine_options.indexes = {IndexKind::kHdil, IndexKind::kDil};
    engine_options.build.format.codec_id = codec;
    engine_options.scoring.semantics = QuerySemantics::kDisjunctive;

    auto monolith =
        XRankEngine::Build(MakeCorpus().documents, engine_options);
    ASSERT_TRUE(monolith.ok()) << monolith.status();

    for (size_t shards : {1u, 2u, 4u, 8u}) {
      ShardRouterOptions router_options;
      router_options.num_shards = shards;
      router_options.engine = engine_options;
      auto router = ShardRouter::Build(MakeCorpus().documents, router_options);
      ASSERT_TRUE(router.ok()) << "codec " << codec << " shards " << shards
                               << ": " << router.status();
      ASSERT_EQ((*router)->shard_count(), shards);

      for (const auto& keywords : queries) {
        for (IndexKind kind : {IndexKind::kHdil, IndexKind::kDil}) {
          auto expected = (*monolith)->QueryKeywords(keywords, 10, kind);
          ASSERT_TRUE(expected.ok()) << expected.status();
          auto actual = (*router)->QueryKeywords(keywords, 10, kind);
          ASSERT_TRUE(actual.ok()) << actual.status();
          std::ostringstream what;
          what << "codec " << codec << " shards " << shards << " kind "
               << static_cast<int>(kind) << " query " << keywords[0];
          ExpectSameResults(*expected, *actual, what.str());
        }
      }
    }
  }
}

TEST(ShardRouterParityTest, MatchesMonolithAcrossSemanticsAndAggregations) {
  const std::vector<std::vector<std::string>> queries =
      MakeWorkload(MakeCorpus().planted);
  for (QuerySemantics semantics :
       {QuerySemantics::kConjunctive, QuerySemantics::kDisjunctive}) {
    for (RankAggregation aggregation :
         {RankAggregation::kMax, RankAggregation::kSum}) {
      EngineOptions engine_options;
      engine_options.indexes = {IndexKind::kHdil};
      engine_options.scoring.semantics = semantics;
      engine_options.scoring.aggregation = aggregation;

      auto monolith =
          XRankEngine::Build(MakeCorpus().documents, engine_options);
      ASSERT_TRUE(monolith.ok()) << monolith.status();

      // 3 shards: 32 documents do not divide evenly, exercising the
      // uneven-partition arithmetic.
      ShardRouterOptions router_options;
      router_options.num_shards = 3;
      router_options.engine = engine_options;
      auto router = ShardRouter::Build(MakeCorpus().documents, router_options);
      ASSERT_TRUE(router.ok()) << router.status();

      // kAuto picks the pruned path; kExhaustive is the oracle. Both must
      // match the monolith running the same algorithm.
      for (MergeAlgorithm algorithm :
           {MergeAlgorithm::kAuto, MergeAlgorithm::kExhaustive}) {
        QueryOptions query_options;
        query_options.algorithm = algorithm;
        for (const auto& keywords : queries) {
          auto expected = (*monolith)->QueryKeywords(keywords, 10,
                                                     IndexKind::kHdil,
                                                     query_options);
          ASSERT_TRUE(expected.ok()) << expected.status();
          auto actual = (*router)->QueryKeywords(keywords, 10,
                                                 IndexKind::kHdil,
                                                 query_options);
          ASSERT_TRUE(actual.ok()) << actual.status();
          std::ostringstream what;
          what << "semantics " << static_cast<int>(semantics)
               << " aggregation " << static_cast<int>(aggregation)
               << " algorithm " << static_cast<int>(algorithm);
          ExpectSameResults(*expected, *actual, what.str());
        }
      }
    }
  }
}

TEST(ShardRouterParityTest, FreeTextQueryMatchesMonolith) {
  EngineOptions engine_options;
  auto monolith = XRankEngine::Build(MakeCorpus().documents, engine_options);
  ASSERT_TRUE(monolith.ok()) << monolith.status();

  ShardRouterOptions router_options;
  router_options.num_shards = 4;
  router_options.engine = engine_options;
  auto router = ShardRouter::Build(MakeCorpus().documents, router_options);
  ASSERT_TRUE(router.ok()) << router.status();

  const auto quad = MakeCorpus().planted.high_correlation[0];
  const std::string text = quad[0] + " " + quad[1];
  auto expected = (*monolith)->Query(text, 10, IndexKind::kHdil);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto actual = (*router)->Query(text, 10, IndexKind::kHdil);
  ASSERT_TRUE(actual.ok()) << actual.status();
  ExpectSameResults(*expected, *actual, "free-text");
  EXPECT_FALSE(actual->results.empty());
}

TEST(ShardRouterParityTest, BuildRejectsDegeneratePartitions) {
  ShardRouterOptions options;
  options.num_shards = 0;
  EXPECT_EQ(ShardRouter::Build(MakeCorpus(4).documents, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.num_shards = 5;
  EXPECT_EQ(ShardRouter::Build(MakeCorpus(4).documents, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.num_shards = 2;
  EXPECT_EQ(ShardRouter::Build({}, options).status().code(),
            StatusCode::kInvalidArgument);
}

// --- θ forwarding ------------------------------------------------------------

// A corpus engineered so shard 0 owns the winners: its documents are tiny
// (few elements -> large ElemRank share, shallow -> little decay), while
// later shards hold fat documents whose thousands of deep, low-rank
// occurrences can only be pruned once shard 0's θ is known.
std::vector<xml::Document> MakeSkewedCorpus() {
  std::vector<xml::Document> documents;
  for (int d = 0; d < 16; ++d) {
    std::string xml;
    if (d < 4) {
      xml = "<paper><title>alpha beta</title></paper>";
    } else {
      xml = "<paper>";
      for (int i = 0; i < 300; ++i) {
        xml += "<sec><p>alpha beta filler" + std::to_string(i) + "</p></sec>";
      }
      xml += "</paper>";
    }
    auto doc = xml::ParseDocument(xml, "doc-" + std::to_string(d) + ".xml");
    EXPECT_TRUE(doc.ok()) << doc.status();
    documents.push_back(std::move(doc).value());
  }
  return documents;
}

ShardRouterOptions SkewedRouterOptions(bool forward_theta) {
  ShardRouterOptions options;
  options.num_shards = 4;
  options.engine.scoring.semantics = QuerySemantics::kDisjunctive;
  options.forward_theta = forward_theta;
  // Shard order is the θ propagation order, so the assertion "later shards
  // inherit shard 0's bound" is deterministic.
  options.sequential_scatter = true;
  return options;
}

TEST(ShardRouterThetaTest, ForwardedThresholdPrunesLaterShards) {
  const std::vector<std::string> keywords = {"alpha", "beta"};

  auto forwarding = ShardRouter::Build(MakeSkewedCorpus(),
                                       SkewedRouterOptions(true));
  ASSERT_TRUE(forwarding.ok()) << forwarding.status();
  std::vector<QueryStats> forwarded_stats;
  auto forwarded = (*forwarding)->QueryKeywords(keywords, 3, IndexKind::kHdil,
                                                QueryOptions{},
                                                &forwarded_stats);
  ASSERT_TRUE(forwarded.ok()) << forwarded.status();
  ASSERT_EQ(forwarded_stats.size(), 4u);

  // Shard 0 established θ, so shards 1..3 must do the pruning.
  auto pruned = [](const QueryStats& stats) {
    return stats.blocks_pruned + stats.docs_skipped + stats.pages_skipped;
  };
  uint64_t later_pruned = 0;
  for (size_t i = 1; i < 4; ++i) later_pruned += pruned(forwarded_stats[i]);
  EXPECT_GT(later_pruned, pruned(forwarded_stats[0]));
  EXPECT_GT((*forwarding)->router_counters().theta_raises, 0u);

  // Against a non-forwarding router: identical results (θ is purely a
  // work-saving channel), strictly less scanning with the floor shared.
  auto isolated = ShardRouter::Build(MakeSkewedCorpus(),
                                     SkewedRouterOptions(false));
  ASSERT_TRUE(isolated.ok()) << isolated.status();
  std::vector<QueryStats> isolated_stats;
  auto baseline = (*isolated)->QueryKeywords(keywords, 3, IndexKind::kHdil,
                                             QueryOptions{}, &isolated_stats);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ExpectSameResults(*baseline, *forwarded, "theta on/off");
  EXPECT_LT(forwarded->stats.postings_scanned,
            baseline->stats.postings_scanned);
  EXPECT_EQ((*isolated)->router_counters().theta_raises, 0u);

  // The winners really live in shard 0 (the premise of the skew).
  ASSERT_FALSE(forwarded->results.empty());
  EXPECT_LT(forwarded->results[0].id.components()[0], 4u);
}

// --- stats and observability -------------------------------------------------

TEST(ShardRouterStatsTest, MergedStatsAreTheSumOfShardStats) {
  ShardRouterOptions options;
  options.num_shards = 4;
  options.engine.scoring.semantics = QuerySemantics::kDisjunctive;
  auto router = ShardRouter::Build(MakeCorpus().documents, options);
  ASSERT_TRUE(router.ok()) << router.status();

  const auto quad = MakeCorpus().planted.low_correlation[0];
  std::vector<QueryStats> per_shard;
  auto response = (*router)->QueryKeywords({quad[0], quad[1]}, 10,
                                           IndexKind::kHdil, QueryOptions{},
                                           &per_shard);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(per_shard.size(), 4u);

  QueryStats sum;
  for (const QueryStats& stats : per_shard) {
    query::MergeQueryStats(&sum, stats);
  }
  const QueryStats& merged = response->stats;
  EXPECT_EQ(merged.postings_scanned, sum.postings_scanned);
  EXPECT_EQ(merged.pages_skipped, sum.pages_skipped);
  EXPECT_EQ(merged.btree_probes, sum.btree_probes);
  EXPECT_EQ(merged.hash_probes, sum.hash_probes);
  EXPECT_EQ(merged.rounds, sum.rounds);
  EXPECT_EQ(merged.blocks_pruned, sum.blocks_pruned);
  EXPECT_EQ(merged.docs_skipped, sum.docs_skipped);
  EXPECT_EQ(merged.pivot_advances, sum.pivot_advances);
  EXPECT_EQ(merged.block_cache_hits, sum.block_cache_hits);
  EXPECT_EQ(merged.sequential_reads, sum.sequential_reads);
  EXPECT_EQ(merged.random_reads, sum.random_reads);
  EXPECT_DOUBLE_EQ(merged.io_cost, sum.io_cost);
  EXPECT_FALSE(merged.partial);
  EXPECT_FALSE(merged.algorithm.empty());
  EXPECT_GT(merged.postings_scanned, 0u);

  ShardRouter::RouterCounters counters = (*router)->router_counters();
  EXPECT_EQ(counters.queries, 1u);
  EXPECT_EQ(counters.shard_queries, 4u);
  EXPECT_EQ(counters.errors, 0u);

  // θ-forwarded scatters bypass every shard's result cache — a truncated
  // per-shard top-k must never be cached (or served) as that shard's own.
  XRankEngine::ServingCounters serving =
      (*router)->serving_counters(IndexKind::kHdil);
  EXPECT_EQ(serving.result_cache_lookups, 0u);
}

TEST(ShardRouterStatsTest, TraceSplicesPerShardSpans) {
  ShardRouterOptions options;
  options.num_shards = 2;
  auto router = ShardRouter::Build(MakeCorpus(8).documents, options);
  ASSERT_TRUE(router.ok()) << router.status();

  const auto quad = MakeCorpus(8).planted.high_correlation[0];
  query::QueryTrace trace;
  QueryOptions query_options;
  query_options.trace = &trace;
  auto response = (*router)->QueryKeywords({quad[0], quad[1]}, 5,
                                           IndexKind::kHdil, query_options);
  ASSERT_TRUE(response.ok()) << response.status();

  bool saw_shard0 = false;
  bool saw_shard1 = false;
  for (const query::QueryTrace::Span& span : trace.spans()) {
    if (span.name == "shard[0]") saw_shard0 = true;
    if (span.name == "shard[1]") saw_shard1 = true;
  }
  EXPECT_TRUE(saw_shard0);
  EXPECT_TRUE(saw_shard1);
  bool saw_shard_count = false;
  for (const auto& [key, value] : trace.annotations()) {
    if (key == "shards" && value == "2") saw_shard_count = true;
  }
  EXPECT_TRUE(saw_shard_count);
}

// Each shard's trace starts when that shard starts, so under a sequential
// scatter the spliced shard spans follow one another instead of all
// opening at the scatter start.
TEST(ShardRouterStatsTest, SequentialShardSpansDoNotOverlap) {
  ShardRouterOptions options;
  options.num_shards = 4;
  options.sequential_scatter = true;
  auto router = ShardRouter::Build(MakeCorpus(8).documents, options);
  ASSERT_TRUE(router.ok()) << router.status();

  const auto quad = MakeCorpus(8).planted.high_correlation[0];
  query::QueryTrace trace;
  QueryOptions query_options;
  query_options.trace = &trace;
  auto response = (*router)->QueryKeywords({quad[0], quad[1]}, 5,
                                           IndexKind::kHdil, query_options);
  ASSERT_TRUE(response.ok()) << response.status();

  std::vector<const query::QueryTrace::Span*> shards(4, nullptr);
  for (const query::QueryTrace::Span& span : trace.spans()) {
    for (size_t i = 0; i < shards.size(); ++i) {
      if (span.name == "shard[" + std::to_string(i) + "]") shards[i] = &span;
    }
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    ASSERT_NE(shards[i], nullptr) << "no span for shard " << i;
  }
  for (size_t i = 0; i + 1 < shards.size(); ++i) {
    EXPECT_GE(shards[i + 1]->start_us,
              shards[i]->start_us + shards[i]->duration_us)
        << "shard[" << i + 1 << "] opens inside shard[" << i << "]";
  }
}

// --- disk round-trip ---------------------------------------------------------

TEST(ShardRouterDiskTest, BuildOpenRoundTripAndCorruptionDetection) {
  std::string root = ::testing::TempDir() + "xrank_shard_root_test";
  std::filesystem::remove_all(root);

  ShardRouterOptions options;
  options.num_shards = 3;
  options.root_dir = root;

  const auto quad = MakeCorpus().planted.high_correlation[0];
  const std::vector<std::string> keywords = {quad[0], quad[1]};

  EngineResponse expected;
  {
    auto built = ShardRouter::Build(MakeCorpus().documents, options);
    ASSERT_TRUE(built.ok()) << built.status();
    auto response = (*built)->QueryKeywords(keywords, 10, IndexKind::kHdil);
    ASSERT_TRUE(response.ok()) << response.status();
    expected = std::move(response).value();
    ASSERT_FALSE(expected.results.empty());
  }
  ASSERT_TRUE(IsShardedRoot(root));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::filesystem::exists(root + "/" + ShardDirName(i)));
  }

  // Reopen follows the committed SHARDING file and serves identically.
  {
    auto reopened = ShardRouter::Open(MakeCorpus().documents, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ((*reopened)->shard_count(), 3u);
    auto response = (*reopened)->QueryKeywords(keywords, 10, IndexKind::kHdil);
    ASSERT_TRUE(response.ok()) << response.status();
    ExpectSameResults(expected, *response, "reopen");
  }

  // A corpus whose size disagrees with the committed partition is refused.
  {
    auto wrong = ShardRouter::Open(MakeCorpus(8).documents, options);
    EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  }

  // One flipped byte inside SHARDING fails the CRC: corruption, not a
  // silently mis-partitioned router.
  {
    std::string path = root + "/" + std::string(kShardingFileName);
    std::ifstream in(path, std::ios::binary);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    size_t pos = blob.find("count");
    ASSERT_NE(pos, std::string::npos);
    blob[pos] = 'k';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << blob;
    out.close();
    auto corrupted = ShardRouter::Open(MakeCorpus().documents, options);
    EXPECT_EQ(corrupted.status().code(), StatusCode::kCorruption);
  }
}

// --- live ingest -------------------------------------------------------------

std::vector<xml::Document> MakeTinyCorpus() {
  std::vector<xml::Document> documents;
  for (int d = 0; d < 6; ++d) {
    auto doc = xml::ParseDocument(
        "<paper><title>base" + std::to_string(d) + " shared</title></paper>",
        "base-" + std::to_string(d) + ".xml");
    EXPECT_TRUE(doc.ok()) << doc.status();
    documents.push_back(std::move(doc).value());
  }
  return documents;
}

TEST(ShardRouterLiveTest, IngestRoutesToTailShardAndDeletesResolveAnywhere) {
  ShardRouterOptions options;
  options.num_shards = 3;
  auto router = ShardRouter::Build(MakeTinyCorpus(), options);
  ASSERT_TRUE(router.ok()) << router.status();

  ASSERT_TRUE((*router)
                  ->AddDocument("live-1.xml",
                                "<paper><title>zzzlive shared</title></paper>")
                  .ok());
  ASSERT_TRUE((*router)->WaitForMaintenance().ok());

  // The add landed in the tail shard (doc_base 4, 2 base documents), so its
  // global document id continues past the whole base corpus.
  auto response = (*router)->QueryKeywords({"zzzlive"}, 5, IndexKind::kHdil);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_FALSE(response->results.empty());
  EXPECT_EQ(response->results[0].document_uri, "live-1.xml");
  EXPECT_GE(response->results[0].id.components()[0], 6u);

  // Every base document stays queryable alongside the live one.
  auto shared = (*router)->QueryKeywords({"shared"}, 10, IndexKind::kHdil);
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_EQ(shared->results.size(), 7u);

  // A URI a non-tail shard's base corpus holds is refused up front — the
  // tail engine could not see the duplicate on its own.
  Status duplicate = (*router)->AddDocument(
      "base-0.xml", "<paper><title>dup</title></paper>");
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument);

  // Deletes resolve the URI against whichever shard holds it.
  ASSERT_TRUE((*router)->DeleteDocument("live-1.xml").ok());
  auto gone = (*router)->QueryKeywords({"zzzlive"}, 5, IndexKind::kHdil);
  ASSERT_TRUE(gone.ok()) << gone.status();
  EXPECT_TRUE(gone->results.empty());
  ASSERT_TRUE((*router)->DeleteDocument("base-0.xml").ok());
  EXPECT_EQ((*router)->DeleteDocument("no-such.xml").code(),
            StatusCode::kNotFound);
}

// --- deadline / partial results ----------------------------------------------

TEST(ShardRouterDeadlineTest, CancelFollowsPartialResultContract) {
  ShardRouterOptions options;
  options.num_shards = 2;
  auto router = ShardRouter::Build(MakeCorpus(8).documents, options);
  ASSERT_TRUE(router.ok()) << router.status();
  const auto quad = MakeCorpus(8).planted.high_correlation[0];

  std::atomic<bool> cancel{true};
  QueryOptions query_options;
  query_options.cancel = &cancel;

  // Without partial results: the scatter fails as a whole.
  auto failed = (*router)->QueryKeywords({quad[0], quad[1]}, 5,
                                         IndexKind::kHdil, query_options);
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*router)->router_counters().deadline_exceeded, 1u);

  // With partial results: whatever the shards scanned comes back, marked.
  query_options.allow_partial_results = true;
  std::vector<QueryStats> per_shard;
  auto partial = (*router)->QueryKeywords({quad[0], quad[1]}, 5,
                                          IndexKind::kHdil, query_options,
                                          &per_shard);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->stats.partial);
  EXPECT_EQ((*router)->router_counters().partial_results, 1u);

  // An unconstrained query still succeeds afterwards.
  cancel.store(false);
  auto ok = (*router)->QueryKeywords({quad[0], quad[1]}, 5, IndexKind::kHdil,
                                     query_options);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_FALSE(ok->stats.partial);
}

// --- concurrency (TSan lane: tools/check_sharding.sh) ------------------------

TEST(ShardRouterConcurrencyTest, ParallelScattersMatchSequentialAnswers) {
  ShardRouterOptions options;
  options.num_shards = 4;
  options.engine.scoring.semantics = QuerySemantics::kDisjunctive;
  auto router = ShardRouter::Build(MakeCorpus().documents, options);
  ASSERT_TRUE(router.ok()) << router.status();

  datagen::Corpus corpus = MakeCorpus();
  std::vector<std::vector<std::string>> queries;
  for (const auto& quad : corpus.planted.high_correlation) {
    queries.push_back({quad[0], quad[1]});
  }
  for (const auto& quad : corpus.planted.low_correlation) {
    queries.push_back({quad[0], quad[1]});
  }

  std::vector<EngineResponse> expected;
  for (const auto& keywords : queries) {
    auto response = (*router)->QueryKeywords(keywords, 10, IndexKind::kHdil);
    ASSERT_TRUE(response.ok()) << response.status();
    expected.push_back(std::move(response).value());
  }

  // Concurrent scatters share the pool, the scatter mutex, and (within one
  // query) a θ floor; every thread must still see the sequential answers.
  constexpr int kThreads = 6;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t q = 0; q < queries.size() * 3; ++q) {
        const size_t i = (q + static_cast<size_t>(t)) % queries.size();
        auto response =
            (*router)->QueryKeywords(queries[i], 10, IndexKind::kHdil);
        if (!response.ok() ||
            response->results.size() != expected[i].results.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t r = 0; r < response->results.size(); ++r) {
          if (!(response->results[r].id == expected[i].results[r].id) ||
              response->results[r].rank != expected[i].results[r].rank) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT((*router)->router_counters().queries, 0u);
}

TEST(ShardRouterConcurrencyTest, QueriesRaceSafelyWithTailIngest) {
  ShardRouterOptions options;
  options.num_shards = 3;
  auto router = ShardRouter::Build(MakeCorpus(12).documents, options);
  ASSERT_TRUE(router.ok()) << router.status();
  const auto quad = MakeCorpus(12).planted.high_correlation[0];
  const std::vector<std::string> keywords = {quad[0], quad[1]};

  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int q = 0; q < 30; ++q) {
        auto response =
            (*router)->QueryKeywords(keywords, 10, IndexKind::kHdil);
        if (!response.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int d = 0; d < 6; ++d) {
    Status added = (*router)->AddDocument(
        "live-" + std::to_string(d) + ".xml",
        "<paper><title>racing" + std::to_string(d) + "</title></paper>");
    if (!added.ok()) failures.fetch_add(1);
  }
  for (std::thread& client : clients) client.join();
  ASSERT_TRUE((*router)->WaitForMaintenance().ok());
  EXPECT_EQ(failures.load(), 0u);

  auto live = (*router)->QueryKeywords({"racing3"}, 5, IndexKind::kHdil);
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live->results.size(), 1u);
}

}  // namespace
}  // namespace xrank::core
