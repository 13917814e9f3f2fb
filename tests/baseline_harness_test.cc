// The reproduction harness (harness/indexed_corpus.h): the cross-kind
// checks over the paper's five index organizations, and parity between a
// harness query and the engine's cold-cache query for the kinds both run.

#include "harness/indexed_corpus.h"

#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "datagen/dblp_gen.h"
#include "test_util.h"

namespace xrank {
namespace {

using core::EngineOptions;
using index::IndexKind;

const std::vector<std::vector<std::string>>& Figure1Queries() {
  static const std::vector<std::vector<std::string>> queries = {
      {"XQL"},
      {"XQL", "language"},
      {"Ricardo", "XQL"},
      {"xml", "workshop"},
      {"querying", "xyleme"}};
  return queries;
}

// All three Dewey-based processors must agree on the result set and ranks.
TEST(BaselineHarnessTest, ProcessorsAgreeOnFigure1) {
  auto corpus = testutil::BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  ASSERT_NE(corpus, nullptr);
  for (const auto& keywords : Figure1Queries()) {
    auto dil = corpus->QueryKeywords(keywords, 20, IndexKind::kDil);
    auto rdil = corpus->QueryKeywords(keywords, 20, IndexKind::kRdil);
    auto hdil = corpus->QueryKeywords(keywords, 20, IndexKind::kHdil);
    ASSERT_TRUE(dil.ok() && rdil.ok() && hdil.ok()) << keywords[0];
    ASSERT_FALSE(dil->results.empty()) << keywords[0];
    ASSERT_EQ(dil->results.size(), rdil->results.size()) << keywords[0];
    ASSERT_EQ(dil->results.size(), hdil->results.size()) << keywords[0];
    for (size_t i = 0; i < dil->results.size(); ++i) {
      EXPECT_EQ(dil->results[i].id, rdil->results[i].id) << keywords[0];
      EXPECT_NEAR(dil->results[i].rank, rdil->results[i].rank, 1e-9);
      EXPECT_EQ(dil->results[i].id, hdil->results[i].id) << keywords[0];
      EXPECT_NEAR(dil->results[i].rank, hdil->results[i].rank, 1e-9);
    }
  }
}

// Naive-ID and Naive-Rank answer with element ordinals; the harness decodes
// them to the same real elements, and the most specific (DIL) results are
// among them — the naive adaptation also returns every ancestor.
TEST(BaselineHarnessTest, NaiveOrdinalsDecodeToTheSameElements) {
  auto corpus = testutil::BuildIndexedCorpus({{testutil::Figure1Xml(), "f"}});
  ASSERT_NE(corpus, nullptr);
  for (const auto& keywords : Figure1Queries()) {
    auto by_id = corpus->QueryKeywords(keywords, 100, IndexKind::kNaiveId);
    auto by_rank = corpus->QueryKeywords(keywords, 100, IndexKind::kNaiveRank);
    auto dil = corpus->QueryKeywords(keywords, 100, IndexKind::kDil);
    ASSERT_TRUE(by_id.ok() && by_rank.ok() && dil.ok()) << keywords[0];
    ASSERT_FALSE(by_id->results.empty()) << keywords[0];
    ASSERT_EQ(by_id->results.size(), by_rank->results.size()) << keywords[0];
    std::set<dewey::DeweyId> naive_ids;
    for (size_t i = 0; i < by_id->results.size(); ++i) {
      const dewey::DeweyId& id = by_id->results[i].id;
      EXPECT_EQ(id, by_rank->results[i].id) << keywords[0];
      EXPECT_NEAR(by_id->results[i].rank, by_rank->results[i].rank, 1e-9);
      EXPECT_TRUE(corpus->graph.FindByDewey(id).ok()) << id.ToString();
      naive_ids.insert(id);
    }
    for (const auto& result : dil->results) {
      EXPECT_EQ(naive_ids.count(result.id), 1u)
          << keywords[0] << ": " << result.id.ToString();
    }
  }
}

// For the kinds both serve, a harness query is the engine's cold-cache
// query: same results, same cost-model figures.
TEST(BaselineHarnessTest, MatchesEngineColdQueries) {
  datagen::DblpOptions gen;
  gen.num_papers = 120;
  datagen::Corpus generated = datagen::GenerateDblp(gen);
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  options.result_cache_entries = 0;
  auto corpus = harness::BuildIndexedCorpus(generated.documents, options);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  auto engine =
      core::XRankEngine::Build(std::move(generated.documents), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto& quad = generated.planted.high_correlation[0];
  const auto& low = generated.planted.low_correlation[0];
  const std::vector<std::vector<std::string>> queries = {
      {quad[0]}, {quad[0], quad[1]}, {low[0], low[1]}, {"sel0"}};
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    for (const auto& keywords : queries) {
      auto expected = (*engine)->QueryKeywords(keywords, 10, kind);
      auto actual = (*corpus)->QueryKeywords(keywords, 10, kind);
      ASSERT_TRUE(expected.ok() && actual.ok()) << keywords[0];
      std::string what = std::string(index::IndexKindName(kind)) + " " +
                         keywords[0];
      ASSERT_EQ(actual->results.size(), expected->results.size()) << what;
      for (size_t i = 0; i < actual->results.size(); ++i) {
        EXPECT_EQ(actual->results[i].id, expected->results[i].id) << what;
        EXPECT_EQ(actual->results[i].rank, expected->results[i].rank) << what;
      }
      EXPECT_EQ(actual->stats.io_cost, expected->stats.io_cost) << what;
      EXPECT_EQ(actual->stats.sequential_reads,
                expected->stats.sequential_reads)
          << what;
      EXPECT_EQ(actual->stats.random_reads, expected->stats.random_reads)
          << what;
      EXPECT_EQ(actual->stats.postings_scanned,
                expected->stats.postings_scanned)
          << what;
      EXPECT_EQ(actual->stats.switched_to_dil, expected->stats.switched_to_dil)
          << what;
    }
  }
}

}  // namespace
}  // namespace xrank
