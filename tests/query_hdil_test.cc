// Tests for HDIL: the probe primitives over the sparse B+-tree + full list,
// result equivalence with DIL, and the adaptive RDIL->DIL switch
// (paper Section 4.4).

#include "query/hdil_query.h"

#include <gtest/gtest.h>

#include <random>

#include "datagen/dblp_gen.h"
#include "query/dil_query.h"
#include "query/trace.h"
#include "test_util.h"
#include "xml/serializer.h"

namespace xrank::query {
namespace {

using index::IndexKind;
using testutil::BuildIndexedCorpus;

std::vector<std::pair<std::string, std::string>> SerializeCorpus(
    const datagen::Corpus& corpus) {
  std::vector<std::pair<std::string, std::string>> docs;
  for (const xml::Document& doc : corpus.documents) {
    docs.emplace_back(xml::Serialize(doc), doc.uri);
  }
  return docs;
}

// DIL and HDIL over `docs` with the given cost-model weights. The weights
// feed HDIL's plan choice, so a test can place a corpus on either side of
// the RDIL-vs-DIL crossover.
std::unique_ptr<harness::IndexedCorpus> BuildDilHdil(
    const std::vector<std::pair<std::string, std::string>>& docs,
    const storage::CostModelOptions& cost) {
  std::vector<xml::Document> parsed;
  for (const auto& [text, uri] : docs) {
    auto doc = xml::ParseDocument(text, uri);
    EXPECT_TRUE(doc.ok()) << doc.status();
    if (doc.ok()) parsed.push_back(std::move(doc).value());
  }
  core::EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  options.cost = cost;
  auto corpus = harness::BuildIndexedCorpus(parsed, options);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  return corpus.ok() ? std::move(corpus).value() : nullptr;
}

// A device on which a seek costs no more than a sequential page read: the
// floor under RDIL's first round shrinks to 2n - 1 page reads, so lists of
// a few pages already leave RDIL in play.
storage::CostModelOptions FlatCost() {
  storage::CostModelOptions cost;
  cost.random_read_cost = 1.0;
  cost.sequential_read_cost = 1.0;
  return cost;
}

// Same ids in the same order, and bitwise-equal ranks.
void ExpectSameResults(const QueryResponse& expected,
                       const QueryResponse& actual, const std::string& label) {
  ASSERT_EQ(expected.results.size(), actual.results.size()) << label;
  for (size_t i = 0; i < expected.results.size(); ++i) {
    EXPECT_EQ(expected.results[i].id, actual.results[i].id)
        << label << " i=" << i;
    EXPECT_EQ(expected.results[i].rank, actual.results[i].rank)
        << label << " i=" << i;
  }
}

TEST(HdilProbeTest, LongestCommonPrefixMatchesBruteForce) {
  datagen::DblpOptions gen;
  gen.num_papers = 120;
  gen.seed = 3;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildIndexedCorpus(SerializeCorpus(corpus_data));
  const index::Lexicon* lexicon = corpus->lexicon(IndexKind::kHdil);
  storage::BufferPool* pool = corpus->pool(IndexKind::kHdil);

  // Pick a common term and probe with IDs from another term's postings.
  const index::TermInfo* target = lexicon->Find("sel0");
  ASSERT_NE(target, nullptr);
  const auto& probes = corpus->extracted.dewey_postings.at("sel1");
  const auto& targets = corpus->extracted.dewey_postings.at("sel0");
  for (const index::Posting& probe : probes) {
    auto lcp = HdilLongestCommonPrefix(pool, lexicon, *target, probe.id);
    ASSERT_TRUE(lcp.ok()) << lcp.status();
    size_t expected = 0;
    for (const index::Posting& posting : targets) {
      expected = std::max(expected, probe.id.CommonPrefixLength(posting.id));
    }
    EXPECT_EQ(*lcp, expected) << probe.id.ToString();
  }
}

TEST(HdilProbeTest, ScanPrefixMatchesBruteForce) {
  datagen::DblpOptions gen;
  gen.num_papers = 100;
  gen.seed = 4;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildIndexedCorpus(SerializeCorpus(corpus_data));
  const index::Lexicon* lexicon = corpus->lexicon(IndexKind::kHdil);
  storage::BufferPool* pool = corpus->pool(IndexKind::kHdil);

  const index::TermInfo* info = lexicon->Find("sel0");
  ASSERT_NE(info, nullptr);
  const auto& postings = corpus->extracted.dewey_postings.at("sel0");
  // Prefixes: document roots and the deep posting IDs themselves.
  std::vector<dewey::DeweyId> prefixes;
  for (size_t i = 0; i < postings.size(); i += 7) {
    prefixes.push_back(postings[i].id);
    prefixes.push_back(postings[i].id.Prefix(1));
  }
  prefixes.push_back(dewey::DeweyId({999}));  // matches nothing
  for (const dewey::DeweyId& prefix : prefixes) {
    std::vector<dewey::DeweyId> scanned;
    ASSERT_TRUE(HdilScanPrefix(pool, lexicon, *info, prefix,
                               [&](const index::Posting& posting) {
                                 scanned.push_back(posting.id);
                                 return true;
                               })
                    .ok());
    std::vector<dewey::DeweyId> expected;
    for (const index::Posting& posting : postings) {
      if (prefix.IsPrefixOf(posting.id)) expected.push_back(posting.id);
    }
    EXPECT_EQ(scanned, expected) << prefix.ToString();
  }
}

TEST(HdilQueryTest, MatchesDilResultsEitherMode) {
  datagen::DblpOptions gen;
  gen.num_papers = 200;
  gen.seed = 5;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildIndexedCorpus(SerializeCorpus(corpus_data));

  DilQueryProcessor dil(corpus->pool(IndexKind::kDil),
                        corpus->lexicon(IndexKind::kDil), ScoringOptions{});
  HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                          corpus->lexicon(IndexKind::kHdil),
                          ScoringOptions{});
  const auto& quad = corpus_data.planted.high_correlation[0];
  const auto& low = corpus_data.planted.low_correlation[0];
  std::vector<std::vector<std::string>> queries = {
      {quad[0], quad[1]},          // high correlation: RDIL mode finishes
      {low[0], low[1]},            // low correlation: switches to DIL
      {quad[0], quad[1], quad[2]},
      {"sel1", "sel2"},
  };
  for (const auto& keywords : queries) {
    auto dil_response = dil.Execute(keywords, 10);
    auto hdil_response = hdil.Execute(keywords, 10);
    ASSERT_TRUE(dil_response.ok() && hdil_response.ok());
    ASSERT_EQ(dil_response->results.size(), hdil_response->results.size())
        << keywords[0];
    for (size_t i = 0; i < dil_response->results.size(); ++i) {
      EXPECT_EQ(dil_response->results[i].id, hdil_response->results[i].id)
          << keywords[0] << " i=" << i;
      EXPECT_NEAR(dil_response->results[i].rank,
                  hdil_response->results[i].rank, 1e-9);
    }
  }
}

TEST(HdilQueryTest, SwitchesToDilWhenRankPrefixExhausts) {
  // Keywords that never co-occur: the rank prefixes run dry without
  // producing m results, forcing the DIL fallback (Section 4.4.2).
  std::vector<std::pair<std::string, std::string>> docs;
  for (int i = 0; i < 40; ++i) {
    docs.emplace_back(i % 2 == 0 ? "<a><b>eventerm pad</b></a>"
                                 : "<a><b>oddterm pad</b></a>",
                      "d" + std::to_string(i));
  }
  index::HdilOptions hdil_options;
  hdil_options.min_rank_entries = 4;  // tiny prefix to force exhaustion
  hdil_options.rank_fraction = 0.1;
  auto corpus = BuildIndexedCorpus(docs, hdil_options);
  HdilQueryProcessor hdil(corpus->pool(IndexKind::kHdil),
                          corpus->lexicon(IndexKind::kHdil),
                          ScoringOptions{});
  auto response = hdil.Execute({"eventerm", "oddterm"}, 5);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->stats.switched_to_dil);
  EXPECT_TRUE(response->results.empty());
}

TEST(HdilQueryTest, StaysInRdilModeOnCorrelatedKeywords) {
  // Paper Fig. 10's regime: correlated keywords whose lists are long next
  // to the floor under RDIL's first round. Under flat seek/scan weights
  // that floor is 3 page reads for two keywords, while each planted list
  // here spans several pages.
  datagen::DblpOptions gen;
  gen.num_papers = 1000;
  gen.planted_sets = 1;
  gen.high_corr_frequency = 0.5;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildDilHdil(SerializeCorpus(corpus_data), FlatCost());
  ASSERT_NE(corpus, nullptr);
  const auto& quad = corpus_data.planted.high_correlation[0];
  const index::Lexicon* lexicon = corpus->lexicon(IndexKind::kHdil);
  ASSERT_GT(lexicon->Find(quad[0])->list.page_count +
                lexicon->Find(quad[1])->list.page_count,
            3u);
  auto response = corpus->QueryKeywords({quad[0], quad[1]}, 3,
                                        IndexKind::kHdil);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->stats.switched_to_dil);
  EXPECT_TRUE(response->stats.threshold_terminated);
  EXPECT_GE(response->results.size(), 3u);
  auto dil = corpus->QueryKeywords({quad[0], quad[1]}, 3, IndexKind::kDil);
  ASSERT_TRUE(dil.ok());
  ExpectSameResults(*dil, *response, "quad");
}

TEST(HdilQueryTest, GoesStraightToDilOnShortLists) {
  // Single-page lists under the default 50:1 weights: DIL's predicted scan
  // (one seek per list) is cheaper than RDIL's first round could be, so
  // HDIL runs the DIL merge without touching a rank prefix or a B+-tree.
  datagen::DblpOptions gen;
  gen.num_papers = 300;
  gen.high_corr_frequency = 0.3;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto corpus = BuildDilHdil(SerializeCorpus(corpus_data),
                             storage::CostModelOptions{});
  ASSERT_NE(corpus, nullptr);
  const auto& quad = corpus_data.planted.high_correlation[0];
  for (size_t n = 1; n <= 3; ++n) {
    std::vector<std::string> keywords(quad.begin(), quad.begin() + n);
    QueryTrace trace;
    QueryOptions options;
    options.trace = &trace;
    auto hdil = corpus->QueryKeywords(keywords, 3, IndexKind::kHdil, options);
    auto dil = corpus->QueryKeywords(keywords, 3, IndexKind::kDil);
    ASSERT_TRUE(hdil.ok() && dil.ok());
    EXPECT_TRUE(hdil->stats.switched_to_dil) << n;
    EXPECT_EQ(hdil->stats.rounds, 0u) << n;
    EXPECT_EQ(hdil->stats.btree_probes, 0u) << n;
    EXPECT_EQ(hdil->stats.io_cost, dil->stats.io_cost) << n;
    EXPECT_STREQ(DilPlanLabel(hdil->stats), "DIL chosen up front");
    ExpectSameResults(*dil, *hdil, "n=" + std::to_string(n));
    // The trace shows the up-front choice, not a mid-run switch.
    std::vector<std::string> top_spans;
    for (const QueryTrace::Span& span : trace.spans()) {
      if (span.depth == 0) top_spans.push_back(span.name);
    }
    EXPECT_EQ(top_spans, (std::vector<std::string>{"lexicon", "dil_direct"}))
        << n;
  }
}

TEST(HdilQueryTest, FinishesWhenWholeListPrefixIsExhausted) {
  // A rare keyword (five occurrences: its rank prefix is its whole list)
  // ANDed with a keyword whose list spans several pages. RDIL walks the
  // rare list dry, and every answer contains one of those five
  // occurrences, so HDIL answers from its accumulator without a rescan.
  std::vector<std::pair<std::string, std::string>> docs;
  for (int i = 0; i < 600; ++i) {
    std::string body = "<a><b>common filler" + std::to_string(i) +
                       "</b><c>common</c>";
    if (i % 120 == 7) body += "<d>rare common</d>";
    body += "</a>";
    docs.emplace_back(body, "d" + std::to_string(i));
  }
  auto corpus = BuildDilHdil(docs, FlatCost());
  ASSERT_NE(corpus, nullptr);
  const index::Lexicon* lexicon = corpus->lexicon(IndexKind::kHdil);
  const index::TermInfo* rare = lexicon->Find("rare");
  ASSERT_NE(rare, nullptr);
  ASSERT_EQ(rare->rank_list.entry_count, rare->list.entry_count);
  ASSERT_GT(lexicon->Find("common")->list.page_count, 2u);
  for (size_t m : {1, 10, 50}) {
    for (const std::vector<std::string>& keywords :
         {std::vector<std::string>{"rare", "common"},
          std::vector<std::string>{"common", "rare"}}) {
      auto hdil = corpus->QueryKeywords(keywords, m, IndexKind::kHdil);
      auto dil = corpus->QueryKeywords(keywords, m, IndexKind::kDil);
      ASSERT_TRUE(hdil.ok() && dil.ok());
      std::string label = keywords[0] + " m=" + std::to_string(m);
      EXPECT_GT(hdil->stats.rounds, 0u) << label;
      EXPECT_FALSE(hdil->stats.switched_to_dil) << label;
      if (m == 50) {
        // Fewer than m answers exist: only exhausting the rare list ends
        // RDIL mode.
        EXPECT_FALSE(hdil->stats.threshold_terminated) << label;
      }
      ExpectSameResults(*dil, *hdil, label);
    }
  }
}

// Seeded random conjunctive queries of 1-3 keywords over a dblp corpus
// whose lists run from one page to many, under both the default and flat
// cost weights: whichever plan HDIL picks and however its RDIL phase ends,
// its top-m equals DIL's in id and rank.
TEST(HdilQueryTest, RandomQueriesMatchDil) {
  datagen::DblpOptions gen;
  gen.num_papers = 1200;
  gen.seed = 11;
  gen.high_corr_frequency = 0.3;
  gen.dense_plant_rate = 0.2;
  datagen::Corpus corpus_data = datagen::GenerateDblp(gen);
  auto docs = SerializeCorpus(corpus_data);
  size_t direct = 0, rdil_only = 0, fallback = 0;
  for (const storage::CostModelOptions& cost :
       {storage::CostModelOptions{}, FlatCost()}) {
    auto corpus = BuildDilHdil(docs, cost);
    ASSERT_NE(corpus, nullptr);
    std::vector<std::string> short_terms, long_terms;
    for (const auto& [term, info] :
         corpus->lexicon(IndexKind::kHdil)->terms()) {
      (info.list.page_count == 1 ? short_terms : long_terms).push_back(term);
    }
    ASSERT_FALSE(short_terms.empty());
    ASSERT_FALSE(long_terms.empty());
    std::mt19937_64 rng(20031);
    for (int q = 0; q < 60; ++q) {
      size_t n = 1 + rng() % 3;
      std::vector<std::string> keywords;
      for (size_t i = 0; i < n; ++i) {
        const auto& pool = rng() % 3 == 0 ? short_terms : long_terms;
        keywords.push_back(pool[rng() % pool.size()]);
      }
      for (size_t m : {1, 10, 50}) {
        auto hdil = corpus->QueryKeywords(keywords, m, IndexKind::kHdil);
        auto dil = corpus->QueryKeywords(keywords, m, IndexKind::kDil);
        ASSERT_TRUE(hdil.ok() && dil.ok());
        std::string label = "q" + std::to_string(q) + " m=" +
                            std::to_string(m) + " " + keywords[0];
        ExpectSameResults(*dil, *hdil, label);
        if (!hdil->stats.switched_to_dil) {
          ++rdil_only;
        } else if (hdil->stats.rounds == 0) {
          ++direct;
        } else {
          ++fallback;
        }
      }
    }
  }
  // Every way an HDIL query can be served was exercised.
  EXPECT_GT(direct, 0u);
  EXPECT_GT(rdil_only, 0u);
  EXPECT_GT(fallback, 0u);
}

}  // namespace
}  // namespace xrank::query
