// Tests for the alternative ranking/semantics modes: tf-idf posting ranks
// (paper Section 4's "other ways of ranking XML elements") and disjunctive
// query semantics (Section 2.2).

#include <gtest/gtest.h>

#include <set>

#include "core/engine.h"
#include "index/index_builder.h"
#include "query/dil_query.h"
#include "query/rdil_query.h"
#include "test_util.h"
#include "xml/parser.h"

namespace xrank {
namespace {

using core::EngineOptions;
using core::XRankEngine;
using index::IndexKind;

std::vector<xml::Document> ParseAll(
    std::vector<std::pair<const char*, const char*>> sources) {
  std::vector<xml::Document> docs;
  for (const auto& [text, uri] : sources) {
    auto doc = xml::ParseDocument(text, uri);
    EXPECT_TRUE(doc.ok()) << doc.status();
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

// --- tf-idf ---

TEST(TfIdfTest, RanksReflectTermFrequencyAndRarity) {
  // 'common' in every doc; 'rare' once; 'burst' appears 4x in one element.
  auto docs = ParseAll({
      {"<d><p>common common burst burst burst burst</p></d>", "d1"},
      {"<d><p>common filler</p></d>", "d2"},
      {"<d><p>common rare</p></d>", "d3"},
      {"<d><p>common filler</p></d>", "d4"},
  });
  graph::GraphBuilder builder;
  for (const auto& doc : docs) ASSERT_TRUE(builder.AddDocument(doc).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  auto ranks = rank::ComputeElemRank(*graph, rank::ElemRankOptions{});
  ASSERT_TRUE(ranks.ok());

  index::ExtractionOptions options;
  options.rank_source = index::RankSource::kTfIdf;
  auto extracted = index::ExtractPostings(*graph, ranks->ranks, options);
  ASSERT_TRUE(extracted.ok()) << extracted.status();

  // All ranks in (0, 1].
  for (const auto& [term, postings] : extracted->dewey_postings) {
    for (const auto& posting : postings) {
      EXPECT_GT(posting.elem_rank, 0.0f) << term;
      EXPECT_LE(posting.elem_rank, 1.0f) << term;
    }
  }
  // Rare term outranks the ubiquitous one (idf).
  float rare = extracted->dewey_postings.at("rare")[0].elem_rank;
  float common = extracted->dewey_postings.at("common")[0].elem_rank;
  EXPECT_GT(rare, common);
  // Term frequency raises the rank (tf), at equal df... 'burst' df=1 like
  // 'rare' but tf=4 > 1.
  float burst = extracted->dewey_postings.at("burst")[0].elem_rank;
  EXPECT_GT(burst, rare);
}

TEST(TfIdfTest, EngineEndToEndAgreesAcrossIndexes) {
  EngineOptions options;
  options.extraction.rank_source = index::RankSource::kTfIdf;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  std::vector<xml::Document> docs;
  auto doc = xml::ParseDocument(testutil::Figure1Xml(), "f");
  ASSERT_TRUE(doc.ok());
  docs.push_back(std::move(doc).value());
  // RDIL, a paper baseline, runs on the harness over the same corpus.
  EngineOptions rdil_options = options;
  rdil_options.indexes = {IndexKind::kRdil};
  auto harness = harness::BuildIndexedCorpus(docs, rdil_options);
  ASSERT_TRUE(harness.ok()) << harness.status();
  auto engine = XRankEngine::Build(std::move(docs), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (std::vector<std::string> keywords :
       std::vector<std::vector<std::string>>{
           {"xql"}, {"xql", "language"}, {"querying", "xyleme"}}) {
    auto dil = (*engine)->QueryKeywords(keywords, 10, IndexKind::kDil);
    auto hdil = (*engine)->QueryKeywords(keywords, 10, IndexKind::kHdil);
    auto rdil = (*harness)->QueryKeywords(keywords, 10, IndexKind::kRdil);
    ASSERT_TRUE(dil.ok() && rdil.ok() && hdil.ok());
    ASSERT_EQ(dil->results.size(), rdil->results.size()) << keywords[0];
    ASSERT_EQ(dil->results.size(), hdil->results.size()) << keywords[0];
    for (size_t i = 0; i < dil->results.size(); ++i) {
      EXPECT_EQ(dil->results[i].id, rdil->results[i].id) << keywords[0];
      EXPECT_EQ(dil->results[i].id, hdil->results[i].id) << keywords[0];
    }
  }
}

TEST(TfIdfTest, ChangesOrderingVersusElemRank) {
  // Two papers: A is heavily cited (high ElemRank) and mentions 'topic'
  // once among much text; B is obscure but is *about* 'topic' (tf 3 in a
  // short element). ElemRank mode favors A, tf-idf mode favors B.
  std::vector<std::pair<std::string, std::string>> sources = {
      {"<p><t>topic word1 word2 word3 word4 word5 word6 word7</t></p>", "a"},
      {"<p><t>topic topic topic</t></p>", "b"},
  };
  for (int i = 0; i < 6; ++i) {
    sources.emplace_back("<p><c xlink=\"a\">x</c></p>",
                         "citer" + std::to_string(i));
  }
  auto parse_all = [&]() {
    std::vector<xml::Document> docs;
    for (const auto& [text, uri] : sources) {
      auto doc = xml::ParseDocument(text, uri);
      EXPECT_TRUE(doc.ok());
      docs.push_back(std::move(doc).value());
    }
    return docs;
  };

  auto run = [&](index::RankSource source) {
    EngineOptions options;
    options.extraction.rank_source = source;
    options.indexes = {IndexKind::kDil};
    auto engine = XRankEngine::Build(parse_all(), options);
    EXPECT_TRUE(engine.ok());
    auto response = (*engine)->Query("topic", 5, IndexKind::kDil);
    EXPECT_TRUE(response.ok());
    return response->results.empty() ? std::string()
                                     : response->results[0].document_uri;
  };
  EXPECT_EQ(run(index::RankSource::kElemRank), "a");
  EXPECT_EQ(run(index::RankSource::kTfIdf), "b");
}

// --- disjunctive semantics ---

TEST(DisjunctiveTest, ReturnsElementsWithAnyKeyword) {
  auto corpus = testutil::BuildIndexedCorpus({
      {"<r><a>apple</a><b>pear</b><c>plum</c><d>apple pear</d></r>", "doc"},
  });
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor processor(corpus->pool(IndexKind::kDil),
                                     corpus->lexicon(IndexKind::kDil),
                                     scoring);
  auto response = processor.Execute({"apple", "pear"}, 20);
  ASSERT_TRUE(response.ok()) << response.status();
  std::set<std::string> ids;
  for (const auto& result : response->results) {
    ids.insert(result.id.ToString());
  }
  // <a>, <b>, <d> each directly contain a keyword; <c> and ancestors with
  // only R0-descendant occurrences do not qualify.
  EXPECT_EQ(ids, (std::set<std::string>{"0.0", "0.1", "0.3"}));
}

TEST(DisjunctiveTest, BothKeywordsOutrankOne) {
  auto corpus = testutil::BuildIndexedCorpus({
      {"<r><a>apple</a><d>apple pear</d></r>", "doc"},
  });
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor processor(corpus->pool(IndexKind::kDil),
                                     corpus->lexicon(IndexKind::kDil),
                                     scoring);
  auto response = processor.Execute({"apple", "pear"}, 20);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->results.size(), 2u);
  // <d> (both keywords) first, <a> (one) second — sibling elements share
  // the same ElemRank, so the keyword-sum decides.
  EXPECT_EQ(response->results[0].id, dewey::DeweyId({0, 1}));
  EXPECT_EQ(response->results[1].id, dewey::DeweyId({0, 0}));
  EXPECT_GT(response->results[0].rank, response->results[1].rank);
}

TEST(DisjunctiveTest, RankOrderedProcessorsRejectDisjunctive) {
  auto corpus = testutil::BuildIndexedCorpus({
      {"<r><a>apple pear</a></r>", "doc"},
  });
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::RdilQueryProcessor rdil(corpus->pool(IndexKind::kRdil),
                                 corpus->lexicon(IndexKind::kRdil), scoring);
  auto response = rdil.Execute({"apple", "pear"}, 5);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnimplemented);
}

TEST(DisjunctiveTest, MatchesConjunctiveWhenAllCooccur) {
  // When every keyword occurrence is co-located, disjunctive and
  // conjunctive result sets coincide.
  auto corpus = testutil::BuildIndexedCorpus({
      {"<r><a>apple pear</a><b>apple pear</b></r>", "doc"},
  });
  query::ScoringOptions conjunctive;
  query::ScoringOptions disjunctive;
  disjunctive.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor conj(corpus->pool(IndexKind::kDil),
                                corpus->lexicon(IndexKind::kDil),
                                conjunctive);
  query::DilQueryProcessor disj(corpus->pool(IndexKind::kDil),
                                corpus->lexicon(IndexKind::kDil),
                                disjunctive);
  auto a = conj.Execute({"apple", "pear"}, 10);
  auto b = disj.Execute({"apple", "pear"}, 10);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    EXPECT_EQ(a->results[i].id, b->results[i].id);
    EXPECT_NEAR(a->results[i].rank, b->results[i].rank, 1e-9);
  }
}

}  // namespace
}  // namespace xrank
