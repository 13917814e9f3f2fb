// End-to-end tests of the XRankEngine facade over the paper's Figure 1
// document and small synthetic corpora.

#include "core/engine.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "index/index_builder.h"
#include "index/manifest.h"
#include "storage/page_file.h"
#include "xml/parser.h"

namespace xrank {
namespace {

using core::EngineOptions;
using core::EngineResponse;
using core::XRankEngine;
using index::IndexKind;

// The workshop-proceedings document of paper Figure 1 (abbreviated but
// structurally faithful: nested sections, IDREF and XLink references).
constexpr const char* kFigure1Xml = R"(
<workshop date="28 July 2000">
  <title> XML and IR: A SIGIR 2000 Workshop </title>
  <editors> David Carmel, Yoelle Maarek, Aya Soffer </editors>
  <proceedings>
    <paper id="1">
      <title> XQL and Proximal Nodes </title>
      <author> Ricardo Baeza-Yates </author>
      <author> Gonzalo Navarro </author>
      <abstract> We consider the recently proposed language </abstract>
      <body>
        <section name="Introduction">
          Searching on structured text is more important
        </section>
        <section name="Implementing XML Operations">
          <subsection name="Path Expressions">
            At first sight, the XQL query language looks
          </subsection>
        </section>
        <cite ref="2">Querying XML in Xyleme</cite>
        <cite xlink="paper/xmlql">A Query Language for XML</cite>
      </body>
    </paper>
    <paper id="2">
      <title> Querying XML in Xyleme </title>
      <body> xyleme supports XQL fragments </body>
    </paper>
  </proceedings>
</workshop>
)";

std::vector<xml::Document> Figure1Collection() {
  auto doc = xml::ParseDocument(kFigure1Xml, "figure1.xml");
  EXPECT_TRUE(doc.ok()) << doc.status();
  std::vector<xml::Document> docs;
  docs.push_back(std::move(doc).value());
  return docs;
}

// Both index kinds the engine serves.
EngineOptions AllIndexOptions() {
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  return options;
}

TEST(EngineTest, BuildsFromFigure1) {
  auto engine = XRankEngine::Build(Figure1Collection(), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_GT((*engine)->graph().element_count(), 10u);
  EXPECT_TRUE((*engine)->elem_rank_result().converged);
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    EXPECT_TRUE((*engine)->has_index(kind));
    EXPECT_GT((*engine)->index_stats(kind).entry_count, 0u);
  }
}

// The paper's running example: 'XQL language' must return the <subsection>
// (most specific element) rather than its <section>/<body> ancestors, plus
// the <paper> element which has independent occurrences in <title> and
// <abstract>-adjacent elements (Section 2.2).
TEST(EngineTest, Figure1MostSpecificResult) {
  auto engine = XRankEngine::Build(Figure1Collection(), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    auto response = (*engine)->Query("XQL language", 10, kind);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_FALSE(response->results.empty())
        << "no results via " << index::IndexKindName(kind);
    std::vector<std::string> tags;
    for (const auto& result : response->results) {
      tags.push_back(result.element_tag);
    }
    // The subsection directly contains both keywords.
    EXPECT_NE(std::find(tags.begin(), tags.end(), "subsection"), tags.end())
        << "via " << index::IndexKindName(kind);
    // Its ancestors whose only occurrences come through it must not appear.
    EXPECT_EQ(std::find(tags.begin(), tags.end(), "section"), tags.end())
        << "via " << index::IndexKindName(kind);
    EXPECT_EQ(std::find(tags.begin(), tags.end(), "body"), tags.end())
        << "via " << index::IndexKindName(kind);
  }
}

TEST(EngineTest, DblpCorpusAgreementAcrossIndexes) {
  datagen::DblpOptions gen;
  gen.num_papers = 120;
  datagen::Corpus corpus = datagen::GenerateDblp(gen);
  auto engine =
      XRankEngine::Build(std::move(corpus.documents), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto& quad = corpus.planted.high_correlation[0];
  for (size_t n = 1; n <= 4; ++n) {
    std::vector<std::string> keywords(quad.begin(), quad.begin() + n);
    auto dil = (*engine)->QueryKeywords(keywords, 10, IndexKind::kDil);
    auto hdil = (*engine)->QueryKeywords(keywords, 10, IndexKind::kHdil);
    ASSERT_TRUE(dil.ok() && hdil.ok());
    ASSERT_EQ(dil->results.size(), hdil->results.size()) << n << " keywords";
    for (size_t i = 0; i < dil->results.size(); ++i) {
      EXPECT_EQ(dil->results[i].id, hdil->results[i].id);
      EXPECT_NEAR(dil->results[i].rank, hdil->results[i].rank, 1e-9);
    }
  }
}

TEST(EngineTest, XMarkDeepResults) {
  datagen::XMarkOptions gen;
  gen.num_items = 60;
  gen.num_open_auctions = 40;
  gen.num_closed_auctions = 20;
  gen.num_people = 30;
  datagen::Corpus corpus = datagen::GenerateXMark(gen);
  auto engine =
      XRankEngine::Build(std::move(corpus.documents), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto& quad = corpus.planted.high_correlation[0];
  std::vector<std::string> keywords = {quad[0], quad[1]};
  auto response = (*engine)->QueryKeywords(keywords, 10, IndexKind::kDil);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_FALSE(response->results.empty());
  // Planted quadruples live in deep text elements.
  EXPECT_GE(response->results[0].id.depth(), 6u);
}

TEST(EngineTest, AnswerNodeMapping) {
  EngineOptions options = AllIndexOptions();
  options.answer_node_tags = {"workshop", "paper", "section"};
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto response = (*engine)->Query("XQL language", 10, IndexKind::kDil);
  ASSERT_TRUE(response.ok()) << response.status();
  for (const auto& result : response->results) {
    EXPECT_TRUE(result.element_tag == "workshop" ||
                result.element_tag == "paper" ||
                result.element_tag == "section")
        << result.element_tag;
  }
}

TEST(EngineTest, MissingKeywordYieldsEmpty) {
  auto engine = XRankEngine::Build(Figure1Collection(), AllIndexOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    auto response = (*engine)->Query("XQL zzznotaword", 10, kind);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->results.empty());
  }
}

TEST(EngineTest, DiskBackedIndexesWork) {
  EngineOptions options = AllIndexOptions();
  options.disk_dir = ::testing::TempDir();
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    auto response = (*engine)->Query("XQL language", 10, kind);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->results.empty()) << index::IndexKindName(kind);
  }
  // The index files really are on disk.
  std::string path = options.disk_dir + "/DIL.xrank";
  auto file = storage::PageFile::OpenOnDisk(path);
  ASSERT_TRUE(file.ok()) << file.status();
  auto reopened = index::OpenIndex(std::move(*file));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->kind, IndexKind::kDil);
}

TEST(EngineTest, WarmCacheModeReusesPages) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  options.cold_cache_per_query = false;
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_TRUE(engine.ok());
  auto first = (*engine)->Query("XQL language", 10, IndexKind::kDil);
  ASSERT_TRUE(first.ok());
  auto second = (*engine)->Query("XQL language", 10, IndexKind::kDil);
  ASSERT_TRUE(second.ok());
  // Warm run pays no physical reads.
  EXPECT_GT(first->stats.sequential_reads + first->stats.random_reads, 0u);
  EXPECT_EQ(second->stats.sequential_reads + second->stats.random_reads, 0u);
  EXPECT_EQ(first->results.size(), second->results.size());
}

TEST(EngineTest, QueryUnbuiltIndexFails) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto response = (*engine)->Query("XQL", 10, IndexKind::kHdil);
  EXPECT_FALSE(response.ok());
}

// The paper's comparison baselines are not served: Build refuses them with
// an error naming the kind and the harness that builds them instead.
TEST(EngineTest, BuildRefusesBaselineKind) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kRdil};
  auto engine = XRankEngine::Build(Figure1Collection(), options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  const std::string message(engine.status().message());
  EXPECT_NE(message.find("RDIL"), std::string::npos) << message;
  EXPECT_NE(message.find("harness"), std::string::npos) << message;
}

TEST(EngineTest, OpenRefusesManifestListingBaselineKind) {
  const std::string dir = ::testing::TempDir() + "/engine_refuses_naive";
  ::mkdir(dir.c_str(), 0755);
  EngineOptions options = AllIndexOptions();
  options.disk_dir = dir;
  {
    auto engine = XRankEngine::Build(Figure1Collection(), options);
    ASSERT_TRUE(engine.ok()) << engine.status();
  }
  // The committed DIL/HDIL directory reopens and serves.
  {
    auto reopened = XRankEngine::Open(Figure1Collection(), options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    auto response = (*reopened)->Query("XQL language", 10, IndexKind::kHdil);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->results.empty());
  }
  // Re-commit the MANIFEST with one entry relabelled as Naive-ID.
  auto manifest = index::ReadManifestFile(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  manifest->entries.front().kind = IndexKind::kNaiveId;
  ASSERT_TRUE(index::WriteManifestFile(dir, *manifest).ok());

  auto refused = XRankEngine::Open(Figure1Collection(), options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  const std::string message(refused.status().message());
  EXPECT_NE(message.find("Naive-ID"), std::string::npos) << message;
  EXPECT_NE(message.find("harness"), std::string::npos) << message;
}

// Snippets keep the leading 117 bytes of the element's subtree text plus
// "..." (or the whole text when it fits in 120). The bounded walk must
// reproduce the full-walk-then-truncate reference byte for byte, on a
// root-level XMark element (a whole auction site) and on short elements.
std::string ReferenceSnippet(const graph::XmlGraph& graph, graph::NodeId node) {
  std::string text = graph.DeepText(node);
  if (text.size() > 120) {
    text.resize(117);
    text += "...";
  }
  return text;
}

TEST(EngineTest, SnippetsMatchFullWalkReference) {
  datagen::XMarkOptions gen;
  gen.num_items = 30;
  gen.num_open_auctions = 20;
  gen.num_closed_auctions = 10;
  gen.num_people = 15;
  datagen::Corpus corpus = datagen::GenerateXMark(gen);
  EngineOptions options;
  options.indexes = {IndexKind::kDil};
  // Map every hit to the document root: the snippet covers the whole site.
  options.answer_node_tags = {"site"};
  auto engine = XRankEngine::Build(std::move(corpus.documents), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const graph::XmlGraph& graph = (*engine)->graph();

  const auto& quad = corpus.planted.high_correlation[0];
  auto response = (*engine)->QueryKeywords({quad[0]}, 5, IndexKind::kDil);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_FALSE(response->results.empty());
  for (const auto& result : response->results) {
    ASSERT_EQ(result.id.depth(), 1u);
    auto node = graph.FindByDewey(result.id);
    ASSERT_TRUE(node.ok()) << node.status();
    ASSERT_GT(graph.DeepText(*node).size(), 120u);
    EXPECT_EQ(result.snippet, ReferenceSnippet(graph, *node));
  }

  auto figure1 = XRankEngine::Build(Figure1Collection(), AllIndexOptions());
  ASSERT_TRUE(figure1.ok()) << figure1.status();
  auto short_hits = (*figure1)->Query("xyleme", 10, IndexKind::kDil);
  ASSERT_TRUE(short_hits.ok()) << short_hits.status();
  ASSERT_FALSE(short_hits->results.empty());
  for (const auto& result : short_hits->results) {
    const graph::XmlGraph& fig_graph = (*figure1)->graph();
    auto node = fig_graph.FindByDewey(result.id);
    ASSERT_TRUE(node.ok()) << node.status();
    EXPECT_EQ(result.snippet, ReferenceSnippet(fig_graph, *node));
  }
}

}  // namespace
}  // namespace xrank
