// Unit tests for the hyperlinked XML graph: Dewey assignment, attribute
// promotion, IDREF/XLink resolution, HTML mode.

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "xml/parser.h"

namespace xrank::graph {
namespace {

xml::Document Parse(const char* text, const char* uri) {
  auto doc = xml::ParseDocument(text, uri);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

TEST(GraphBuilderTest, DeweyIdsFollowDocumentOrder) {
  GraphBuilder builder;
  BuilderOptions options;
  options.attributes_as_subelements = false;
  builder = GraphBuilder(options);
  ASSERT_TRUE(builder.AddDocument(Parse("<a><b/><c><d/></c></a>", "u")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok()) << graph.status();

  auto root = graph->FindByDewey(dewey::DeweyId({0}));
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(graph->name(*root), "a");
  auto b = graph->FindByDewey(dewey::DeweyId({0, 0}));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(graph->name(*b), "b");
  auto d = graph->FindByDewey(dewey::DeweyId({0, 1, 0}));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(graph->name(*d), "d");
  EXPECT_FALSE(graph->FindByDewey(dewey::DeweyId({0, 2})).ok());
  EXPECT_FALSE(graph->FindByDewey(dewey::DeweyId({1})).ok());
}

TEST(GraphBuilderTest, AttributesBecomeSubElements) {
  GraphBuilder builder;
  ASSERT_TRUE(
      builder.AddDocument(Parse(R"(<w date="28 July 2000"><t>x</t></w>)", "u"))
          .ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  // Attribute element precedes element children in sibling order.
  auto attr = graph->FindByDewey(dewey::DeweyId({0, 0}));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(graph->name(*attr), "date");
  EXPECT_EQ(graph->DirectText(*attr), "28 July 2000");
  auto t = graph->FindByDewey(dewey::DeweyId({0, 1}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(graph->name(*t), "t");
}

TEST(GraphBuilderTest, IdrefResolvesWithinDocument) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddDocument(Parse(
                      R"(<ps><p id="1"><cite ref="2">x</cite></p><p id="2">y</p></ps>)",
                      "u"))
                  .ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->total_hyperlink_count(), 1u);
  // Find the cite element and check its link target is paper 2.
  bool found = false;
  for (NodeId u = 0; u < graph->node_count(); ++u) {
    if (graph->is_element(u) && graph->name(u) == "cite") {
      ASSERT_EQ(graph->hyperlinks(u).size(), 1u);
      NodeId target = graph->hyperlinks(u)[0];
      EXPECT_EQ(graph->name(target), "p");
      EXPECT_EQ(graph->DirectText(target), "y");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GraphBuilderTest, XlinkResolvesAcrossDocuments) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddDocument(Parse(
                      R"(<paper><cite xlink="two.xml">x</cite></paper>)", "one.xml"))
                  .ok());
  ASSERT_TRUE(builder.AddDocument(Parse("<paper>target</paper>", "two.xml")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->total_hyperlink_count(), 1u);
  // The target is the root of document 1.
  for (NodeId u = 0; u < graph->node_count(); ++u) {
    if (graph->is_element(u) && !graph->hyperlinks(u).empty()) {
      NodeId target = graph->hyperlinks(u)[0];
      EXPECT_EQ(graph->node(target).document, 1u);
      EXPECT_EQ(target, graph->documents()[1].root);
    }
  }
}

TEST(GraphBuilderTest, DanglingLinksCounted) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddDocument(Parse(
                      R"(<a><b ref="nope">x</b><c xlink="missing.xml">y</c></a>)",
                      "u"))
                  .ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->total_hyperlink_count(), 0u);
}

TEST(GraphBuilderTest, DanglingLinksErrorWhenStrict) {
  BuilderOptions options;
  options.ignore_dangling_links = false;
  GraphBuilder builder(options);
  ASSERT_TRUE(builder.AddDocument(Parse(R"(<a ref="nope"/>)", "u")).ok());
  auto graph = std::move(builder).Finalize();
  EXPECT_FALSE(graph.ok());
}

TEST(GraphBuilderTest, ElementCountsPerDocument) {
  GraphBuilder builder;
  BuilderOptions options;
  options.attributes_as_subelements = false;
  builder = GraphBuilder(options);
  ASSERT_TRUE(builder.AddDocument(Parse("<a><b/><c/></a>", "u1")).ok());
  ASSERT_TRUE(builder.AddDocument(Parse("<a/>", "u2")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->element_count(), 4u);
  EXPECT_EQ(graph->documents()[0].element_count, 3u);
  EXPECT_EQ(graph->documents()[1].element_count, 1u);
}

TEST(GraphBuilderTest, HtmlModeSingleElement) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddHtmlDocument(Parse(
                      R"(<html><body><p>hello world</p><a href="x.html">link</a></body></html>)",
                      "page.html"))
                  .ok());
  ASSERT_TRUE(builder.AddHtmlDocument(Parse("<html>x html</html>", "x.html")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  // Each HTML document contributes exactly one element.
  EXPECT_EQ(graph->element_count(), 2u);
  EXPECT_EQ(graph->documents()[0].element_count, 1u);
  NodeId root = graph->documents()[0].root;
  EXPECT_EQ(graph->DirectText(root), "hello world link");
  // The href becomes a hyperlink from root to root.
  ASSERT_EQ(graph->hyperlinks(root).size(), 1u);
  EXPECT_EQ(graph->hyperlinks(root)[0], graph->documents()[1].root);
}

TEST(GraphTest, DeepTextConcatenatesSubtree) {
  GraphBuilder builder;
  ASSERT_TRUE(
      builder.AddDocument(Parse("<a>x<b>y</b><c><d>z</d></c></a>", "u")).ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  NodeId root = graph->documents()[0].root;
  std::string text = graph->DeepText(root);
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(text.find("y"), std::string::npos);
  EXPECT_NE(text.find("z"), std::string::npos);
}

// A byte budget returns exactly the leading bytes of the full text, at
// every budget — separators, empty subtrees and value boundaries included.
TEST(GraphTest, DeepTextPrefixMatchesFullWalk) {
  GraphBuilder builder;
  ASSERT_TRUE(builder
                  .AddDocument(Parse("<a>head<b>one two</b><e/><c><d>three"
                                     "</d><f></f>four</c>tail</a>",
                                     "u"))
                  .ok());
  auto graph = std::move(builder).Finalize();
  ASSERT_TRUE(graph.ok());
  NodeId root = graph->documents()[0].root;
  const std::string full = graph->DeepText(root);
  for (size_t budget = 0; budget <= full.size() + 2; ++budget) {
    EXPECT_EQ(graph->DeepText(root, budget), full.substr(0, budget))
        << "budget " << budget;
  }
}

}  // namespace
}  // namespace xrank::graph
