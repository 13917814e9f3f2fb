#ifndef XRANK_TESTS_TEST_UTIL_H_
#define XRANK_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/indexed_corpus.h"
#include "xml/parser.h"

namespace xrank::testutil {

using harness::IndexedCorpus;

// Parses (text, uri) documents and builds every physical index kind over
// them through the reproduction harness (memory-backed, one pool and cost
// model per kind). Small enough to rebuild per test.
inline std::unique_ptr<IndexedCorpus> BuildIndexedCorpus(
    std::vector<std::pair<std::string, std::string>> docs,
    const index::HdilOptions& hdil_options = {},
    size_t buffer_pool_pages = 1024, const index::BuildOptions& build = {}) {
  std::vector<xml::Document> parsed;
  for (const auto& [text, uri] : docs) {
    auto doc = xml::ParseDocument(text, uri);
    EXPECT_TRUE(doc.ok()) << doc.status();
    if (doc.ok()) parsed.push_back(std::move(doc).value());
  }
  core::EngineOptions options;
  options.indexes = {index::IndexKind::kNaiveId, index::IndexKind::kNaiveRank,
                     index::IndexKind::kDil, index::IndexKind::kRdil,
                     index::IndexKind::kHdil};
  options.hdil = hdil_options;
  options.buffer_pool_pages = buffer_pool_pages;
  options.build = build;
  auto corpus = harness::BuildIndexedCorpus(parsed, options);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  return corpus.ok() ? std::move(corpus).value() : nullptr;
}

// The Figure 1 document used throughout the paper's examples.
inline const char* Figure1Xml() {
  return R"(
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
}

}  // namespace xrank::testutil

#endif  // XRANK_TESTS_TEST_UTIL_H_
