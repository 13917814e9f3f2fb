// Bibliography search over a DBLP-shaped corpus: builds all five index
// structures through the reproduction harness (the serving engine carries
// only DIL and HDIL), runs the same query through each, and prints results
// plus the I/O statistics that distinguish them (paper Sections 4-5).
//
// Usage: dblp_search [num_papers]   (default 800)

#include <cstdio>
#include <cstdlib>

#include "datagen/dblp_gen.h"
#include "harness/indexed_corpus.h"

namespace {

using xrank::core::EngineOptions;
using xrank::harness::IndexedCorpus;
using xrank::index::IndexKind;

void Show(IndexedCorpus* indexed, const std::vector<std::string>& keywords,
          IndexKind kind) {
  auto response = indexed->QueryKeywords(keywords, /*m=*/5, kind);
  if (!response.ok()) {
    std::printf("  %-10s error: %s\n",
                std::string(xrank::index::IndexKindName(kind)).c_str(),
                response.status().ToString().c_str());
    return;
  }
  std::printf("  %-10s %2zu results, %6llu postings, %4llu rnd + %4llu seq "
              "reads, cost %8.1f%s\n",
              std::string(xrank::index::IndexKindName(kind)).c_str(),
              response->results.size(),
              static_cast<unsigned long long>(
                  response->stats.postings_scanned),
              static_cast<unsigned long long>(response->stats.random_reads),
              static_cast<unsigned long long>(
                  response->stats.sequential_reads),
              response->stats.io_cost,
              response->stats.switched_to_dil ? " (switched to DIL)" : "");
  for (size_t i = 0; i < response->results.size() && i < 3; ++i) {
    const auto& result = response->results[i];
    const xrank::graph::XmlGraph& graph = indexed->graph;
    auto node = graph.FindByDewey(result.id);
    if (!node.ok()) continue;
    std::printf("      #%zu <%s> %s rank=%.6f\n", i + 1,
                std::string(graph.name(*node)).c_str(),
                graph.documents()[graph.node(*node).document].uri.c_str(),
                result.rank);
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_papers = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 800;

  xrank::datagen::DblpOptions gen;
  gen.num_papers = num_papers;
  xrank::datagen::Corpus corpus = xrank::datagen::GenerateDblp(gen);
  std::printf("Generated %zu DBLP-like publication documents\n",
              corpus.documents.size());

  EngineOptions options;
  options.indexes = {IndexKind::kNaiveId, IndexKind::kNaiveRank,
                     IndexKind::kDil, IndexKind::kRdil, IndexKind::kHdil};
  auto indexed = xrank::harness::BuildIndexedCorpus(corpus.documents, options);
  if (!indexed.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 indexed.status().ToString().c_str());
    return 1;
  }
  std::printf("Graph: %zu elements, %zu hyperlinks; ElemRank: %d iterations\n",
              (*indexed)->graph.element_count(),
              (*indexed)->graph.total_hyperlink_count(),
              (*indexed)->ranks.iterations);

  const auto& high = corpus.planted.high_correlation[0];
  const auto& low = corpus.planted.low_correlation[0];
  struct QuerySpec {
    const char* label;
    std::vector<std::string> keywords;
  };
  std::vector<QuerySpec> queries = {
      {"high-correlation pair", {high[0], high[1]}},
      {"low-correlation pair", {low[0], low[1]}},
      {"frequent single keyword", {"sel0"}},
  };
  for (const QuerySpec& spec : queries) {
    std::printf("\nQuery (%s): ", spec.label);
    for (const std::string& keyword : spec.keywords) {
      std::printf("%s ", keyword.c_str());
    }
    std::printf("\n");
    for (IndexKind kind :
         {IndexKind::kNaiveId, IndexKind::kNaiveRank, IndexKind::kDil,
          IndexKind::kRdil, IndexKind::kHdil}) {
      Show(indexed->get(), spec.keywords, kind);
    }
  }
  return 0;
}
