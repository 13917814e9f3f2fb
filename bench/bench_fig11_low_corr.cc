// Reproduces Figure 11: query performance vs. number of keywords under LOW
// keyword correlation, for DIL / RDIL / HDIL (the naive approaches are
// dropped after Figure 10, as in the paper).
//
// Paper's shape: RDIL degrades badly beyond one keyword (its B+-tree
// probes keep failing, so the threshold never clears); DIL's sequential
// scans win; HDIL tracks DIL with a small overhead because it starts in
// RDIL mode and then switches.

#include "bench_util.h"
#include "common/string_util.h"

int main() {
  using namespace xrank;
  using namespace xrank::bench;

  datagen::DblpOptions gen = BenchQueryPerfOptions();
  datagen::Corpus corpus = datagen::GenerateDblp(gen);
  const index::IndexKind kinds[] = {index::IndexKind::kDil,
                                    index::IndexKind::kRdil,
                                    index::IndexKind::kHdil};
  auto indexed = BuildCorpus(Reparse(&corpus),
                             {std::begin(kinds), std::end(kinds)});

  constexpr size_t kTopM = 10;
  constexpr size_t kQueriesPerPoint = 3;
  std::printf("=== Figure 11: query cost vs #keywords, LOW correlation "
              "(top-%zu, cold cache) ===\n", kTopM);
  std::printf("corpus: %zu docs, %zu elements\n\n",
              indexed->graph.document_count(),
              indexed->graph.element_count());
  std::printf("%-12s", "Approach");
  for (int k = 1; k <= 4; ++k) std::printf("   %d kw (cost)", k);
  std::printf("      wall ms (1..4 kw)   HDIL switches\n");
  PrintRule(110);

  for (index::IndexKind kind : kinds) {
    std::printf("%-12s", std::string(index::IndexKindName(kind)).c_str());
    std::string wall;
    std::string switches;
    for (size_t keywords = 1; keywords <= 4; ++keywords) {
      datagen::WorkloadOptions workload;
      workload.num_queries = kQueriesPerPoint;
      workload.num_keywords = keywords;
      workload.mode = datagen::CorrelationMode::kLow;
      workload.seed = 200 + keywords;
      auto queries = datagen::MakeQueries(corpus.planted, workload);
      AveragedStats stats = RunQuerySet(indexed.get(), queries, kTopM, kind);
      std::printf(" %12.1f", stats.io_cost);
      wall += StringPrintf(" %7.2f", stats.wall_ms);
      if (kind == index::IndexKind::kHdil) {
        switches += StringPrintf(" %zu/%zu", stats.switched, stats.queries);
      }
    }
    std::printf("   %s   %s\n", wall.c_str(), switches.c_str());
  }
  PrintRule(110);
  std::printf(
      "\nExpected shape (paper Fig. 11): single-keyword queries favor the\n"
      "rank orders; with 2+ uncorrelated keywords RDIL pays for failed\n"
      "random probes while DIL's sequential scan wins; HDIL switches to DIL\n"
      "and tracks it with a small startup overhead.\n");
  return 0;
}
