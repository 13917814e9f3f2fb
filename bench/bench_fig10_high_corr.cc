// Reproduces Figure 10: query performance vs. number of keywords under
// HIGH keyword correlation, for all five approaches.
//
// Paper's shape: RDIL wins (B+-tree probes succeed, TA stops early);
// DIL must scan entire lists and loses; HDIL tracks RDIL (it may pay a
// small mis-estimation penalty around the DIL/RDIL crossover);
// Naive-ID is worse than DIL and Naive-Rank worse than RDIL (ancestor
// replication makes every list longer).
//
// `--json <path>` writes each point's mean cost as fig10/kw=<k>/<kind>/io_cost
// (deterministic cost-model units).

#include "bench_util.h"
#include "common/string_util.h"

int main(int argc, char** argv) {
  using namespace xrank;
  using namespace xrank::bench;
  JsonReport report("fig10_high_corr");
  report.ParseFlag(argc, argv);

  datagen::DblpOptions gen = BenchQueryPerfOptions();
  datagen::Corpus corpus = datagen::GenerateDblp(gen);
  const index::IndexKind kinds[] = {
      index::IndexKind::kNaiveId, index::IndexKind::kNaiveRank,
      index::IndexKind::kDil, index::IndexKind::kRdil,
      index::IndexKind::kHdil};
  auto indexed = BuildCorpus(Reparse(&corpus),
                             {std::begin(kinds), std::end(kinds)});

  constexpr size_t kTopM = 10;
  constexpr size_t kQueriesPerPoint = 3;
  std::printf("=== Figure 10: query cost vs #keywords, HIGH correlation "
              "(top-%zu, cold cache) ===\n", kTopM);
  std::printf("corpus: %zu docs, %zu elements\n\n",
              indexed->graph.document_count(),
              indexed->graph.element_count());
  std::printf("%-12s", "Approach");
  for (int k = 1; k <= 4; ++k) std::printf("   %d kw (cost)", k);
  std::printf("      wall ms (1..4 kw)\n");
  PrintRule(96);

  for (index::IndexKind kind : kinds) {
    std::printf("%-12s", std::string(index::IndexKindName(kind)).c_str());
    std::string wall;
    for (size_t keywords = 1; keywords <= 4; ++keywords) {
      datagen::WorkloadOptions workload;
      workload.num_queries = kQueriesPerPoint;
      workload.num_keywords = keywords;
      workload.mode = datagen::CorrelationMode::kHigh;
      workload.seed = 100 + keywords;
      auto queries = datagen::MakeQueries(corpus.planted, workload);
      AveragedStats stats = RunQuerySet(indexed.get(), queries, kTopM, kind);
      std::printf(" %12.1f", stats.io_cost);
      wall += StringPrintf(" %7.2f", stats.wall_ms);
      report.Add(StringPrintf("fig10/kw=%zu/%s/io_cost", keywords,
                              std::string(index::IndexKindName(kind)).c_str()),
                 stats.io_cost);
    }
    std::printf("   %s\n", wall.c_str());
  }
  PrintRule(96);
  std::printf(
      "\nExpected shape (paper Fig. 10): RDIL lowest, HDIL tracking RDIL,\n"
      "DIL flat-but-higher (full scans), Naive-ID > DIL and Naive-Rank >\n"
      "RDIL from ancestor-replicated lists.\n");
  return report.Write() ? 0 : 1;
}
