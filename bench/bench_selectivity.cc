// Reproduces the Section 5.4 selectivity observation: the paper varied
// keyword selectivity and found it "not as interesting" — highly selective
// keywords are cheap for every approach, and the structural differences
// only matter for low-selectivity (long-list) keywords. This harness
// regenerates that evidence using the planted selectivity ladder (term
// sel<b> occurs in every 4^b-th paper).
//
// `--json <path>` writes each pair's cost as
// selectivity/<term>x<term>/<kind>/io_cost (deterministic cost-model units).

#include "bench_util.h"
#include "common/string_util.h"

int main(int argc, char** argv) {
  using namespace xrank;
  using namespace xrank::bench;
  JsonReport report("selectivity");
  report.ParseFlag(argc, argv);

  datagen::DblpOptions gen = BenchDblpOptions();
  datagen::Corpus corpus = datagen::GenerateDblp(gen);
  auto indexed = BuildCorpus(Reparse(&corpus),
                             {index::IndexKind::kDil, index::IndexKind::kRdil,
                              index::IndexKind::kHdil});

  std::printf("=== Section 5.4: keyword selectivity sweep "
              "(2-keyword conjunctions, top-10, cold cache) ===\n\n");
  std::printf("selectivity ladder:");
  for (const auto& [term, freq] : corpus.planted.selectivity_terms) {
    std::printf("  %s~%zu docs", term.c_str(), freq);
  }
  std::printf("\n\n%-26s %14s %14s %14s\n", "Query (term x term)", "DIL cost",
              "RDIL cost", "HDIL cost");
  PrintRule(78);

  // Pair adjacent ladder rungs: (sel0,sel1) is the least selective, the
  // last pair the most selective.
  const auto& ladder = corpus.planted.selectivity_terms;
  for (size_t b = 0; b + 1 < ladder.size(); ++b) {
    std::vector<std::vector<std::string>> queries = {
        {ladder[b].first, ladder[b + 1].first}};
    std::printf("%-26s",
                (ladder[b].first + " x " + ladder[b + 1].first).c_str());
    for (index::IndexKind kind :
         {index::IndexKind::kDil, index::IndexKind::kRdil,
          index::IndexKind::kHdil}) {
      AveragedStats stats = RunQuerySet(indexed.get(), queries, 10, kind);
      std::printf(" %14.1f", stats.io_cost);
      report.Add(StringPrintf("selectivity/%sx%s/%s/io_cost",
                              ladder[b].first.c_str(),
                              ladder[b + 1].first.c_str(),
                              std::string(index::IndexKindName(kind)).c_str()),
                 stats.io_cost);
    }
    std::printf("\n");
  }
  PrintRule(78);
  std::printf("\nExpected shape (paper Section 5.4): highly selective pairs\n"
              "(deep in the ladder) cost little under every approach — the\n"
              "approaches only separate on long lists, which do not model\n"
              "large document collections well.\n");
  return report.Write() ? 0 : 1;
}
