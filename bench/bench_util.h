#ifndef XRANK_BENCH_BENCH_UTIL_H_
#define XRANK_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction harnesses. Each bench
// binary regenerates one table or figure of the paper; the primary metric
// is the deterministic I/O cost model (sequential-page-read units at a 50:1
// seek:scan ratio), with wall-clock time reported alongside.

#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"
#include "datagen/dblp_gen.h"
#include "datagen/workload.h"
#include "datagen/xmark_gen.h"
#include "harness/indexed_corpus.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrank::bench {

// Benchmark-scale corpora. The paper used 143 MB DBLP / 113 MB XMark on a
// 2003 disk; these defaults generate laptop-scale corpora with the same
// structural shape (shallow + inter-document links vs. deep + intra-document
// links). Scale up with the env var XRANK_BENCH_SCALE (a multiplier).
inline double BenchScale() {
  const char* env = std::getenv("XRANK_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

inline datagen::DblpOptions BenchDblpOptions() {
  datagen::DblpOptions options;
  options.num_papers = static_cast<size_t>(2000 * BenchScale());
  options.vocabulary_size = 6000;
  options.high_corr_frequency = 0.10;
  options.low_corr_frequency = 0.06;
  options.low_corr_joint_papers = 2;
  return options;
}

// Profile for the query-performance figures: the paper's Figures 10/11 use
// common keywords whose inverted lists span many megabytes, so the planted
// terms are sprayed densely over a larger corpus (fewer planted sets keep
// each set's list long).
inline datagen::DblpOptions BenchQueryPerfOptions() {
  datagen::DblpOptions options;
  options.num_papers = static_cast<size_t>(50000 * BenchScale());
  options.vocabulary_size = 2000;
  options.abstract_words = 15;
  options.mean_citations = 2.0;
  options.planted_sets = 2;
  options.dense_plant_rate = 0.55;
  options.high_corr_frequency = 0.0;
  options.low_corr_frequency = 0.0;
  options.low_corr_joint_papers = 2;
  return options;
}

inline datagen::XMarkOptions BenchXMarkOptions() {
  datagen::XMarkOptions options;
  options.num_items = static_cast<size_t>(900 * BenchScale());
  options.num_people = options.num_items / 2;
  options.num_open_auctions = options.num_items;
  options.num_closed_auctions = options.num_items / 3;
  options.vocabulary_size = 6000;
  options.high_corr_frequency = 0.12;
  options.low_corr_frequency = 0.08;
  return options;
}

// Serializes generated documents and re-parses them through the XML
// pipeline (exactly what an ingesting system would see).
inline std::vector<xml::Document> Reparse(datagen::Corpus* corpus) {
  std::vector<xml::Document> docs;
  docs.reserve(corpus->documents.size());
  for (const xml::Document& doc : corpus->documents) {
    auto parsed = xml::ParseDocument(xml::Serialize(doc), doc.uri);
    if (!parsed.ok()) {
      std::fprintf(stderr, "FATAL: generated document failed to parse: %s\n",
                   parsed.status().ToString().c_str());
      std::abort();
    }
    docs.push_back(std::move(parsed).value());
  }
  return docs;
}

inline std::unique_ptr<core::XRankEngine> BuildEngine(
    std::vector<xml::Document> docs, std::vector<index::IndexKind> kinds,
    core::EngineOptions options = {}, size_t result_cache_entries = 0) {
  options.indexes = std::move(kinds);
  // The figure-reproduction benches measure the paper's per-query I/O:
  // cold_cache_per_query stays at its default (true) unless the caller's
  // options opt out, and the serving-path result cache defaults off here —
  // benches that study the serving fast path opt in explicitly.
  options.result_cache_entries = result_cache_entries;
  auto engine = core::XRankEngine::Build(std::move(docs), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "FATAL: engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine).value();
}

// The five-kind figure rows (Naive-ID, Naive-Rank, DIL, RDIL, HDIL) run on
// the reproduction harness: the serving engine carries DIL and HDIL only.
inline std::unique_ptr<harness::IndexedCorpus> BuildCorpus(
    const std::vector<xml::Document>& docs,
    std::vector<index::IndexKind> kinds, core::EngineOptions options = {}) {
  options.indexes = std::move(kinds);
  auto corpus = harness::BuildIndexedCorpus(docs, options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "FATAL: corpus build failed: %s\n",
                 corpus.status().ToString().c_str());
    std::abort();
  }
  return std::move(corpus).value();
}

struct AveragedStats {
  double io_cost = 0.0;
  double wall_ms = 0.0;
  double postings = 0.0;
  double random_reads = 0.0;
  double sequential_reads = 0.0;
  double results = 0.0;
  size_t switched = 0;
  size_t queries = 0;
};

// Runs a query set cold-cache and averages the statistics.
inline AveragedStats RunQuerySet(
    harness::IndexedCorpus* corpus,
    const std::vector<std::vector<std::string>>& queries, size_t m,
    index::IndexKind kind) {
  AveragedStats stats;
  for (const auto& keywords : queries) {
    auto response = corpus->QueryKeywords(keywords, m, kind);
    if (!response.ok()) {
      std::fprintf(stderr, "FATAL: query failed: %s\n",
                   response.status().ToString().c_str());
      std::abort();
    }
    stats.io_cost += response->stats.io_cost;
    stats.wall_ms += response->stats.wall_ms;
    stats.postings += static_cast<double>(response->stats.postings_scanned);
    stats.random_reads += static_cast<double>(response->stats.random_reads);
    stats.sequential_reads +=
        static_cast<double>(response->stats.sequential_reads);
    stats.results += static_cast<double>(response->results.size());
    stats.switched += response->stats.switched_to_dil ? 1 : 0;
    ++stats.queries;
  }
  double n = stats.queries > 0 ? static_cast<double>(stats.queries) : 1.0;
  stats.io_cost /= n;
  stats.wall_ms /= n;
  stats.postings /= n;
  stats.random_reads /= n;
  stats.sequential_reads /= n;
  stats.results /= n;
  return stats;
}

inline void PrintRule(int width = 86) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// Machine-readable results for tracking the perf trajectory across
// revisions. Bench binaries accept `--json <path>` and write a flat JSON
// object {"bench": <name>, "metrics": {name: number, ...}}; the
// conventional path is BENCH_<name>.json in the invocation directory.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  // Metric names use '/' for grouping, e.g. "elemrank/threads=4/ms".
  void Add(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  // Attaches a process-wide metrics-registry snapshot (the RenderJson
  // output) to the report, written as a "registry" section so perf runs
  // carry their counter/histogram context alongside the headline numbers.
  void SetRegistrySnapshot(std::string registry_json) {
    registry_json_ = std::move(registry_json);
  }

  // Consumes a `--json <path>` argument pair from argv (in place) and
  // remembers the path. Returns argc with the pair removed. Call before
  // handing argv to any other flag parser. Exits with an error if --json
  // is given without a path.
  int ParseFlag(int argc, char** argv) {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: --json requires a path argument\n");
          std::exit(2);
        }
        path_ = argv[i + 1];
        ++i;
        continue;
      }
      argv[out++] = argv[i];
    }
    return out;
  }

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  // Writes the report if --json was given. Returns false (with a message on
  // stderr) if the file cannot be written.
  bool Write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ERROR: cannot write JSON report to %s\n",
                   path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {\n",
                 bench_name_.c_str());
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "    \"%s\": %.6f%s\n", metrics_[i].first.c_str(),
                   metrics_[i].second, i + 1 < metrics_.size() ? "," : "");
    }
    if (registry_json_.empty()) {
      std::fprintf(f, "  }\n}\n");
    } else {
      std::fprintf(f, "  },\n  \"registry\": %s\n}\n",
                   registry_json_.c_str());
    }
    std::fclose(f);
    std::printf("JSON report written to %s\n", path_.c_str());
    return true;
  }

 private:
  std::string bench_name_;
  std::string path_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::string registry_json_;
};

}  // namespace xrank::bench

#endif  // XRANK_BENCH_BENCH_UTIL_H_
