// XRANK end-to-end benchmark driver.
//
//   xrank_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work <dir> [--trace-out <file>]
//
// Generates its inputs from the seed, builds and serves them through the
// engine's public API with shipped defaults (plus one thread throughout and
// the few settings each workload names), checks every output against the
// benchmark's own model of the generated text (corpus.h), and prints one JSON
// line last. With --trace 1 it records spans around its calls into each
// layer, splices the engine's own QueryTrace spans under them, and reports
// per-layer metrics.
// run.py builds this binary and is the command to use.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/engine.h"
#include "core/shard_router.h"
#include "corpus.h"
#include "graph/builder.h"
#include "index/dil_index.h"
#include "index/hdil_index.h"
#include "index/index_builder.h"
#include "query/trace.h"
#include "rank/elem_rank.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xrank::core::EngineOptions;
using xrank::core::EngineResponse;
using xrank::core::EngineResult;
using xrank::core::ShardRouter;
using xrank::core::ShardRouterOptions;
using xrank::core::XRankEngine;
using xrank::index::IndexKind;

constexpr size_t kTopM = 10;      // page size users see
constexpr size_t kPrefixM = 50;   // top-M whose m-prefix the page must be
constexpr int kSetupReps = 9;     // set-ups per run; setup_s is the median
constexpr int kOpenReps = 9;      // reopens per run; open_s is the median

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Phase log on stderr, with seconds since start: the run report stays on
// stdout.
void Progress(const std::string& what) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "[%7.2fs] %s\n",
               static_cast<double>(NowNs() - start) / 1e9, what.c_str());
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Check(xrank::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}
void Check(const xrank::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- tracing ------------------------------------------------------------------

// Spans recorded by the benchmark around its own calls, plus the engine's
// QueryTrace spans spliced beneath them. Kept in memory, written at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t request = 0;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int Begin(std::string_view name) {
    if (!on_) return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::string(name), NowNs(), 0,
                          open_.empty() ? -1 : open_.back(), request_});
    open_.push_back(index);
    return index;
  }
  void End(int handle) {
    if (handle < 0) return;
    spans_[handle].end_ns = NowNs();
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (top == handle) break;
    }
  }
  void NextRequest() { ++request_; }

  // Splices a finished engine trace whose clock origin is `origin_ns` under
  // span `parent`. QueryTrace lists spans in preorder with their depth.
  void Splice(const xrank::query::QueryTrace& trace, int64_t origin_ns,
              int parent) {
    if (!on_) return;
    std::vector<int> at_depth;
    for (const auto& s : trace.spans()) {
      const size_t depth = static_cast<size_t>(std::max(0, s.depth));
      const int p = depth == 0 || at_depth.size() < depth
                        ? parent
                        : at_depth[depth - 1];
      const int index = static_cast<int>(spans_.size());
      spans_.push_back(Span{s.name, origin_ns + s.start_us * 1000,
                            origin_ns + (s.start_us + s.duration_us) * 1000,
                            p, request_});
      at_depth.resize(depth);
      at_depth.push_back(index);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time: a span's duration minus the union of its children's
  // intervals within it.
  std::vector<int64_t> SelfTimes() const {
    std::vector<std::vector<int>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(i);
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (int c : children[i]) {
        iv.emplace_back(std::max(s.start_ns, spans_[c].start_ns),
                        std::min(s.end_ns, spans_[c].end_ns));
      }
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0, cur_lo = 0, cur_hi = -1;
      for (const auto& [lo, hi] : iv) {
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      self[i] = std::max<int64_t>(0, s.end_ns - s.start_ns - covered);
    }
    return self;
  }

  void Write(const std::string& path, const std::vector<int64_t>& self) const {
    std::ofstream out(path);
    out << "request\tspan\tparent\tname\tstart_us\tend_us\tself_us\n";
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << s.request << '\t' << i << '\t' << s.parent << '\t' << s.name
          << '\t' << (s.start_ns - origin) / 1000 << '\t'
          << (s.end_ns - origin) / 1000 << '\t' << self[i] / 1000 << '\n';
    }
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint32_t request_ = 0;
};

class Scoped {
 public:
  Scoped(Tracer& tracer, std::string_view name)
      : tracer_(tracer), handle_(tracer.Begin(name)) {}
  ~Scoped() { tracer_.End(handle_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int handle_;
};

// --- host calibration ---------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();
    while (!model.empty() && model.front() == ' ') model.erase(0, 1);
    return model;
  }
#endif
  return "unknown";
}

uint64_t SpinWork(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::string Calibrate() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kWork = 60'000'000;
  std::atomic<uint64_t> sink{0};
  int64_t t0 = NowNs();
  sink += SpinWork(kWork);
  const double one = static_cast<double>(NowNs() - t0) / 1e9;
  t0 = NowNs();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < nproc; ++i) {
    threads.emplace_back([&sink] { sink += SpinWork(kWork); });
  }
  for (std::thread& t : threads) t.join();
  const double all = static_cast<double>(NowNs() - t0) / 1e9;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"effective_cores\": %.2f, "
                "\"single_core_mops\": %.1f, \"cpu\": \"%s\", \"sink\": %llu}",
                nproc, static_cast<double>(nproc) * one / all,
                static_cast<double>(kWork) / one / 1e6, CpuModel().c_str(),
                static_cast<unsigned long long>(sink.load() & 0xff));
  return buf;
}

// --- serving target -----------------------------------------------------------

// One engine or one router, behind the calls the workloads make.
struct Target {
  std::unique_ptr<XRankEngine> engine;
  std::unique_ptr<ShardRouter> router;
  IndexKind kind = IndexKind::kHdil;

  xrank::Result<EngineResponse> Query(const std::string& text, size_t m,
                                      xrank::query::QueryTrace* trace) {
    xrank::query::QueryOptions options;
    options.trace = trace;
    return router ? router->Query(text, m, kind, options)
                  : engine->Query(text, m, kind, options);
  }
  xrank::Status Add(const std::string& uri, const std::string& text) {
    return router ? router->AddDocument(uri, text)
                  : engine->AddDocument(uri, text);
  }
  xrank::Status Delete(const std::string& uri) {
    return router ? router->DeleteDocument(uri) : engine->DeleteDocument(uri);
  }
  xrank::Status WaitForMaintenance() {
    return router ? router->WaitForMaintenance()
                  : engine->WaitForMaintenance();
  }
  std::vector<XRankEngine*> Engines() {
    std::vector<XRankEngine*> out;
    if (router) {
      for (size_t i = 0; i < router->shard_count(); ++i) {
        out.push_back(&router->shard_engine(i));
      }
    } else if (engine) {
      out.push_back(engine.get());
    }
    return out;
  }
  void Reset() {
    router.reset();
    engine.reset();
  }
};

// --- per-run accounting -------------------------------------------------------

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct QueryAgg {
  uint64_t executed = 0;  // queries that were not result-cache hits
  uint64_t cache_hits = 0;
  uint64_t page_reads = 0;
  uint64_t random_reads = 0;
  uint64_t postings = 0;
  uint64_t blocks_pruned = 0;
  uint64_t pages_skipped = 0;
  uint64_t hdil_fallbacks = 0;
  // Router-only, from the spliced shard spans.
  double shard_span_us = 0.0;
  double routed_wall_us = 0.0;
  double straggler_sum = 0.0;
  double gather_us = 0.0;
  uint64_t routed = 0;
};

struct Run {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  int64_t start_ns = NowNs();
  std::string work;
  Tracer tracer{false};
  std::map<std::string, OpCount> ops;
  std::vector<double> query_ms, add_ms, delete_ms;
  double write_wait_ms = 0.0;  // draining maintenance before timed writes
  double query_time_s = 0.0;
  QueryAgg agg;
  bool correct = true;
  std::vector<std::string> problems;  // unexpected check failures
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = value;
    units[name] = unit;
  }
  // The measured phase is a fixed number of rounds, sized from --seconds at
  // `rounds_per_second` (this host's rate), so that every run does the same
  // work and live state grows along the same path whatever the host's
  // speed. A run still measuring 3 * seconds + 30 s after it started (a
  // host about three times slower) stops early, at a round boundary.
  size_t Rounds(double rounds_per_second) const {
    return std::max<size_t>(
        1, static_cast<size_t>(seconds * rounds_per_second + 0.5));
  }
  bool OutOfTime() const {
    return NowNs() - start_ns >
           static_cast<int64_t>(seconds * 3e9) + 30'000'000'000;
  }

  void Problem(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

// Timed query with engine trace spliced under the benchmark's span.
xrank::Result<EngineResponse> TimedQuery(Run& run, Target& target,
                                         const std::string& text, size_t m,
                                         bool record) {
  if (!record) return target.Query(text, m, nullptr);  // checks only
  Tracer& tracer = run.tracer;
  std::unique_ptr<xrank::query::QueryTrace> trace;
  int64_t origin = 0;
  if (tracer.on()) {
    trace = std::make_unique<xrank::query::QueryTrace>();
    origin = NowNs() - trace->ElapsedUs() * 1000;
  }
  tracer.NextRequest();
  const int span = tracer.Begin(target.router ? "router.query" : "engine.query");
  const int64_t t0 = NowNs();
  xrank::Result<EngineResponse> response = target.Query(text, m, trace.get());
  const int64_t t1 = NowNs();
  tracer.End(span);
  run.query_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  run.query_time_s += static_cast<double>(t1 - t0) / 1e9;
  if (!response.ok()) return response;
  const xrank::query::QueryStats& stats = response.value().stats;
  QueryAgg& agg = run.agg;
  if (stats.result_cache_hit) {
    ++agg.cache_hits;
  } else {
    ++agg.executed;
  }
  agg.page_reads += stats.sequential_reads + stats.random_reads;
  agg.random_reads += stats.random_reads;
  agg.postings += stats.postings_scanned;
  agg.blocks_pruned += stats.blocks_pruned;
  agg.pages_skipped += stats.pages_skipped;
  if (stats.switched_to_dil) ++agg.hdil_fallbacks;
  if (trace) {
    tracer.Splice(*trace, origin, span);
    if (target.router) {
      // A spliced shard[i] span opens when the scatter does, not when the
      // shard starts, so each shard's busy interval is taken from the first
      // start to the last end of the spans beneath it.
      std::vector<std::pair<double, double>> busy;  // per shard, us
      bool in_shard = false;
      for (const auto& s : trace->spans()) {
        if (s.depth == 0) {
          in_shard = s.name.rfind("shard[", 0) == 0;
          if (in_shard) busy.emplace_back(1e300, 0.0);
          continue;
        }
        if (!in_shard) continue;
        busy.back().first =
            std::min(busy.back().first, static_cast<double>(s.start_us));
        busy.back().second = std::max(
            busy.back().second, static_cast<double>(s.start_us + s.duration_us));
      }
      double sum = 0.0, longest = 0.0, last_end = 0.0;
      size_t shards = 0;
      for (const auto& [begin, end] : busy) {
        if (end <= begin) continue;
        sum += end - begin;
        longest = std::max(longest, end - begin);
        last_end = std::max(last_end, end);
        ++shards;
      }
      const double wall_us = static_cast<double>(t1 - origin) / 1e3;
      agg.shard_span_us += sum;
      agg.routed_wall_us += static_cast<double>(t1 - t0) / 1e3;
      if (shards > 0 && sum > 0) {
        agg.straggler_sum += longest / (sum / static_cast<double>(shards));
      }
      agg.gather_us += std::max(0.0, wall_us - last_end);
      ++agg.routed;
    }
  }
  return response;
}

// --- checks -------------------------------------------------------------------

struct Observed {
  std::vector<std::string> ids;  // Dewey ids as text
  std::vector<double> ranks;
};

Observed Observe(const EngineResponse& response) {
  Observed out;
  for (const EngineResult& r : response.results) {
    out.ids.push_back(r.id.ToString());
    out.ranks.push_back(r.rank);
  }
  return out;
}

bool SameResults(const Observed& a, const Observed& b) {
  return a.ids == b.ids && a.ranks == b.ranks;
}

enum class Verdict { kOk, kShortPage, kWrong };

// Checks one response against the model: every result resolves to an
// element of the named document with the reported tag whose subtree holds
// the keywords; no result belongs to a deleted document; ids are distinct;
// and, for conjunctive queries, the page is full when at least m documents
// hold every keyword.
Verdict VerifyResponse(const ModelIndex& model, const EngineResponse& response,
                       const std::vector<std::string>& keywords, bool conjunctive,
                       size_t m,
                       const std::unordered_set<std::string>& deleted,
                       std::string* why) {
  std::set<std::string> seen;
  for (const EngineResult& r : response.results) {
    const Doc* doc = model.FindDoc(r.document_uri);
    if (doc == nullptr) {
      *why = "unknown document '" + r.document_uri + "'";
      return Verdict::kWrong;
    }
    if (deleted.count(r.document_uri) > 0) {
      *why = "deleted document '" + r.document_uri + "' returned";
      return Verdict::kWrong;
    }
    const Elem* elem = ModelIndex::Resolve(*doc, r.id.components(), 1);
    if (elem == nullptr || elem->tag != r.element_tag) {
      *why = "result " + r.id.ToString() + " is not a <" + r.element_tag +
             "> of '" + r.document_uri + "'";
      return Verdict::kWrong;
    }
    if (!ModelIndex::SubtreeHas(*doc, *elem, keywords, conjunctive)) {
      *why = "result " + r.id.ToString() + " lacks the keywords";
      return Verdict::kWrong;
    }
    if (!seen.insert(r.id.ToString()).second) {
      *why = "duplicate result " + r.id.ToString();
      return Verdict::kWrong;
    }
  }
  if (conjunctive && response.results.size() < m &&
      model.DocsWithAll(keywords, deleted) >= m) {
    *why = "short page: " + std::to_string(response.results.size()) + " of " +
           std::to_string(m);
    return Verdict::kShortPage;
  }
  return Verdict::kOk;
}

// --- workload inputs ------------------------------------------------------------

std::vector<xrank::xml::Document> Parse(Tracer& tracer,
                                        const std::vector<Doc>& docs) {
  Scoped span(tracer, "xml.parse");
  std::vector<xrank::xml::Document> parsed;
  parsed.reserve(docs.size());
  for (const Doc& doc : docs) {
    parsed.push_back(Check(xrank::xml::ParseDocument(doc.text, doc.uri),
                           "parse"));
  }
  return parsed;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

// Distinct conjunctive dblp queries: Zipf title words, author names, and the
// planted high/low-correlation prefixes.
std::vector<std::vector<std::string>> DblpQueryLog(DblpGenerator& gen,
                                                   size_t count, bool planted,
                                                   Rng& rng) {
  // Query words come from the 400 most frequent title words (word i is the
  // generator's rank-i word), whose lists span pages, as in the paper's
  // Section 5.4 study of common keywords.
  const Zipf query_words(400, 0.6);
  auto word = [&] { return Word(query_words.Sample(rng)); };
  std::vector<std::vector<std::string>> log;
  std::set<std::vector<std::string>> seen;
  while (log.size() < count) {
    std::vector<std::string> q;
    const uint64_t kind = Uniform(rng, 100);
    if (planted && kind < 25) {
      const auto& sets = kind < 12 ? gen.planted().high : gen.planted().low;
      const auto& set = sets[Uniform(rng, sets.size())];
      const size_t len = 2 + Uniform(rng, 3);
      q.assign(set.begin(), set.begin() + static_cast<long>(len));
    } else if (kind < 35) {
      q = Tokenize(gen.authors()[Uniform(rng, 400)]);
      if (kind >= 30) q = {q[1], word()};
    } else {
      const uint64_t r = Uniform(rng, 100);
      const size_t len = r < 30 ? 1 : r < 75 ? 2 : 3;
      std::set<std::string> words;
      while (words.size() < len) words.insert(word());
      q.assign(words.begin(), words.end());
    }
    if (seen.insert(q).second) log.push_back(std::move(q));
  }
  return log;
}

// --- phases -------------------------------------------------------------------

// Every workload runs on one thread: shards are queried one after another
// on the client thread, and ElemRank, extraction and list builds use one
// thread. On a shared 4-core host whose parallel capacity drifted between
// one and four cores within the hour, the thread pools spun up per build,
// per query or per add (every add rebuilds the delta through ElemRank and
// the list builder) timed that drift more than the engine: the set-up time
// of dblp-conj spread by 40% over ten runs.
struct BuildSpec {
  BuildSpec() {
    engine.elem_rank.num_threads = 1;
    engine.extraction.num_threads = 1;
    engine.build.num_threads = 1;
  }
  EngineOptions engine;  // disk_dir is set per build
  size_t shards = 0;     // > 0: ShardRouter, queried shard by shard
};

void OpenTarget(Run& run, Target& target, const BuildSpec& spec,
                const std::vector<Doc>& docs, const std::string& dir,
                bool build, double* seconds) {
  Tracer& tracer = run.tracer;
  tracer.NextRequest();
  const int span = tracer.Begin(build ? "setup" : "open");
  const int64_t t0 = NowNs();
  std::vector<xrank::xml::Document> parsed = Parse(run.tracer, docs);
  if (spec.shards > 0) {
    ShardRouterOptions options;
    options.num_shards = spec.shards;
    options.engine = spec.engine;
    options.root_dir = dir;
    options.sequential_scatter = true;
    Scoped s(tracer, build ? "router.build" : "router.open");
    target.router = Check(build ? ShardRouter::Build(std::move(parsed), options)
                                : ShardRouter::Open(std::move(parsed), options),
                          build ? "router build" : "router open");
  } else {
    EngineOptions options = spec.engine;
    options.disk_dir = dir;
    Scoped s(tracer, build ? "engine.build" : "engine.open");
    target.engine = Check(build ? XRankEngine::Build(std::move(parsed), options)
                                : XRankEngine::Open(std::move(parsed), options),
                          build ? "engine build" : "engine open");
  }
  const int64_t t1 = NowNs();
  tracer.End(span);
  *seconds = static_cast<double>(t1 - t0) / 1e9;
}

// Builds kSetupReps times into fresh directories and reports the median.
// The last build is left serving in `target`. With `writer`, the build
// before it is left serving there (the read workloads' write tail runs on
// its own engine, so that its live segments, tombstones and cache
// invalidations never reach the read phase); with `spare`, the directory of
// the build before that is kept, closed, for SpreadOpens. Returns the last
// build's directory.
std::string Setup(Run& run, Target& target, const BuildSpec& spec,
                  const std::vector<Doc>& docs, Target* writer = nullptr,
                  std::string* spare = nullptr) {
  const auto dir_of = [&](int r) {
    return run.work + "/index" + std::to_string(r);
  };
  const auto kept = [&](int r) {
    return r == kSetupReps - 1 || (writer && r == kSetupReps - 2) ||
           (spare && r == kSetupReps - 3);
  };
  std::vector<double> times;
  for (int r = 0; r < kSetupReps; ++r) {
    if (writer && r == kSetupReps - 1) {
      *writer = std::move(target);
    } else {
      target.Reset();
    }
    if (r > 0 && !kept(r - 1)) fs::remove_all(dir_of(r - 1));
    fs::create_directories(dir_of(r));
    double s = 0;
    OpenTarget(run, target, spec, docs, dir_of(r), /*build=*/true, &s);
    times.push_back(s);
    Progress("setup " + std::to_string(s) + " s");
  }
  run.Metric("setup_s", Median(times), "s");
  if (spare) *spare = dir_of(kSetupReps - 3);
  return dir_of(kSetupReps - 1);
}

// Reopens of a committed, closed directory, spread evenly over the rounds
// of a run: the host's speed drifts from one second to the next, so
// kOpenReps reopens back to back would time one moment of it. Each opened
// engine is closed at once; open_s is the median.
class SpreadOpens {
 public:
  SpreadOpens(Run& run, const BuildSpec& spec, const std::vector<Doc>& docs,
              std::string dir, size_t rounds)
      : run_(run), spec_(spec), docs_(docs), dir_(std::move(dir)),
        rounds_(rounds) {}

  // After round `round` (1-based) of `rounds`.
  void AfterRound(size_t round) {
    while (times_.size() < static_cast<size_t>(kOpenReps) &&
           times_.size() * rounds_ < round * static_cast<size_t>(kOpenReps)) {
      Once();
    }
  }
  // The reopens a run that stopped early did not reach, then the metric.
  void Finish() {
    while (times_.size() < static_cast<size_t>(kOpenReps)) Once();
    run_.Metric("open_s", Median(times_), "s");
  }

 private:
  void Once() {
    Target opened;
    double s = 0;
    OpenTarget(run_, opened, spec_, docs_, dir_, /*build=*/false, &s);
    times_.push_back(s);
  }

  Run& run_;
  const BuildSpec& spec_;
  const std::vector<Doc>& docs_;
  const std::string dir_;
  const size_t rounds_;
  std::vector<double> times_;
};

// The live-update stream shared by every workload. Prefill adds `window`
// documents (state preparation: untimed, uncounted). Each step then adds a
// document that carries a unique marker and probes for it (read-your-
// writes); every kDeleteBatch steps the kDeleteBatch oldest live documents
// are deleted. So every step is three operations on average, and the live
// set — and with it the cost of each compaction — stays bounded however
// long the run is.
//
// Background maintenance is drained (untimed) before each add and each
// delete, so every write the stream times starts on an idle engine and its
// latency is the WAL sync and the delta rebuild. The flush or compaction an
// add schedules still runs in the background, beside the reads that follow
// it. Left to collide with maintenance, a write either waited for a whole
// flush or compaction or did not, depending on how the host's scheduler
// shared one core between the two threads that run: on dblp-live the add
// p99 was 33-48 ms against about 4 ms drained, and the medians of add and
// delete latency spread by 0.2-0.38 over runs.
constexpr size_t kDeleteBatch = 8;

class LiveStream {
 public:
  struct Spec {
    std::function<Doc(size_t step, const std::string& marker)> make_doc;
    std::vector<std::string> base_uris;  // DeleteBase order
    size_t window = 48;
    // A write tail beside a read phase (dblp-conj, xmark-disj-4shard) rather
    // than writes among reads (dblp-live). A tail keeps its marker probes
    // out of the query figures, which then cover the read phase alone. Its
    // model may be null: nothing reads the tail engine's documents but its
    // own marker probes.
    bool tail = false;
  };

  LiveStream(Spec spec, ModelIndex* model)
      : spec_(std::move(spec)), model_(model) {}

  void Prefill(Target& target) {
    for (size_t i = 0; i < spec_.window; ++i) {
      const Doc& doc = NextDoc();
      Check(target.Add(doc.uri, doc.text), "prefill add");
      Admit(doc);
    }
  }

  void Step(Run& run, Target& target) {
    Drain(run, target);
    const Doc& doc = NextDoc();
    Tracer& tracer = run.tracer;
    tracer.NextRequest();
    const int span =
        tracer.Begin(target.router ? "router.add" : "engine.add");
    const int64_t t0 = NowNs();
    xrank::Status added = target.Add(doc.uri, doc.text);
    const int64_t t1 = NowNs();
    tracer.End(span);
    OpCount& adds = run.ops["add"];
    ++adds.attempted;
    run.add_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (!added.ok()) {
      ++adds.failed;
      run.Problem("add " + doc.uri + ": " + added.ToString());
    } else {
      Admit(doc);
    }

    // Read-your-writes: the acked add is found by its marker.
    OpCount& queries = run.ops["query"];
    ++queries.attempted;
    xrank::Result<EngineResponse> found =
        TimedQuery(run, target, markers_.back(), kTopM, /*record=*/!spec_.tail);
    if (!added.ok() || !found.ok() || !HasUri(found.value(), doc.uri)) {
      ++queries.failed;
      run.Problem("acked add " + doc.uri + " not found by its marker");
    }

    if (++since_delete_ < kDeleteBatch) return;
    since_delete_ = 0;
    for (size_t i = 0; i < kDeleteBatch; ++i) {
      const auto oldest = live_.front();
      live_.erase(live_.begin());
      if (Delete(run, target, oldest.first)) retired_.push_back(oldest);
    }
  }

  void DeleteBase(Run& run, Target& target) {
    Delete(run, target, spec_.base_uris[base_next_++ % spec_.base_uris.size()]);
  }

  bool Delete(Run& run, Target& target, const std::string& uri) {
    Drain(run, target);
    Tracer& tracer = run.tracer;
    tracer.NextRequest();
    const int span =
        tracer.Begin(target.router ? "router.delete" : "engine.delete");
    const int64_t t0 = NowNs();
    xrank::Status deleted = target.Delete(uri);
    const int64_t t1 = NowNs();
    tracer.End(span);
    OpCount& ops = run.ops["delete"];
    ++ops.attempted;
    run.delete_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (!deleted.ok()) {
      ++ops.failed;
      run.Problem("delete " + uri + ": " + deleted.ToString());
      return false;
    }
    deleted_.insert(uri);
    return true;
  }

  // After a reopen: every live add is still found by its marker, and no
  // recently deleted add comes back. Check-only queries, not recorded.
  void VerifyDurable(Run& run, Target& target) {
    for (const auto& [uri, marker] : live_) {
      auto found = TimedQuery(run, target, marker, kTopM, /*record=*/false);
      if (!found.ok() || !HasUri(found.value(), uri)) {
        run.Problem("after reopen, live add " + uri + " is not found");
      }
    }
    const size_t from = retired_.size() > 64 ? retired_.size() - 64 : 0;
    for (size_t i = from; i < retired_.size(); ++i) {
      auto found =
          TimedQuery(run, target, retired_[i].second, kTopM, /*record=*/false);
      if (!found.ok() || HasUri(found.value(), retired_[i].first)) {
        run.Problem("after reopen, deleted " + retired_[i].first +
                    " is returned");
      }
    }
  }

  const std::unordered_set<std::string>& deleted() const { return deleted_; }
  std::vector<const Doc*> docs() const {
    std::vector<const Doc*> out;
    for (const auto& d : docs_) out.push_back(d.get());
    return out;
  }
  size_t steps() const { return docs_.size(); }

 private:
  // The wait is the flush or compaction work the write would otherwise
  // have met; it stays out of the write's latency.
  static void Drain(Run& run, Target& target) {
    const int64_t t0 = NowNs();
    Check(target.WaitForMaintenance(), "drain");
    run.write_wait_ms += static_cast<double>(NowNs() - t0) / 1e6;
  }

  static bool HasUri(const EngineResponse& response, const std::string& uri) {
    for (const EngineResult& r : response.results) {
      if (r.document_uri == uri) return true;
    }
    return false;
  }

  const Doc& NextDoc() {
    const size_t step = docs_.size();
    markers_.push_back("mk" + std::to_string(step) + "q");
    docs_.push_back(
        std::make_unique<Doc>(spec_.make_doc(step, markers_.back())));
    return *docs_.back();
  }
  void Admit(const Doc& doc) {
    if (model_ != nullptr) model_->AddDoc(&doc);
    live_.emplace_back(doc.uri, markers_.back());
  }

  Spec spec_;
  ModelIndex* model_;
  size_t base_next_ = 0;
  size_t since_delete_ = 0;
  std::vector<std::unique_ptr<Doc>> docs_;
  std::vector<std::string> markers_;
  std::vector<std::pair<std::string, std::string>> live_;     // uri, marker
  std::vector<std::pair<std::string, std::string>> retired_;  // deleted adds
  std::unordered_set<std::string> deleted_;
};

// Read-only query phase shared by the two read workloads. The stream draws
// from a large seeded log of distinct queries: Zipf (zipf_s > 0) where
// queries repeat as in a real log and the engine's result cache sees both
// hits and misses, uniform (zipf_s = 0) where there is no cache to feed. A
// round is `round_length` stream queries (plus the caller's per-round
// work); the run does run.Rounds(...) whole rounds. The first page of
// each distinct query is checked against the model; a repeat must return
// the same page, and every occurrence of a failing query counts as failed.
struct ReadPhase {
  std::vector<std::vector<std::string>> log;
  size_t round_length = 300;
  double zipf_s = 0.7;
  bool conjunctive = true;
  std::map<size_t, Observed> first_seen;  // log index -> page
  std::vector<size_t> order;              // log indexes, first-seen order
  std::set<size_t> bad;
};

size_t RunReadRounds(Run& run, Target& target, ReadPhase& phase,
                     const ModelIndex& model, Rng& rng, size_t max_rounds,
                     const std::function<void()>& per_round) {
  const Zipf zipf(phase.log.size(), phase.zipf_s);
  const std::unordered_set<std::string> none;
  OpCount& queries = run.ops["query"];
  size_t rounds = 0;
  while (rounds < max_rounds && !run.OutOfTime()) {
    ++rounds;
    for (size_t q = 0; q < phase.round_length; ++q) {
      const size_t index = zipf.Sample(rng);
      const std::vector<std::string>& keywords = phase.log[index];
      const std::string text = JoinWords(keywords);
      ++queries.attempted;
      xrank::Result<EngineResponse> response =
          TimedQuery(run, target, text, kTopM, /*record=*/true);
      if (!response.ok()) {
        ++queries.failed;
        run.Problem("query '" + text + "': " + response.status().ToString());
        continue;
      }
      Observed seen = Observe(response.value());
      auto [it, inserted] = phase.first_seen.emplace(index, seen);
      if (inserted) {
        phase.order.push_back(index);
        std::string why;
        if (VerifyResponse(model, response.value(), keywords,
                           phase.conjunctive, kTopM, none,
                           &why) != Verdict::kOk) {
          phase.bad.insert(index);
          run.Problem("query '" + text + "': " + why);
        }
      } else if (!SameResults(it->second, seen)) {
        phase.bad.insert(index);
        run.Problem("query '" + text + "' changed its page on a repeat");
      }
      if (phase.bad.count(index) > 0) ++queries.failed;
    }
    if (per_round) per_round();
  }
  Progress("read rounds " + std::to_string(rounds) + ", distinct " +
           std::to_string(phase.order.size()) + ", p50 " +
           std::to_string(Percentile(run.query_ms, 0.5)) + " ms, p99 " +
           std::to_string(Percentile(run.query_ms, 0.99)) + " ms, cache hits " +
           std::to_string(run.agg.cache_hits) + " of " +
           std::to_string(run.query_ms.size()));
  return rounds;
}

// A seeded sample of the distinct queries (every `stride`-th, in first-seen
// order) with their first pages, each checked to be the m-prefix of the
// query's top-M. Taken right after the read phase; no write reaches the
// engine that serves it.
using Sample = std::vector<std::pair<std::string, Observed>>;

Sample TakeSample(Run& run, Target& target, const ReadPhase& phase,
                  size_t stride) {
  Sample sample;
  for (size_t n = 0; n < phase.order.size(); n += stride) {
    const size_t index = phase.order[n];
    const std::string text = JoinWords(phase.log[index]);
    auto wide = TimedQuery(run, target, text, kPrefixM, /*record=*/false);
    if (!wide.ok()) {
      run.Problem("check query '" + text + "' failed");
      continue;
    }
    const Observed& top = phase.first_seen.at(index);
    Observed prefix = Observe(wide.value());
    prefix.ids.resize(std::min(prefix.ids.size(), kTopM));
    prefix.ranks.resize(prefix.ids.size());
    if (!SameResults(top, prefix)) {
      run.Problem("query '" + text + "': top-" + std::to_string(kTopM) +
                  " is not the prefix of top-" + std::to_string(kPrefixM));
      continue;
    }
    sample.emplace_back(text, top);
  }
  return sample;
}

// Each sampled page must equal the oracle's page. Called after EndToEnd has
// read the peak RSS, so that the oracle's memory is not counted as the
// program's.
void CompareSample(Run& run, const Sample& sample,
                   const std::function<Observed(const std::string&)>& oracle,
                   const char* oracle_name) {
  for (const auto& [text, page] : sample) {
    if (!SameResults(page, oracle(text))) {
      run.Problem("query '" + text + "': page differs from " + oracle_name);
    }
  }
}

// --- per-layer pass (traced runs) -------------------------------------------

void LayerPass(Run& run, const std::vector<Doc>& docs, IndexKind kind,
               const EngineOptions& engine) {
  Tracer& tracer = run.tracer;
  tracer.NextRequest();
  Scoped layer(tracer, "layers");
  int64_t t0 = NowNs();
  std::vector<xrank::xml::Document> parsed = Parse(run.tracer, docs);
  run.Metric("xml.parse_ms", static_cast<double>(NowNs() - t0) / 1e6, "ms");

  t0 = NowNs();
  int span = tracer.Begin("graph.build");
  xrank::graph::GraphBuilder builder(engine.graph);
  for (const auto& doc : parsed) Check(builder.AddDocument(doc), "graph add");
  xrank::graph::XmlGraph graph =
      Check(std::move(builder).Finalize(), "graph finalize");
  tracer.End(span);
  const double graph_ms = static_cast<double>(NowNs() - t0) / 1e6;
  run.Metric("graph.build_ms", graph_ms, "ms");

  t0 = NowNs();
  span = tracer.Begin("rank.elemrank");
  xrank::rank::ElemRankResult ranks =
      Check(xrank::rank::ComputeElemRank(graph, engine.elem_rank), "elemrank");
  tracer.End(span);
  const double rank_ms = static_cast<double>(NowNs() - t0) / 1e6;
  run.Metric("rank.elemrank_ms", rank_ms, "ms");
  run.Metric("rank.iterations", ranks.iterations, "count");
  // What Open repeats today: the graph and ElemRank are re-derived from
  // the corpus instead of read from the committed directory.
  run.Metric("core.engine.open_rederive_ms", graph_ms + rank_ms, "ms");

  t0 = NowNs();
  span = tracer.Begin("index.extract");
  xrank::index::ExtractionOptions extraction = engine.extraction;
  extraction.build_naive = false;
  xrank::index::ExtractionResult extracted = Check(
      xrank::index::ExtractPostings(graph, ranks.ranks, extraction), "extract");
  tracer.End(span);
  run.Metric("index.extract_ms", static_cast<double>(NowNs() - t0) / 1e6,
             "ms");

  const std::string path = run.work + "/layer.xrank";
  t0 = NowNs();
  span = tracer.Begin("index.build");
  auto file = Check(xrank::storage::PageFile::CreateOnDisk(path), "page file");
  xrank::index::BuiltIndex built =
      kind == IndexKind::kHdil
          ? Check(xrank::index::BuildHdilIndex(extracted.dewey_postings,
                                               std::move(file), engine.hdil,
                                               engine.build),
                  "hdil build")
          : Check(xrank::index::BuildDilIndex(extracted.dewey_postings,
                                              std::move(file), engine.build),
                  "dil build");
  tracer.End(span);
  run.Metric("index.build_ms", static_cast<double>(NowNs() - t0) / 1e6, "ms");
  built.file.reset();
  fs::remove(path);
}

// LogWriter append + fsync of add-sized records (the live stream's own
// documents): the floor under add_p50_ms.
void WalProbe(Run& run, const std::vector<const Doc*>& docs) {
  Tracer& tracer = run.tracer;
  tracer.NextRequest();
  Scoped probe(tracer, "storage.wal_probe");
  const std::string path = run.work + "/probe.wal";
  auto writer = Check(xrank::storage::LogWriter::Open(path, true), "wal open");
  std::vector<double> times;
  for (size_t i = 0; i < 40; ++i) {
    xrank::storage::LogRecord record;
    record.seq = i + 1;
    record.uri = docs[i % docs.size()]->uri;
    record.body = docs[i % docs.size()]->text;
    int span = tracer.Begin("storage.wal_append_sync");
    const int64_t t0 = NowNs();
    Check(writer->Append(record), "wal append");
    Check(writer->Sync(), "wal sync");
    times.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    tracer.End(span);
  }
  writer.reset();
  fs::remove(path);
  run.Metric("storage.wal_sync_p50_ms", Median(times), "ms");
}

// Open with and without the whole-file verification pass.
void OpenVerifyProbe(Run& run, Target& target, const BuildSpec& spec,
                     const std::vector<Doc>& docs, const std::string& dir) {
  std::vector<double> with, without;
  for (int r = 0; r < 2; ++r) {
    for (bool verify : {true, false}) {
      BuildSpec s = spec;
      s.engine.verify_on_open = verify;
      target.Reset();
      double seconds = 0;
      OpenTarget(run, target, s, docs, dir, /*build=*/false, &seconds);
      (verify ? with : without).push_back(seconds);
    }
  }
  run.Metric("core.engine.open_verify_ms",
             (Median(with) - Median(without)) * 1e3, "ms");
}

// --- metrics --------------------------------------------------------------------

void EndToEnd(Run& run, uint64_t disk_bytes, uint64_t input_bytes) {
  std::printf("latency ms (n, p50, p90, p99, max): query %zu %.3f %.3f %.3f "
              "%.3f; add %zu %.3f %.3f %.3f %.3f; delete %zu %.3f %.3f %.3f "
              "%.3f\n",
              run.query_ms.size(), Percentile(run.query_ms, 0.5),
              Percentile(run.query_ms, 0.9), Percentile(run.query_ms, 0.99),
              Percentile(run.query_ms, 1.0), run.add_ms.size(),
              Percentile(run.add_ms, 0.5), Percentile(run.add_ms, 0.9),
              Percentile(run.add_ms, 0.99), Percentile(run.add_ms, 1.0),
              run.delete_ms.size(), Percentile(run.delete_ms, 0.5),
              Percentile(run.delete_ms, 0.9), Percentile(run.delete_ms, 0.99),
              Percentile(run.delete_ms, 1.0));
  run.Metric("query_p50_ms", Percentile(run.query_ms, 0.5), "ms");
  run.Metric("query_p99_ms", Percentile(run.query_ms, 0.99), "ms");
  run.Metric("query_qps",
             static_cast<double>(run.query_ms.size()) / run.query_time_s,
             "1/s");
  run.Metric("disk_bytes_per_input_byte",
             static_cast<double>(disk_bytes) / static_cast<double>(input_bytes),
             "ratio");
  run.Metric("add_p50_ms", Percentile(run.add_ms, 0.5), "ms");
  run.Metric("add_p99_ms", Percentile(run.add_ms, 0.99), "ms");
  run.Metric("delete_p50_ms", Percentile(run.delete_ms, 0.5), "ms");
  run.Metric("peak_rss_mb", PeakRssMb(), "MB");
}

struct CounterSnap {
  uint64_t pool_hits = 0, pool_misses = 0, flushes = 0, compactions = 0;
  uint64_t theta_raises = 0;
};

CounterSnap& operator+=(CounterSnap& a, const CounterSnap& b) {
  a.pool_hits += b.pool_hits;
  a.pool_misses += b.pool_misses;
  a.flushes += b.flushes;
  a.compactions += b.compactions;
  a.theta_raises += b.theta_raises;
  return a;
}
CounterSnap operator-(const CounterSnap& a, const CounterSnap& b) {
  CounterSnap d;
  d.pool_hits = a.pool_hits - b.pool_hits;
  d.pool_misses = a.pool_misses - b.pool_misses;
  d.flushes = a.flushes - b.flushes;
  d.compactions = a.compactions - b.compactions;
  d.theta_raises = a.theta_raises - b.theta_raises;
  return d;
}

// Serving counters of the engines that answer the timed queries, and
// maintenance counters of those that take the writes.
CounterSnap Snap(Target& reads, Target& writes) {
  CounterSnap s;
  for (XRankEngine* e : reads.Engines()) {
    auto serving = e->serving_counters(reads.kind);
    s.pool_hits += serving.pool_hits;
    s.pool_misses += serving.pool_misses;
  }
  for (XRankEngine* e : writes.Engines()) {
    auto updates = e->update_counters();
    s.flushes += updates.flushes;
    s.compactions += updates.compactions;
  }
  if (reads.router) s.theta_raises = reads.router->router_counters().theta_raises;
  return s;
}

// `moved`: the counters' change over the measured phase.
void PerLayer(Run& run, Target& target, const CounterSnap& moved,
              uint64_t disk_bytes) {
  const QueryAgg& a = run.agg;
  const double q = std::max<double>(1.0, static_cast<double>(run.query_ms.size()));
  run.Metric("storage.page_reads_per_query", a.page_reads / q, "count");
  run.Metric("storage.random_reads_per_query", a.random_reads / q, "count");
  const uint64_t lookups = moved.pool_hits + moved.pool_misses;
  run.Metric("storage.pool_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(moved.pool_hits) /
                                static_cast<double>(lookups),
             "ratio");
  run.Metric("query.postings_per_query", a.postings / q, "count");
  run.Metric("query.blocks_pruned_per_query", a.blocks_pruned / q, "count");
  run.Metric("query.pages_skipped_per_query", a.pages_skipped / q, "count");
  run.Metric("query.hdil_fallback_ratio",
             a.executed == 0 ? 0.0
                             : static_cast<double>(a.hdil_fallbacks) /
                                   static_cast<double>(a.executed),
             "ratio");
  run.Metric("core.engine.result_cache_hit_ratio",
             static_cast<double>(a.cache_hits) / q, "ratio");
  run.Metric("core.engine.flushes", static_cast<double>(moved.flushes),
             "count");
  run.Metric("core.engine.compactions", static_cast<double>(moved.compactions),
             "count");
  const double writes = std::max<double>(
      1.0, static_cast<double>(run.add_ms.size() + run.delete_ms.size()));
  run.Metric("core.engine.maintenance_wait_ms_per_write",
             run.write_wait_ms / writes, "ms");

  // Span-derived costs, from the benchmark's query spans and the engine
  // spans spliced beneath them.
  const std::vector<int64_t> self = run.tracer.SelfTimes();
  const auto& spans = run.tracer.spans();
  std::map<std::string, std::pair<double, double>> by_name;  // total, self us
  std::map<std::string, uint64_t> count;
  double decorate_in_shards = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    by_name[s.name].first += total;
    by_name[s.name].second += static_cast<double>(self[i]) / 1e3;
    ++count[s.name];
    if (s.name == "decorate" && s.parent >= 0 &&
        spans[s.parent].name.rfind("shard[", 0) == 0) {
      decorate_in_shards += total;
    }
  }
  auto total_us = [&](const std::string& name) { return by_name[name].first; };
  const std::string top = target.router ? "router.query" : "engine.query";
  run.Metric("query.merge_us_per_query", total_us("merge") / q, "us");
  run.Metric("query.merge_ns_per_posting",
             a.postings == 0
                 ? 0.0
                 : total_us("merge") * 1e3 / static_cast<double>(a.postings),
             "ns");
  run.Metric("query.dil_fallback_us_per_query", total_us("dil_fallback") / q,
             "us");
  // The benchmark's query span minus the engine's top-level spans.
  run.Metric("core.engine.unattributed_us_per_query", by_name[top].second / q,
             "us");
  run.Metric("core.engine.decorate_us_per_query", total_us("decorate") / q,
             "us");
  run.Metric("core.engine.segments_us_per_query", total_us("segments") / q,
             "us");
  const double routed = std::max<double>(1.0, static_cast<double>(a.routed));
  run.Metric("core.router.scatter_parallelism",
             a.routed_wall_us == 0 ? 0.0 : a.shard_span_us / a.routed_wall_us,
             "ratio");
  run.Metric("core.router.straggler_ratio", a.straggler_sum / routed, "ratio");
  run.Metric("core.router.shard_decorate_us_per_query",
             decorate_in_shards / q, "us");
  run.Metric("core.router.gather_us_per_query", a.gather_us / routed, "us");
  run.Metric("core.router.theta_raises_per_query",
             static_cast<double>(moved.theta_raises) / q,
             "count");

  uint64_t postings = 0, payload = 0;
  for (XRankEngine* e : target.Engines()) {
    const auto& stats = e->index_stats(target.kind);
    postings += stats.entry_count;
    payload += stats.list_used_bytes;
  }
  run.Metric("index.postings", static_cast<double>(postings), "count");
  run.Metric("index.payload_bytes", static_cast<double>(payload), "B");
  run.Metric("index.disk_bytes", static_cast<double>(disk_bytes), "B");
  run.Metric("index.page_fill",
             static_cast<double>(payload) / static_cast<double>(disk_bytes),
             "ratio");

  // Self-time table for the report.
  std::printf("spans: name count total_us self_us\n");
  for (const auto& [name, t] : by_name) {
    std::printf("  %-28s %8llu %14.1f %14.1f\n", name.c_str(),
                static_cast<unsigned long long>(count[name]), t.first,
                t.second);
  }
}

// --- workloads ------------------------------------------------------------------

// The named fault kept by dblp-conj: with answer nodes, decoration fetches
// exactly m raw hits, and collapsing several hits onto one <inproceedings>
// leaves the page short although more papers match. A fixed corpus (no seed)
// makes it fail every time, so its share of operations is exact.
std::vector<Doc> AnswerNodeProbeCorpus() {
  std::vector<Doc> docs;
  for (size_t i = 0; i < 14; ++i) {
    Doc doc;
    doc.uri = "probe" + std::to_string(i);
    DocWriter w(&doc);
    w.Open("inproceedings", {{"key", doc.uri}});
    const size_t hits = i == 0 ? 12 : 1;
    for (size_t a = 0; a < hits; ++a) w.Leaf("author", "zqprobe " + Word(a));
    w.Leaf("title", "zqprobe " + Word(1000 + i) + " " + Word(2000 + i));
    if (i > 0) {
      w.Open("cite", {{"xlink", "probe0"}});
      w.Close();
    }
    w.Close();
    docs.push_back(std::move(doc));
  }
  return docs;
}

struct Inputs {
  std::vector<Doc> docs;
  uint64_t bytes = 0;
};

Inputs MakeDblp(DblpGenerator& gen, size_t papers) {
  Inputs in;
  for (size_t i = 0; i < papers; ++i) {
    in.docs.push_back(gen.Paper(i, "p", ""));
    in.bytes += in.docs.back().text.size();
  }
  return in;
}

std::vector<std::string> BaseDeletionOrder(const std::vector<Doc>& docs,
                                           Rng& rng) {
  std::vector<std::string> uris;
  for (const Doc& d : docs) uris.push_back(d.uri);
  for (size_t i = uris.size(); i > 1; --i) {
    std::swap(uris[i - 1], uris[Uniform(rng, i)]);
  }
  return uris;
}

// Each read round ends with live steps on the write engine, so that every
// operation count of a run is a multiple of its rounds (and the failed share
// of dblp-conj is exact) and the adds and deletes are spread over the whole
// run like the queries: several hundred to a thousand adds, so that a p99
// has samples beyond it.
constexpr size_t kDblpTailStepsPerRound = 2 * kDeleteBatch;
constexpr size_t kXmarkTailStepsPerRound = 3 * kDeleteBatch;
// Rounds per second of --seconds, measured on the reference host (README).
constexpr double kDblpRoundsPerSecond = 4.5;
constexpr double kXmarkRoundsPerSecond = 1.1;
constexpr double kLiveRoundsPerSecond = 24.0;

void RunDblpConj(Run& run) {
  DblpGenerator gen(DblpShape{}, run.seed);
  Inputs in = MakeDblp(gen, 3000);
  Progress("generated");
  Rng rng(run.seed * 7919 + 1);
  ReadPhase phase;
  phase.log = DblpQueryLog(gen, 6000, /*planted=*/true, rng);

  ModelIndex model;
  for (const Doc& d : in.docs) model.AddDoc(&d);

  BuildSpec spec;  // disk-backed HDIL, conjunctive
  spec.engine.indexes = {IndexKind::kHdil};
  Target target, writer;
  target.kind = writer.kind = IndexKind::kHdil;
  std::string spare;
  const std::string dir = Setup(run, target, spec, in.docs, &writer, &spare);
  const uint64_t disk = DirBytes(dir);  // the committed set-up

  // The probe engine: fixed corpus, answer nodes <inproceedings>.
  std::vector<Doc> probe_docs = AnswerNodeProbeCorpus();
  ModelIndex probe_model;
  for (const Doc& d : probe_docs) probe_model.AddDoc(&d);
  BuildSpec probe_spec;
  probe_spec.engine.indexes = {IndexKind::kHdil};
  probe_spec.engine.answer_node_tags = {"inproceedings"};
  Target probe;
  probe.kind = IndexKind::kHdil;
  {
    const std::string probe_dir = run.work + "/probe";
    fs::create_directories(probe_dir);
    double unused = 0;
    OpenTarget(run, probe, probe_spec, probe_docs, probe_dir, true, &unused);
  }

  // The write tail: add/delete latency on an engine of the same corpus.
  LiveStream::Spec live;
  live.make_doc = [&](size_t step, const std::string& marker) {
    return gen.Paper(in.docs.size() + step, "n", marker);
  };
  live.tail = true;
  LiveStream stream(live, nullptr);
  Progress("stream.Prefill");
  stream.Prefill(writer);

  const size_t max_rounds = run.Rounds(kDblpRoundsPerSecond);
  SpreadOpens opens(run, spec, in.docs, spare, max_rounds);
  const CounterSnap before = Snap(target, writer);
  OpCount& queries = run.ops["query"];
  const std::unordered_set<std::string> none;
  uint64_t probe_failures = 0;
  size_t round = 0;
  Progress("RunReadRounds");
  const size_t rounds =
      RunReadRounds(run, target, phase, model, rng, max_rounds, [&] {
        ++queries.attempted;
        auto response =
            TimedQuery(run, probe, "zqprobe", kTopM, /*record=*/false);
        std::string why;
        if (!response.ok()) {
          ++queries.failed;
          run.Problem("probe query failed: " + response.status().ToString());
        } else if (Verdict v = VerifyResponse(probe_model, response.value(),
                                              {"zqprobe"}, true, kTopM, none,
                                              &why);
                   v != Verdict::kOk) {
          ++queries.failed;
          ++probe_failures;
          if (v != Verdict::kShortPage) run.Problem("probe: " + why);
        }
        for (size_t i = 0; i < kDblpTailStepsPerRound; ++i) {
          stream.Step(run, writer);
        }
        // The next read round starts beside an idle write engine.
        Check(writer.WaitForMaintenance(), "drain");
        opens.AfterRound(++round);
      });
  std::printf("named fault: answer-node short page on %llu of %zu probes\n",
              static_cast<unsigned long long>(probe_failures), rounds);
  opens.Finish();
  Check(writer.WaitForMaintenance(), "maintenance");
  const CounterSnap moved = Snap(target, writer) - before;

  Progress("TakeSample");
  const Sample sample = TakeSample(run, target, phase, 10);

  Progress("EndToEnd");
  EndToEnd(run, disk, in.bytes);
  writer.Reset();
  probe.Reset();

  // Oracle: an in-memory DIL engine over the same corpus, merged
  // exhaustively, with no result cache to answer for it.
  EngineOptions oracle_options;
  oracle_options.indexes = {IndexKind::kDil};
  oracle_options.result_cache_entries = 0;
  Tracer untraced(false);
  auto oracle = Check(
      XRankEngine::Build(Parse(untraced, in.docs), oracle_options),
      "oracle build");
  Progress("CompareSample");
  CompareSample(run, sample, [&](const std::string& text) {
    xrank::query::QueryOptions o;
    o.algorithm = xrank::query::MergeAlgorithm::kExhaustive;
    return Observe(
        Check(oracle->Query(text, kTopM, IndexKind::kDil, o), "oracle query"));
  }, "exhaustive DIL");
  oracle.reset();

  if (run.tracer.on()) {
    PerLayer(run, target, moved, disk);
    OpenVerifyProbe(run, target, spec, in.docs, dir);
    LayerPass(run, in.docs, IndexKind::kHdil, spec.engine);
    WalProbe(run, stream.docs());
  }
}

void RunXmark(Run& run) {
  XmarkShape shape;
  Inputs in;
  in.docs = GenerateXmark(shape, run.seed);
  Progress("generated");
  for (const Doc& d : in.docs) in.bytes += d.text.size();
  Rng rng(run.seed * 104729 + 3);

  ReadPhase phase;
  {
    Zipf words(shape.vocabulary, shape.zipf_s);
    std::set<std::vector<std::string>> seen;
    while (phase.log.size() < 3000) {
      // One frequent term, one mid-frequency term, sometimes a rare one:
      // the frequent lists span many pages for MaxScore/BMW to skip.
      std::vector<std::string> q = {Word(Uniform(rng, 30)),
                                    Word(30 + Uniform(rng, 570))};
      if (Chance(rng, 0.5)) {
        q.push_back(Word(600 + Uniform(rng, shape.vocabulary - 600)));
      }
      if (seen.insert(q).second) phase.log.push_back(std::move(q));
    }
  }
  phase.round_length = 200;
  phase.zipf_s = 0.0;  // the router bypasses the result cache
  phase.conjunctive = false;
  ModelIndex model;
  for (const Doc& d : in.docs) model.AddDoc(&d);

  BuildSpec spec;
  spec.shards = 4;
  spec.engine.indexes = {IndexKind::kDil};
  spec.engine.scoring.semantics = xrank::query::QuerySemantics::kDisjunctive;
  Target target, writer;
  target.kind = writer.kind = IndexKind::kDil;
  std::string spare;
  const std::string dir = Setup(run, target, spec, in.docs, &writer, &spare);
  const uint64_t disk = DirBytes(dir);  // the committed set-up

  LiveStream::Spec live;
  live.window = 16;  // a router add costs several engine adds
  live.tail = true;
  Rng doc_rng(run.seed * 13 + 11);
  live.make_doc = [&](size_t step, const std::string& marker) {
    Doc doc = XmarkSmallDoc("live" + std::to_string(step) + ".xml", doc_rng,
                            shape);
    // Carry the marker in the document's first text block.
    const std::string tag = "<text>";
    const size_t at = doc.text.find(tag);
    doc.text.insert(at + tag.size(), marker + " ");
    return doc;
  };
  LiveStream stream(live, nullptr);
  Progress("stream.Prefill");
  stream.Prefill(writer);

  const size_t max_rounds = run.Rounds(kXmarkRoundsPerSecond);
  SpreadOpens opens(run, spec, in.docs, spare, max_rounds);
  const CounterSnap before = Snap(target, writer);
  size_t round = 0;
  Progress("RunReadRounds");
  RunReadRounds(run, target, phase, model, rng, max_rounds, [&] {
    for (size_t i = 0; i < kXmarkTailStepsPerRound; ++i) {
      stream.Step(run, writer);
    }
    // The next read round starts beside an idle write engine.
    Check(writer.WaitForMaintenance(), "drain");
    opens.AfterRound(++round);
  });
  opens.Finish();
  Check(writer.WaitForMaintenance(), "maintenance");
  const CounterSnap moved = Snap(target, writer) - before;

  Progress("TakeSample");
  const Sample sample = TakeSample(run, target, phase, 20);

  Progress("EndToEnd");
  EndToEnd(run, disk, in.bytes);
  writer.Reset();

  // Oracle: the monolithic engine over the same corpus. Its pruned page
  // must equal its exhaustive page, and the router's page must equal both.
  EngineOptions mono_options = spec.engine;
  mono_options.result_cache_entries = 0;
  Tracer untraced(false);
  auto mono = Check(XRankEngine::Build(Parse(untraced, in.docs), mono_options),
                    "monolith build");
  Progress("CompareSample");
  CompareSample(run, sample, [&](const std::string& text) {
    xrank::query::QueryOptions o;
    Observed pruned =
        Observe(Check(mono->Query(text, kTopM, IndexKind::kDil, o), "mono"));
    o.algorithm = xrank::query::MergeAlgorithm::kExhaustive;
    Observed exhaustive =
        Observe(Check(mono->Query(text, kTopM, IndexKind::kDil, o), "mono"));
    if (!SameResults(pruned, exhaustive)) {
      run.Problem("monolith pruned != exhaustive for '" + text + "'");
    }
    return exhaustive;
  }, "the monolithic engine");
  mono.reset();

  if (run.tracer.on()) {
    PerLayer(run, target, moved, disk);
    OpenVerifyProbe(run, target, spec, in.docs, dir);
    LayerPass(run, in.docs, IndexKind::kDil, spec.engine);
    WalProbe(run, stream.docs());
  }
}

void RunDblpLive(Run& run) {
  DblpGenerator gen(DblpShape{}, run.seed);
  Inputs in = MakeDblp(gen, 2000);
  Progress("generated");
  Rng rng(run.seed * 15485863 + 9);
  std::vector<std::vector<std::string>> log =
      DblpQueryLog(gen, 2000, /*planted=*/false, rng);
  ModelIndex model;
  for (const Doc& d : in.docs) model.AddDoc(&d);

  BuildSpec spec;
  spec.engine.indexes = {IndexKind::kHdil};
  Target target;
  target.kind = IndexKind::kHdil;
  const std::string dir = Setup(run, target, spec, in.docs);
  const uint64_t disk = DirBytes(dir);  // the committed set-up

  LiveStream::Spec live;
  live.make_doc = [&](size_t step, const std::string& marker) {
    return gen.Paper(in.docs.size() + step, "n", marker);
  };
  live.base_uris = BaseDeletionOrder(in.docs, rng);
  LiveStream stream(live, &model);
  Progress("stream.Prefill");
  stream.Prefill(target);

  // Uniform over the log: every add moves the content sequence and so
  // empties the result cache, and under a Zipf pick the few most frequent
  // queries of a seed's log (about a quarter of all queries at s = 0.8)
  // would decide the mean latency, and with it query_qps.
  Zipf pick(log.size(), 0.0);
  OpCount& queries = run.ops["query"];
  CounterSnap moved;
  CounterSnap before = Snap(target, target);
  std::vector<double> open_times;
  // A restart: drain maintenance, close, reopen the directory with its
  // segments and WAL (timed), and check that every acked add survived and
  // no deleted one came back. kOpenReps of them, spread evenly over the
  // stream, the last after its final round; open_s is their median.
  const auto restart = [&] {
    Check(target.WaitForMaintenance(), "maintenance");
    moved += Snap(target, target) - before;
    target.Reset();
    double s = 0;
    OpenTarget(run, target, spec, in.docs, dir, /*build=*/false, &s);
    open_times.push_back(s);
    Progress("open " + std::to_string(s) + " s");
    stream.VerifyDurable(run, target);
    before = Snap(target, target);
  };
  const size_t max_rounds = run.Rounds(kLiveRoundsPerSecond);
  for (size_t round = 0; round < max_rounds && !run.OutOfTime(); ++round) {
    // One round: eight steps, each followed by three seeded queries, then
    // one base-document delete.
    for (int s = 0; s < 8 * 3; ++s) {
      if (s % 3 == 0) stream.Step(run, target);
      const std::vector<std::string>& keywords = log[pick.Sample(rng)];
      const std::string text = JoinWords(keywords);
      ++queries.attempted;
      auto response = TimedQuery(run, target, text, kTopM, /*record=*/true);
      std::string why;
      if (!response.ok()) {
        ++queries.failed;
        run.Problem("query '" + text + "': " + response.status().ToString());
        continue;
      }
      if (VerifyResponse(model, response.value(), keywords, true, kTopM,
                         stream.deleted(), &why) != Verdict::kOk) {
        ++queries.failed;
        run.Problem("query '" + text + "': " + why);
      }
    }
    stream.DeleteBase(run, target);
    if ((open_times.size() + 1) * max_rounds <=
        (round + 1) * static_cast<size_t>(kOpenReps)) {
      restart();
    }
  }
  while (open_times.size() < static_cast<size_t>(kOpenReps)) restart();
  run.Metric("open_s", Median(open_times), "s");
  std::printf("live stream: %zu steps\n", stream.steps());

  Progress("EndToEnd");
  EndToEnd(run, disk, in.bytes);
  if (run.tracer.on()) {
    PerLayer(run, target, moved, disk);
    LayerPass(run, in.docs, IndexKind::kHdil, spec.engine);
    WalProbe(run, stream.docs());
    // Reopen cost with and without verification, after the stream.
    OpenVerifyProbe(run, target, spec, in.docs, dir);
  }
}

int Main(int argc, char** argv) {
  Run run;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      run.seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--work") {
      run.work = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (run.work.empty() || run.workload.empty()) Die("missing --workload/--work");
  run.tracer = Tracer(trace);
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises once a build frees its large buffers, so later builds in the same
  // process keep those buffers on the heap, and the peak RSS of the ninth
  // set-up stood 20-50 MB above the first's, by an amount that changed with
  // the seed. Pinned, every set-up sees the allocator a fresh process does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  fs::remove_all(run.work);
  fs::create_directories(run.work);
  std::printf("calibration: %s\n", Calibrate().c_str());

  if (run.workload == "dblp-conj") {
    RunDblpConj(run);
  } else if (run.workload == "xmark-disj-4shard") {
    RunXmark(run);
  } else if (run.workload == "dblp-live") {
    RunDblpLive(run);
  } else {
    Die("unknown workload " + run.workload);
  }
  fs::remove_all(run.work);

  for (const std::string& p : run.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  uint64_t attempted = 0, failed = 0;
  std::string ops;
  for (const auto& [name, c] : run.ops) {
    attempted += c.attempted;
    failed += c.failed;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"attempted\": %llu, \"failed\": %llu}",
                  ops.empty() ? "" : ", ", name.c_str(),
                  static_cast<unsigned long long>(c.attempted),
                  static_cast<unsigned long long>(c.failed));
    ops += buf;
  }
  std::printf("ops: {%s}\n", ops.c_str());
  if (run.tracer.on() && !trace_out.empty()) {
    run.tracer.Write(trace_out, run.tracer.SelfTimes());
  }
  std::string metrics;
  for (const auto& [name, value] : run.metrics) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value,
                  run.units[name].c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
