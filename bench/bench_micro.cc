// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// the paper's algorithms: Dewey codecs and comparisons, B+-tree probes,
// posting-list scans, tokenization, minimal-window computation, and the
// Dewey-stack merge.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/bitpack.h"
#include "common/metrics.h"
#include "common/random.h"
#include "dewey/codec.h"
#include "index/analyzer.h"
#include "index/block_cache.h"
#include "index/codec.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "index/reorder.h"
#include "query/dewey_stack.h"
#include "query/dil_query.h"
#include "query/proximity.h"
#include "query/result_heap.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/page_file.h"

namespace xrank {
namespace {

std::vector<dewey::DeweyId> MakeIds(size_t count, uint64_t seed) {
  Random rng(seed);
  std::vector<dewey::DeweyId> ids;
  ids.reserve(count);
  uint32_t doc = 0, a = 0, b = 0, c = 0;
  for (size_t i = 0; i < count; ++i) {
    c += 1 + static_cast<uint32_t>(rng.Uniform(3));
    if (c > 12) {
      c = 0;
      ++b;
    }
    if (b > 12) {
      b = 0;
      ++a;
    }
    if (a > 12) {
      a = 0;
      ++doc;
    }
    ids.push_back(dewey::DeweyId({doc, a, b, c}));
  }
  return ids;
}

void BM_DeweyEncode(benchmark::State& state) {
  auto ids = MakeIds(1024, 1);
  size_t i = 0;
  std::string buffer;
  for (auto _ : state) {
    buffer.clear();
    dewey::EncodeDeweyId(ids[i++ & 1023], &buffer);
    benchmark::DoNotOptimize(buffer);
  }
}
BENCHMARK(BM_DeweyEncode);

void BM_DeweyDecode(benchmark::State& state) {
  auto ids = MakeIds(1024, 2);
  std::vector<std::string> encoded;
  for (const auto& id : ids) {
    std::string buffer;
    dewey::EncodeDeweyId(id, &buffer);
    encoded.push_back(std::move(buffer));
  }
  size_t i = 0;
  for (auto _ : state) {
    size_t offset = 0;
    auto id = dewey::DecodeDeweyId(encoded[i++ & 1023], &offset);
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_DeweyDecode);

void BM_DeweyCompare(benchmark::State& state) {
  auto ids = MakeIds(1024, 3);
  size_t i = 0;
  for (auto _ : state) {
    bool less = ids[i & 1023] < ids[(i + 7) & 1023];
    benchmark::DoNotOptimize(less);
    ++i;
  }
}
BENCHMARK(BM_DeweyCompare);

void BM_CommonPrefixLength(benchmark::State& state) {
  auto ids = MakeIds(1024, 4);
  size_t i = 0;
  for (auto _ : state) {
    size_t cpl = ids[i & 1023].CommonPrefixLength(ids[(i + 1) & 1023]);
    benchmark::DoNotOptimize(cpl);
    ++i;
  }
}
BENCHMARK(BM_CommonPrefixLength);

void BM_BtreeSeekCeil(benchmark::State& state) {
  auto file = storage::PageFile::CreateInMemory();
  storage::BtreeBuilder builder(file.get(), nullptr);
  auto ids = MakeIds(static_cast<size_t>(state.range(0)), 5);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    (void)builder.Add(ids[i], i);
  }
  auto stats = builder.Finish();
  storage::BufferPool pool(file.get(), 4096, nullptr);
  storage::BtreeReader reader(&pool, stats->root);
  size_t i = 0;
  for (auto _ : state) {
    auto seek = reader.SeekCeil(ids[(i += 17) % ids.size()]);
    benchmark::DoNotOptimize(seek);
  }
}
BENCHMARK(BM_BtreeSeekCeil)->Arg(1000)->Arg(100000);

void BM_PostingListScan(benchmark::State& state) {
  auto file = storage::PageFile::CreateInMemory();
  index::PostingListWriter writer(file.get(), true);
  auto ids = MakeIds(10000, 6);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (const auto& id : ids) {
    index::Posting posting;
    posting.id = id;
    posting.elem_rank = 0.5f;
    posting.positions = {1, 5, 9};
    (void)writer.Add(posting);
  }
  auto extent = writer.Finish();
  storage::BufferPool pool(file.get(), 4096, nullptr);
  for (auto _ : state) {
    index::PostingListCursor cursor(&pool, *extent, true);
    index::Posting posting;
    size_t count = 0;
    while (*cursor.Next(&posting)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_PostingListScan);

// Per-codec decode fixture: the same dblp-shaped 20k-posting list written
// through one codec, its pages snapshotted so the benchmark loop measures
// pure page decoding — the codec-specific cost — without buffer-pool
// traffic. check_perf.sh gates the bp128 row against the varint baseline.
struct CodecFixture {
  index::PostingFormat format;
  std::vector<storage::Page> pages;
  size_t posting_count = 0;
  double bytes_per_posting = 0.0;
};

CodecFixture* GetCodecFixture(const std::string& codec_name) {
  static auto* cache = new std::vector<std::pair<std::string, CodecFixture*>>;
  for (auto& entry : *cache) {
    if (entry.first == codec_name) return entry.second;
  }
  const index::PostingCodec* codec =
      index::FindPostingCodecByName(codec_name);
  if (codec == nullptr) return nullptr;
  auto ids = MakeIds(20000, 6);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  Random rng(10);
  std::vector<index::Posting> postings;
  postings.reserve(ids.size());
  for (const auto& id : ids) {
    index::Posting posting;
    posting.id = id;
    posting.elem_rank = 0.001f * static_cast<float>(1 + rng.Uniform(1000));
    uint32_t base = static_cast<uint32_t>(rng.Uniform(200));
    posting.positions = {base, base + 3, base + 11};
    postings.push_back(std::move(posting));
  }
  auto* fixture = new CodecFixture();
  fixture->format = index::MakeWriterFormat(
      codec,
      index::PostingFormatSpec{codec->id(), index::RankEncoding::kFloat32},
      postings, /*delta_encode_ids=*/true);
  auto file = storage::PageFile::CreateInMemory();
  index::PostingListWriter writer(file.get(), fixture->format);
  for (const auto& posting : postings) (void)writer.Add(posting);
  auto extent = writer.Finish();
  storage::BufferPool pool(file.get(), 4096, nullptr);
  fixture->pages.resize(extent->page_count);
  for (uint32_t p = 0; p < extent->page_count; ++p) {
    (void)pool.Read(extent->first_page + p, &fixture->pages[p]);
  }
  fixture->posting_count = postings.size();
  fixture->bytes_per_posting = static_cast<double>(extent->byte_count) /
                               static_cast<double>(postings.size());
  cache->emplace_back(codec_name, fixture);
  return fixture;
}

// Raw group-varint stream decode: a doc-gap-shaped u32 stream decoded
// through the dispatched kernel vs. the portable scalar reference — the
// primitive underneath vgb page decoding, isolated from Dewey
// reconstruction so the SIMD speedup is visible. check_perf.sh gates
// vgb_simd against vgb_scalar whenever a SIMD kernel is active (the
// simd_active counter; 0 means the host or XRANK_NO_SIMD forces scalar
// and the two rows measure the same code).
struct VgbStreamFixture {
  std::vector<uint8_t> encoded;  // 16-byte slack after the encoded extent
  size_t value_count = 0;
  size_t encoded_bytes = 0;
};

VgbStreamFixture* GetVgbStreamFixture() {
  static VgbStreamFixture* fixture = [] {
    auto* out = new VgbStreamFixture();
    Random rng(11);
    constexpr size_t kValues = 64 * 1024;
    std::vector<uint32_t> values(kValues);
    for (uint32_t& value : values) {
      // Byte-length mix of a delta stream: mostly 1-byte gaps, some 2-byte,
      // occasional wide jumps.
      uint64_t bucket = rng.Uniform(100);
      if (bucket < 70) {
        value = static_cast<uint32_t>(rng.Uniform(1u << 7));
      } else if (bucket < 95) {
        value = static_cast<uint32_t>(rng.Uniform(1u << 14));
      } else {
        value = static_cast<uint32_t>(rng.Uniform(1u << 28));
      }
    }
    for (size_t group = 0; group < values.size(); group += 4) {
      size_t in_group = std::min<size_t>(4, values.size() - group);
      uint8_t control = 0;
      size_t control_at = out->encoded.size();
      out->encoded.push_back(0);
      for (size_t j = 0; j < in_group; ++j) {
        uint32_t value = values[group + j];
        uint8_t length = value < (1u << 8)    ? 1
                         : value < (1u << 16) ? 2
                         : value < (1u << 24) ? 3
                                              : 4;
        control |= static_cast<uint8_t>((length - 1) << (2 * j));
        for (uint8_t b = 0; b < length; ++b) {
          out->encoded.push_back(static_cast<uint8_t>(value >> (8 * b)));
        }
      }
      out->encoded[control_at] = control;
    }
    out->value_count = kValues;
    out->encoded_bytes = out->encoded.size();
    out->encoded.resize(out->encoded.size() + 16);
    return out;
  }();
  return fixture;
}

void RunGroupVarintStreamDecode(benchmark::State& state, bool dispatched) {
  VgbStreamFixture* fixture = GetVgbStreamFixture();
  std::vector<uint32_t> out(fixture->value_count);
  const uint8_t* in = fixture->encoded.data();
  const uint8_t* in_end = fixture->encoded.data() + fixture->encoded.size();
  for (auto _ : state) {
    size_t consumed = 0;
    bool ok = dispatched
                  ? bitpack::UnpackGroupVarint(in, in_end,
                                               fixture->value_count,
                                               out.data(), &consumed)
                  : bitpack::UnpackGroupVarintPortable(in, in_end,
                                                       fixture->value_count,
                                                       out.data(), &consumed);
    if (!ok || consumed != fixture->encoded_bytes) {
      state.SkipWithError("group-varint stream decode failed");
      return;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture->value_count));
  state.counters["simd_active"] =
      std::strcmp(bitpack::GroupVarintKernelName(), "scalar") != 0 ? 1.0
                                                                   : 0.0;
}

void BM_PostingDecode(benchmark::State& state, const char* codec_name) {
  if (std::strcmp(codec_name, "vgb_simd") == 0) {
    return RunGroupVarintStreamDecode(state, /*dispatched=*/true);
  }
  if (std::strcmp(codec_name, "vgb_scalar") == 0) {
    return RunGroupVarintStreamDecode(state, /*dispatched=*/false);
  }
  CodecFixture* fixture = GetCodecFixture(codec_name);
  if (fixture == nullptr) {
    state.SkipWithError("codec not registered");
    return;
  }
  std::vector<index::Posting> block;
  for (auto _ : state) {
    size_t decoded = 0;
    for (const storage::Page& page : fixture->pages) {
      Status status =
          fixture->format.codec->DecodePage(page, fixture->format, &block);
      if (!status.ok()) {
        state.SkipWithError(status.ToString().c_str());
        return;
      }
      decoded += block.size();
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture->posting_count));
  state.counters["bytes_per_posting"] = fixture->bytes_per_posting;
}
BENCHMARK_CAPTURE(BM_PostingDecode, varint, "varint");
BENCHMARK_CAPTURE(BM_PostingDecode, bp128, "bp128");
BENCHMARK_CAPTURE(BM_PostingDecode, vgb, "vgb");
BENCHMARK_CAPTURE(BM_PostingDecode, vgb_simd, "vgb_simd");
BENCHMARK_CAPTURE(BM_PostingDecode, vgb_scalar, "vgb_scalar");

void BM_Tokenize(benchmark::State& state) {
  index::Analyzer analyzer;
  std::string text;
  Random rng(7);
  for (int i = 0; i < 200; ++i) {
    text += "word" + std::to_string(rng.Uniform(1000)) + " ";
  }
  for (auto _ : state) {
    uint32_t position = 0;
    auto tokens = analyzer.Tokenize(text, &position);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_Tokenize);

void BM_MinimalWindow(benchmark::State& state) {
  Random rng(8);
  std::vector<std::vector<uint32_t>> lists(3);
  for (auto& list : lists) {
    for (int i = 0; i < 64; ++i) {
      list.push_back(static_cast<uint32_t>(rng.Uniform(10000)));
    }
  }
  for (auto _ : state) {
    uint32_t window = query::MinimalWindowSize(lists);
    benchmark::DoNotOptimize(window);
  }
}
BENCHMARK(BM_MinimalWindow);

void BM_DeweyStackMerge(benchmark::State& state) {
  auto ids = MakeIds(10000, 9);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  query::ScoringOptions scoring;
  for (auto _ : state) {
    size_t emitted = 0;
    query::DeweyStackMerger merger(
        2, scoring, 1,
        [&](const query::CandidateResult&) { ++emitted; });
    for (size_t i = 0; i < ids.size(); ++i) {
      index::Posting posting;
      posting.id = ids[i];
      posting.elem_rank = 0.25f;
      posting.positions = {static_cast<uint32_t>(i)};
      merger.Add(i & 1, posting);
    }
    merger.Flush();
    benchmark::DoNotOptimize(emitted);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_DeweyStackMerge);

// Sorted Dewey ids shaped like XMark's: elements nested 6-12 levels deep,
// where consecutive postings mostly share a long prefix (0-4 levels are
// popped between them) and a new document starts now and then.
std::vector<dewey::DeweyId> MakeDeepIds(size_t count, uint64_t seed) {
  Random rng(seed);
  std::vector<dewey::DeweyId> ids;
  ids.reserve(count);
  std::vector<uint32_t> path = {0};
  for (size_t i = 0; i < count; ++i) {
    size_t keep = path.size() > 2 ? path.size() - rng.Uniform(5) : 1;
    if (keep < 2 || rng.Bernoulli(0.005)) keep = 1;
    path.resize(keep);
    ++path.back();  // the next sibling: larger than the whole last subtree
    const size_t depth = 6 + rng.Uniform(7);
    while (path.size() < depth) {
      path.push_back(static_cast<uint32_t>(rng.Uniform(3)));
    }
    ids.push_back(dewey::DeweyId(path));
  }
  return ids;
}

// The serving merge on deep ids: 1-3 keywords, disjunctive (every posting's
// element is a candidate), a fresh bounded top-10 accumulator and merger
// per iteration as per query, and the final TakeTop. ns_per_posting is
// the merge's cost per posting; check_perf.sh gates its throughput
// against the shallow BM_DeweyStackMerge above.
void BM_DeweyStackMergeDeep(benchmark::State& state) {
  const size_t keywords = static_cast<size_t>(state.range(0));
  auto ids = MakeDeepIds(10000, 11);
  Random rng(12);
  std::vector<std::pair<size_t, index::Posting>> postings(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    postings[i].first = rng.Uniform(keywords);
    postings[i].second.id = ids[i];
    postings[i].second.elem_rank =
        static_cast<float>(0.001 + rng.Uniform(1000) * 1e-3);
    postings[i].second.positions = {static_cast<uint32_t>(3 * i)};
  }
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  for (auto _ : state) {
    query::TopKAccumulator accumulator(10);
    query::DeweyStackMerger merger(keywords, scoring, 1, &accumulator);
    for (const auto& [keyword, posting] : postings) {
      merger.Add(keyword, posting);
    }
    merger.Flush();
    auto top = accumulator.TakeTop();
    benchmark::DoNotOptimize(top);
  }
  const double total = static_cast<double>(state.iterations()) *
                       static_cast<double>(postings.size());
  state.SetItemsProcessed(static_cast<int64_t>(total));
  state.counters["ns_per_posting"] = benchmark::Counter(
      total * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DeweyStackMergeDeep)->DenseRange(1, 3);

// Two-term conjunctive corpus with skewed ElemRanks: both terms occur in
// every document (document-at-a-time skipping cannot help), the first few
// documents carry large ranks and the long tail is tiny — the regime where
// block-max pruning pays. Built once and shared across iterations.
struct SkewedIndex {
  std::unique_ptr<storage::PageFile> file;
  std::unique_ptr<storage::CostModel> cost_model;
  std::unique_ptr<storage::BufferPool> pool;
  index::Lexicon lexicon;
};

SkewedIndex* GetSkewedIndex() {
  static SkewedIndex* index = [] {
    auto* out = new SkewedIndex();
    out->file = storage::PageFile::CreateInMemory();
    constexpr uint32_t kDocs = 50000;
    const char* terms[] = {"hot", "cold"};
    for (uint32_t t = 0; t < 2; ++t) {
      index::PostingListWriter writer(out->file.get(),
                                      /*delta_encode_ids=*/true);
      for (uint32_t d = 0; d < kDocs; ++d) {
        index::Posting posting;
        posting.id = dewey::DeweyId{d, 1};
        posting.elem_rank = d < 16 ? 1000.0f - static_cast<float>(d)
                                   : 1.0f / static_cast<float>(d + 2);
        posting.positions = {t + 1};
        writer.Add(posting).status();
      }
      auto extent = writer.Finish();
      index::TermInfo info;
      info.list = *extent;
      info.skips = writer.TakeSkips();
      info.max_doc_rank = writer.max_doc_rank();
      out->lexicon.Add(terms[t], std::move(info));
    }
    out->cost_model = std::make_unique<storage::CostModel>();
    out->pool = std::make_unique<storage::BufferPool>(out->file.get(), 4096,
                                                      out->cost_model.get());
    return out;
  }();
  return index;
}

void RunTopkMerge(benchmark::State& state, bool use_skip_blocks,
                  bool use_pruning, index::BlockCache* cache) {
  SkewedIndex* idx = GetSkewedIndex();
  query::DilQueryProcessor processor(idx->pool.get(), &idx->lexicon,
                                     query::ScoringOptions{}, use_skip_blocks,
                                     cache, use_pruning);
  std::vector<std::string> keywords = {"hot", "cold"};
  uint64_t postings = 0;
  for (auto _ : state) {
    auto response = processor.Execute(keywords, 10);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    postings += response->stats.postings_scanned;
    benchmark::DoNotOptimize(response->results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(postings));
}

void BM_TopkMergeExhaustive(benchmark::State& state) {
  RunTopkMerge(state, /*use_skip_blocks=*/false, /*use_pruning=*/false,
               nullptr);
}
BENCHMARK(BM_TopkMergeExhaustive);

void BM_TopkMergePruned(benchmark::State& state) {
  RunTopkMerge(state, /*use_skip_blocks=*/true, /*use_pruning=*/true,
               nullptr);
}
BENCHMARK(BM_TopkMergePruned);

void BM_TopkMergePrunedCached(benchmark::State& state) {
  static index::BlockCache* cache = new index::BlockCache(32u << 20);
  RunTopkMerge(state, /*use_skip_blocks=*/true, /*use_pruning=*/true, cache);
}
BENCHMARK(BM_TopkMergePrunedCached);

// Disjunctive top-k over the same skewed corpus: the exhaustive merge must
// consume both full lists; MaxScore / WAND / block-max WAND prune on the
// score bounds instead. check_perf.sh gates the pruned rows against the
// exhaustive baseline.
void RunDisjunctiveTopk(benchmark::State& state,
                        query::MergeAlgorithm algorithm,
                        bool use_skip_blocks) {
  SkewedIndex* idx = GetSkewedIndex();
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor processor(idx->pool.get(), &idx->lexicon, scoring,
                                     use_skip_blocks);
  std::vector<std::string> keywords = {"hot", "cold"};
  query::QueryOptions options;
  options.algorithm = algorithm;
  uint64_t postings = 0;
  for (auto _ : state) {
    auto response = processor.Execute(keywords, 10, options);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    postings += response->stats.postings_scanned;
    benchmark::DoNotOptimize(response->results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(postings));
}

void BM_TopkDisjunctiveExhaustive(benchmark::State& state) {
  RunDisjunctiveTopk(state, query::MergeAlgorithm::kExhaustive,
                     /*use_skip_blocks=*/false);
}
BENCHMARK(BM_TopkDisjunctiveExhaustive);

void BM_TopkDisjunctiveMaxScore(benchmark::State& state) {
  RunDisjunctiveTopk(state, query::MergeAlgorithm::kMaxScore,
                     /*use_skip_blocks=*/true);
}
BENCHMARK(BM_TopkDisjunctiveMaxScore);

void BM_TopkDisjunctiveWand(benchmark::State& state) {
  RunDisjunctiveTopk(state, query::MergeAlgorithm::kWand,
                     /*use_skip_blocks=*/true);
}
BENCHMARK(BM_TopkDisjunctiveWand);

void BM_TopkDisjunctiveBmw(benchmark::State& state) {
  RunDisjunctiveTopk(state, query::MergeAlgorithm::kBlockMaxWand,
                     /*use_skip_blocks=*/true);
}
BENCHMARK(BM_TopkDisjunctiveBmw);

// Clustered corpus in two physical doc-id layouts sharing one page file:
// "@id" assigns doc ids by an LCG shuffle (clusters scattered — the
// ingest-order worst case) and "@bp" applies the BP permutation computed
// from the shuffled postings. Every document carries the dense "hot" /
// "cold" pair the disjunctive query runs over plus its cluster's marker
// term (the structure BP exploits), and all the large ElemRanks live in
// cluster 0 — shuffled, every block-max is poisoned by a nearby hot
// document; reordered, the maxima collapse outside one contiguous id range
// and block-max WAND skips nearly everything. The fixture also re-encodes
// every list (markers included) under bp128 per layout, so the benchmark
// rows carry the space side of the reorder win as a counter.
// check_perf.sh gates reordered BMW time and reordered bp128
// bytes-per-posting against the shuffled rows.
struct ClusteredLayouts {
  std::unique_ptr<storage::PageFile> file;
  std::unique_ptr<storage::BufferPool> pool;
  index::Lexicon lexicon;  // "hot@id", "cold@id", "hot@bp", "cold@bp"
  double bp128_bytes_per_posting_id = 0.0;
  double bp128_bytes_per_posting_bp = 0.0;
};

ClusteredLayouts* GetClusteredLayouts() {
  static ClusteredLayouts* layouts = [] {
    auto* out = new ClusteredLayouts();
    out->file = storage::PageFile::CreateInMemory();
    constexpr uint32_t kClusters = 64;
    constexpr uint32_t kDocsPerCluster = 780;
    constexpr uint32_t kDocs = kClusters * kDocsPerCluster;
    // Random bijection identity -> shuffled physical id.
    std::vector<uint32_t> to_shuffled(kDocs);
    for (uint32_t d = 0; d < kDocs; ++d) to_shuffled[d] = d;
    Random rng(12);
    for (uint32_t i = kDocs; i > 1; --i) {
      std::swap(to_shuffled[i - 1],
                to_shuffled[static_cast<uint32_t>(rng.Uniform(i))]);
    }
    auto rank_of = [](uint32_t identity_doc) {
      return identity_doc < kDocsPerCluster
                 ? 1000.0f - 0.5f * static_cast<float>(identity_doc)
                 : 1.0f / static_cast<float>(identity_doc + 2);
    };
    std::map<std::string, std::vector<index::Posting>> shuffled;
    for (uint32_t identity_doc = 0; identity_doc < kDocs; ++identity_doc) {
      index::Posting posting;
      posting.id = dewey::DeweyId{to_shuffled[identity_doc], 1};
      posting.elem_rank = rank_of(identity_doc);
      posting.positions = {1};
      shuffled["hot"].push_back(posting);
      posting.positions = {2};
      shuffled["cold"].push_back(posting);
      posting.positions = {3};
      shuffled["m" + std::to_string(identity_doc / kDocsPerCluster)]
          .push_back(posting);
    }
    for (auto& [term, list] : shuffled) {
      std::sort(list.begin(), list.end(),
                [](const index::Posting& a, const index::Posting& b) {
                  return a.id < b.id;
                });
    }
    index::ReorderOptions reorder;
    reorder.algorithm = index::ReorderAlgorithm::kBp;
    index::DocPermutation perm =
        index::ComputeReorderPermutation(shuffled, kDocs, reorder);
    std::map<std::string, std::vector<index::Posting>> reordered = shuffled;
    for (auto& [term, list] : reordered) {
      for (index::Posting& posting : list) {
        std::vector<uint32_t> components = posting.id.components();
        components[0] = perm.ToPhysical(components[0]);
        posting.id.AssignComponents(components.data(), components.size());
      }
      std::sort(list.begin(), list.end(),
                [](const index::Posting& a, const index::Posting& b) {
                  return a.id < b.id;
                });
    }
    const index::PostingCodec* bp128 = index::FindPostingCodecByName("bp128");
    const std::pair<const char*,
                    const std::map<std::string, std::vector<index::Posting>>*>
        layouts_by_suffix[] = {{"@id", &shuffled}, {"@bp", &reordered}};
    for (const auto& [suffix, postings] : layouts_by_suffix) {
      // Queried lists: default (varint) format with skip/block-max data.
      for (const char* term : {"hot", "cold"}) {
        index::PostingListWriter writer(out->file.get(),
                                        /*delta_encode_ids=*/true);
        for (const index::Posting& posting : postings->at(term)) {
          writer.Add(posting).status();
        }
        auto extent = writer.Finish();
        index::TermInfo info;
        info.list = *extent;
        info.skips = writer.TakeSkips();
        info.max_doc_rank = writer.max_doc_rank();
        out->lexicon.Add(std::string(term) + suffix, std::move(info));
      }
      // Space side: every list (markers included) re-encoded under bp128.
      uint64_t used_bytes = 0, posting_count = 0;
      for (const auto& [term, list] : *postings) {
        index::PostingFormat format = index::MakeWriterFormat(
            bp128,
            index::PostingFormatSpec{bp128->id(),
                                     index::RankEncoding::kFloat32},
            list, /*delta_encode_ids=*/true);
        index::PostingListWriter writer(out->file.get(), format);
        for (const index::Posting& posting : list) {
          writer.Add(posting).status();
        }
        auto extent = writer.Finish();
        used_bytes += extent->byte_count;
        posting_count += list.size();
      }
      double bytes_per_posting = static_cast<double>(used_bytes) /
                                 static_cast<double>(posting_count);
      (std::strcmp(suffix, "@id") == 0 ? out->bp128_bytes_per_posting_id
                                       : out->bp128_bytes_per_posting_bp) =
          bytes_per_posting;
    }
    out->pool = std::make_unique<storage::BufferPool>(out->file.get(), 4096,
                                                      nullptr);
    return out;
  }();
  return layouts;
}

void RunClusteredBmw(benchmark::State& state, const char* suffix) {
  ClusteredLayouts* idx = GetClusteredLayouts();
  query::ScoringOptions scoring;
  scoring.semantics = query::QuerySemantics::kDisjunctive;
  query::DilQueryProcessor processor(idx->pool.get(), &idx->lexicon, scoring,
                                     /*use_skip_blocks=*/true);
  std::vector<std::string> keywords = {std::string("hot") + suffix,
                                       std::string("cold") + suffix};
  query::QueryOptions options;
  options.algorithm = query::MergeAlgorithm::kBlockMaxWand;
  uint64_t postings = 0;
  for (auto _ : state) {
    auto response = processor.Execute(keywords, 10, options);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      return;
    }
    postings += response->stats.postings_scanned;
    benchmark::DoNotOptimize(response->results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(postings));
  state.counters["bp128_bytes_per_posting"] =
      std::strcmp(suffix, "@id") == 0 ? idx->bp128_bytes_per_posting_id
                                      : idx->bp128_bytes_per_posting_bp;
}

void BM_TopkDisjunctiveBmwShuffled(benchmark::State& state) {
  RunClusteredBmw(state, "@id");
}
BENCHMARK(BM_TopkDisjunctiveBmwShuffled);

void BM_TopkDisjunctiveBmwReordered(benchmark::State& state) {
  RunClusteredBmw(state, "@bp");
}
BENCHMARK(BM_TopkDisjunctiveBmwReordered);

}  // namespace
}  // namespace xrank

// Splices `,"xrank_metrics": {...}` (a metrics-registry snapshot) before
// the final '}' of the google-benchmark JSON file, so perf artifacts carry
// the counter/histogram context without fighting the library for the
// reporter.
static void AppendRegistryToJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  size_t close = content.find_last_of('}');
  if (close == std::string::npos) return;
  std::string registry = xrank::metrics::RenderJson(
      xrank::metrics::Registry::Instance().Snapshot());
  content.insert(close, ",\n\"xrank_metrics\": " + registry + "\n");
  f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

// Custom main so `--json <path>` (the flag shared by the bench binaries)
// maps onto google-benchmark's JSON reporter, and `--codec <name>` narrows
// the run to that codec's posting-decode row.
int main(int argc, char** argv) {
  std::vector<std::string> arg_storage;
  std::vector<char*> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::string(argv[i]) == "--json") {
      json_path = argv[i + 1];
      arg_storage.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      arg_storage.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    if (i + 1 < argc && std::string(argv[i]) == "--codec") {
      arg_storage.push_back(std::string("--benchmark_filter=BM_PostingDecode/") +
                            argv[i + 1] + "$");
      ++i;
      continue;
    }
    arg_storage.push_back(argv[i]);
  }
  args.reserve(arg_storage.size());
  for (std::string& arg : arg_storage) args.push_back(arg.data());
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) AppendRegistryToJson(json_path);
  return 0;
}
