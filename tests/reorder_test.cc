// Build-time document reordering (index/reorder.h): permutation validity
// and thread-count determinism, byte-identical on-disk builds, bitwise
// query parity between identity and BP-reordered engines (after mapping
// physical ids back through the permutation) across codecs, rank encodings
// and all five index kinds (the three paper baselines through the
// reproduction harness), compression monotonicity on a clustered
// corpus, reorder-id persistence/validation in headers, MANIFEST and
// SHARDING files, sharded parity, and live update + delete + compaction on
// a reordered engine.

#include "index/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "core/engine.h"
#include "core/shard_router.h"
#include "harness/indexed_corpus.h"
#include "index/codec.h"
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

// The paper's five index organizations; the harness builds all of them.
constexpr IndexKind kAllKinds[] = {IndexKind::kNaiveId, IndexKind::kNaiveRank,
                                   IndexKind::kDil, IndexKind::kRdil,
                                   IndexKind::kHdil};

// --- clustered synthetic corpus ---------------------------------------------
//
// `kClusters` groups of documents; documents of one cluster share a set of
// cluster-local terms plus a few globally common terms. Ingest order is
// deterministically shuffled so the identity layout scatters each cluster's
// postings across the doc-id space — exactly the layout BP reordering
// should repair (documents of a cluster become near-neighbors, shrinking
// doc-id gaps in the shared-term posting lists).

constexpr size_t kClusters = 8;
constexpr size_t kDocsPerCluster = 12;

std::string ClusterDocXml(size_t cluster, size_t member) {
  std::ostringstream xml;
  xml << "<doc><body>common shared corpus ";
  for (size_t t = 0; t < 5; ++t) {
    xml << "cluster" << cluster << "term" << t << " ";
  }
  xml << "unique" << cluster << "x" << member << "</body></doc>";
  return xml.str();
}

std::vector<std::pair<std::string, std::string>> ClusteredSources() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (size_t c = 0; c < kClusters; ++c) {
    for (size_t m = 0; m < kDocsPerCluster; ++m) {
      std::ostringstream uri;
      uri << "c" << c << "m" << m << ".xml";
      sources.emplace_back(ClusterDocXml(c, m), uri.str());
    }
  }
  // Fixed LCG shuffle: interleaves the clusters in ingest order.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (size_t i = sources.size(); i > 1; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(sources[i - 1], sources[(state >> 33) % i]);
  }
  return sources;
}

std::vector<xml::Document> ClusteredCollection() {
  std::vector<xml::Document> docs;
  for (const auto& [text, uri] : ClusteredSources()) {
    auto doc = xml::ParseDocument(text, uri);
    EXPECT_TRUE(doc.ok()) << doc.status();
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

// Both kinds the engine serves.
EngineOptions AllIndexOptions() {
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  options.background_maintenance = false;
  return options;
}

// Every kind, for the reproduction harness.
EngineOptions HarnessOptions() {
  EngineOptions options;
  options.indexes = {std::begin(kAllKinds), std::end(kAllKinds)};
  return options;
}

std::unique_ptr<harness::IndexedCorpus> BuildHarness(
    std::vector<xml::Document> docs, const EngineOptions& options) {
  auto corpus = harness::BuildIndexedCorpus(docs, options);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  return corpus.ok() ? std::move(corpus).value() : nullptr;
}

index::ReorderOptions BpOptions(size_t threads = 1) {
  index::ReorderOptions reorder;
  reorder.algorithm = index::ReorderAlgorithm::kBp;
  reorder.min_partition = 4;
  reorder.num_threads = threads;
  return reorder;
}

// Queries whose posting lists span clusters (the shared terms) and stay
// inside one (the cluster-local terms).
std::vector<std::vector<std::string>> ClusterQueries() {
  return {{"shared"},
          {"common", "corpus"},
          {"cluster0term0"},
          {"cluster3term1", "shared"},
          {"cluster7term4", "cluster7term0"},
          {"unique2x3"}};
}

dewey::DeweyId WithDoc(const dewey::DeweyId& id, uint32_t doc) {
  std::vector<uint32_t> components = id.components();
  components[0] = doc;
  return dewey::DeweyId(std::move(components));
}

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/reorder_" + name;
  ::mkdir(dir.c_str(), 0755);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      std::string file = entry->d_name;
      if (file == "." || file == "..") continue;
      std::remove((dir + "/" + file).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- permutation properties -------------------------------------------------

TEST(ReorderTest, PermutationIsValidAndDeterministicAcrossThreadCounts) {
  auto docs = ClusteredCollection();
  EngineOptions options = AllIndexOptions();
  auto engine = XRankEngine::Build(std::move(docs), options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  index::ExtractionOptions extraction;
  extraction.build_naive = false;
  auto extracted = index::ExtractPostings((*engine)->graph(),
                                          (*engine)->elem_ranks(), extraction);
  ASSERT_TRUE(extracted.ok()) << extracted.status();
  const uint32_t doc_count =
      static_cast<uint32_t>((*engine)->graph().documents().size());

  index::DocPermutation reference = index::ComputeReorderPermutation(
      extracted->dewey_postings, doc_count, BpOptions(1));
  ASSERT_EQ(reference.new_to_old.size(), doc_count);
  ASSERT_EQ(reference.old_to_new.size(), doc_count);

  // A bijection whose inverse is consistent.
  std::vector<bool> seen(doc_count, false);
  for (uint32_t p = 0; p < doc_count; ++p) {
    const uint32_t old = reference.new_to_old[p];
    ASSERT_LT(old, doc_count);
    EXPECT_FALSE(seen[old]) << "doc " << old << " mapped twice";
    seen[old] = true;
    EXPECT_EQ(reference.old_to_new[old], p);
    EXPECT_EQ(reference.ToPhysical(old), p);
    EXPECT_EQ(reference.ToIdentity(p), old);
  }
  // BP must actually move something on this scattered corpus.
  EXPECT_FALSE(std::is_sorted(reference.new_to_old.begin(),
                              reference.new_to_old.end()));

  // Seed-free determinism: the permutation is a pure function of the
  // document-term graph, not of the worker count.
  for (size_t threads : {2u, 4u, 8u}) {
    index::DocPermutation perm = index::ComputeReorderPermutation(
        extracted->dewey_postings, doc_count, BpOptions(threads));
    EXPECT_EQ(perm.new_to_old, reference.new_to_old) << threads << " threads";
  }
}

TEST(ReorderTest, TinyAndDisabledCorporaGetIdentity) {
  std::map<std::string, std::vector<index::Posting>> postings;
  postings["a"].push_back(index::Posting{dewey::DeweyId{0, 0}, 0.5f, {}});

  // Disabled: identity regardless of corpus.
  index::DocPermutation off =
      index::ComputeReorderPermutation(postings, 10, index::ReorderOptions{});
  EXPECT_TRUE(off.empty());

  // A single document cannot be reordered.
  index::DocPermutation tiny =
      index::ComputeReorderPermutation(postings, 1, BpOptions());
  EXPECT_TRUE(tiny.empty());
}

// --- on-disk determinism ----------------------------------------------------

TEST(ReorderTest, DiskBuildIsByteIdenticalAcrossThreadCounts) {
  std::map<size_t, std::string> dirs;
  for (size_t threads : {1u, 4u}) {
    std::string dir = FreshDir("det_t" + std::to_string(threads));
    EngineOptions options = AllIndexOptions();
    options.disk_dir = dir;
    options.build.reorder = BpOptions(threads);
    auto engine = XRankEngine::Build(ClusteredCollection(), options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    dirs[threads] = dir;
  }
  for (const char* file : {"DIL.xrank", "HDIL.xrank", "MANIFEST"}) {
    EXPECT_EQ(ReadFileBytes(dirs[1] + "/" + file),
              ReadFileBytes(dirs[4] + "/" + file))
        << file;
  }
}

// --- query parity -----------------------------------------------------------

// Canonical order for comparing an identity-built and a reordered response:
// map every result id back to the identity doc-id space, then sort by
// (rank desc, id). Membership, ids and ranks must agree bitwise. Takes an
// engine or a harness response.
template <typename Response>
std::vector<std::pair<dewey::DeweyId, double>> CanonicalResults(
    const Response& response, const index::DocPermutation& perm) {
  std::vector<std::pair<dewey::DeweyId, double>> out;
  for (const auto& result : response.results) {
    dewey::DeweyId id = result.id;
    if (!perm.empty() && !id.empty()) {
      id = WithDoc(id, perm.ToIdentity(id.component(0)));
    }
    out.emplace_back(std::move(id), result.rank);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

// Runs every query against kind on both builds and asserts parity. m is
// large enough to hold every match: the reordered build may break rank
// ties differently (tie-break is by physical id), so parity is asserted on
// the full mapped result set, not a truncated prefix.
template <typename Searcher>
void ExpectReorderParity(Searcher& identity, Searcher& reordered,
                         const index::DocPermutation& perm, IndexKind kind,
                         const std::string& label) {
  for (const auto& keywords : ClusterQueries()) {
    auto expected = identity.QueryKeywords(keywords, 400, kind);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto actual = reordered.QueryKeywords(keywords, 400, kind);
    ASSERT_TRUE(actual.ok()) << actual.status();

    auto canonical_expected =
        CanonicalResults(*expected, index::DocPermutation{});
    auto canonical_actual = CanonicalResults(*actual, perm);
    const std::string what = label + " kind " +
                             std::string(index::IndexKindName(kind)) +
                             " query " + keywords[0];
    ASSERT_EQ(canonical_actual.size(), canonical_expected.size()) << what;
    for (size_t i = 0; i < canonical_actual.size(); ++i) {
      EXPECT_EQ(canonical_actual[i].first, canonical_expected[i].first)
          << what << " result " << i;
      EXPECT_EQ(canonical_actual[i].second, canonical_expected[i].second)
          << what << " result " << i;
    }
  }
}

// All five kinds through the harness, and the two served kinds end to end
// through the engine (whose decoration maps physical ids back to the graph).
TEST(ReorderTest, QueryParityAcrossCodecsRanksAndKinds) {
  const uint32_t codecs[] = {index::kPostingCodecVarint,
                             index::kPostingCodecBp128,
                             index::kPostingCodecVarintGb};
  for (uint32_t codec : codecs) {
    for (index::RankEncoding ranks :
         {index::RankEncoding::kFloat32, index::RankEncoding::kQuantU8}) {
      const std::string label = "codec " + std::to_string(codec) +
                                " ranks " +
                                std::to_string(static_cast<int>(ranks));
      EngineOptions options = HarnessOptions();
      options.build.format.codec_id = codec;
      options.build.format.ranks = ranks;
      auto identity = BuildHarness(ClusteredCollection(), options);
      ASSERT_NE(identity, nullptr);
      EXPECT_TRUE(identity->doc_perm.empty());
      options.build.reorder = BpOptions();
      auto reordered = BuildHarness(ClusteredCollection(), options);
      ASSERT_NE(reordered, nullptr);
      ASSERT_FALSE(reordered->doc_perm.empty());
      for (IndexKind kind : kAllKinds) {
        ExpectReorderParity(*identity, *reordered, reordered->doc_perm, kind,
                            label);
      }

      EngineOptions engine_options = AllIndexOptions();
      engine_options.build.format = options.build.format;
      auto identity_engine =
          XRankEngine::Build(ClusteredCollection(), engine_options);
      ASSERT_TRUE(identity_engine.ok()) << identity_engine.status();
      engine_options.build.reorder = BpOptions();
      auto reordered_engine =
          XRankEngine::Build(ClusteredCollection(), engine_options);
      ASSERT_TRUE(reordered_engine.ok()) << reordered_engine.status();
      const index::DocPermutation& perm =
          (*reordered_engine)->doc_permutation();
      EXPECT_EQ(perm.new_to_old, reordered->doc_perm.new_to_old);
      for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
        ExpectReorderParity(**identity_engine, **reordered_engine, perm, kind,
                            label + " engine");
      }
    }
  }
}

TEST(ReorderTest, ResultsDecorateWithIdentityDocumentUris) {
  EngineOptions options = AllIndexOptions();
  options.build.reorder = BpOptions();
  auto engine = XRankEngine::Build(ClusteredCollection(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_FALSE((*engine)->doc_permutation().empty());

  // The unique term pins the expected document; the result id must carry
  // the PHYSICAL doc id while the decorated URI names the original source.
  auto response = (*engine)->QueryKeywords({"unique2x3"}, 10, IndexKind::kDil);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_FALSE(response->results.empty());
  for (const auto& result : response->results) {
    EXPECT_EQ(result.document_uri, "c2m3.xml");
    const uint32_t physical = result.id.component(0);
    const uint32_t identity =
        (*engine)->doc_permutation().ToIdentity(physical);
    EXPECT_EQ((*engine)->graph().documents()[identity].uri, "c2m3.xml");
  }
}

// --- compression monotonicity -----------------------------------------------

// Like ClusteredCollection but deep: enough documents per cluster that a
// cluster term's posting list spans several 128-value bp128 blocks. The
// reorder win comes from gap-dominated blocks; the first block of every
// page carries the absolute doc id of its first posting, so single-block
// lists (tiny corpora) cannot improve no matter how well BP clusters.
std::vector<xml::Document> DeepClusteredCollection() {
  std::vector<std::pair<std::string, std::string>> sources;
  constexpr size_t kDeepClusters = 16;
  constexpr size_t kDeepDocs = 400;
  for (size_t c = 0; c < kDeepClusters; ++c) {
    for (size_t m = 0; m < kDeepDocs; ++m) {
      std::ostringstream xml, uri;
      xml << "<doc><body>common shared corpus ";
      for (size_t t = 0; t < 5; ++t) xml << "cl" << c << "t" << t << " ";
      xml << "uq" << c << "x" << m << "</body></doc>";
      uri << "deep_c" << c << "m" << m << ".xml";
      sources.emplace_back(xml.str(), uri.str());
    }
  }
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (size_t i = sources.size(); i > 1; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(sources[i - 1], sources[(state >> 33) % i]);
  }
  std::vector<xml::Document> docs;
  for (const auto& [text, uri] : sources) {
    auto doc = xml::ParseDocument(text, uri);
    EXPECT_TRUE(doc.ok()) << doc.status();
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

TEST(ReorderTest, ClusteredCorpusCompressesTighterAfterReorder) {
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kRdil, IndexKind::kHdil};
  options.build.format.codec_id = index::kPostingCodecBp128;

  auto identity = BuildHarness(DeepClusteredCollection(), options);
  ASSERT_NE(identity, nullptr);

  options.build.reorder = BpOptions(4);
  options.build.reorder.min_partition = 8;
  auto reordered = BuildHarness(DeepClusteredCollection(), options);
  ASSERT_NE(reordered, nullptr);

  // Same postings, tighter gaps: the delta-coded kinds must not grow, and
  // DIL (pure document-ordered lists) must strictly shrink on this
  // deliberately scattered clustered corpus.
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kRdil, IndexKind::kHdil}) {
    const uint64_t before = identity->index_stats(kind).list_used_bytes;
    const uint64_t after = reordered->index_stats(kind).list_used_bytes;
    EXPECT_LE(after, before) << index::IndexKindName(kind);
  }
  EXPECT_LT(reordered->index_stats(IndexKind::kDil).list_used_bytes,
            identity->index_stats(IndexKind::kDil).list_used_bytes);
}

// --- persistence and validation ---------------------------------------------

TEST(ReorderTest, ReopenRederivesTheSamePermutation) {
  std::string dir = FreshDir("reopen");
  EngineOptions options = AllIndexOptions();
  options.disk_dir = dir;
  options.build.reorder = BpOptions();

  std::vector<std::vector<uint32_t>> built_perm;
  std::vector<EngineResponse> built_responses;
  const std::vector<std::vector<std::string>> queries = ClusterQueries();
  {
    auto engine = XRankEngine::Build(ClusteredCollection(), options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    built_perm.push_back((*engine)->doc_permutation().new_to_old);
    ASSERT_FALSE(built_perm.back().empty());
    for (const auto& keywords : queries) {
      auto response = (*engine)->QueryKeywords(keywords, 50, IndexKind::kHdil);
      ASSERT_TRUE(response.ok()) << response.status();
      built_responses.push_back(std::move(response).value());
    }
  }

  // Open must re-derive the identical permutation from the committed
  // reorder id (the caller supplies the same knobs as the build) and serve
  // bitwise-identical results.
  auto reopened = XRankEngine::Open(ClusteredCollection(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->doc_permutation().new_to_old, built_perm.front());
  for (size_t q = 0; q < queries.size(); ++q) {
    const EngineResponse& expected = built_responses[q];
    auto actual = (*reopened)->QueryKeywords(queries[q], 50, IndexKind::kHdil);
    ASSERT_TRUE(actual.ok()) << actual.status();
    ASSERT_EQ(actual->results.size(), expected.results.size()) << queries[q][0];
    for (size_t i = 0; i < actual->results.size(); ++i) {
      EXPECT_EQ(actual->results[i].id, expected.results[i].id)
          << queries[q][0];
      EXPECT_EQ(actual->results[i].rank, expected.results[i].rank)
          << queries[q][0];
      EXPECT_EQ(actual->results[i].document_uri,
                expected.results[i].document_uri)
          << queries[q][0];
    }
  }

  // The committed header and MANIFEST record the pass id.
  auto manifest = index::ReadManifestFile(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  for (const auto& entry : manifest->entries) {
    EXPECT_EQ(entry.format.reorder_id, index::kReorderBp) << entry.file;
  }
  auto file = storage::PageFile::OpenOnDisk(dir + "/DIL.xrank");
  ASSERT_TRUE(file.ok()) << file.status();
  auto opened = index::OpenIndex(std::move(*file));
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->lexicon.format_spec().reorder_id, index::kReorderBp);
}

TEST(ReorderCorruptionTest, UnknownReorderIdIsRefused) {
  index::PostingFormatSpec spec;
  spec.reorder_id = index::kMaxReorderId + 1;
  auto resolved = index::ResolvePostingCodec(spec);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kCorruption);
}

TEST(ReorderCorruptionTest, ManifestRoundTripsAndValidatesReorderToken) {
  index::Manifest manifest;
  index::ManifestEntry entry;
  entry.file = "DIL.xrank";
  entry.kind = IndexKind::kDil;
  entry.page_count = 3;
  entry.crc = 0x1234;
  entry.format.reorder_id = index::kReorderBp;
  manifest.entries.push_back(entry);

  auto parsed = index::ParseManifest(index::SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->entries.size(), 1u);
  EXPECT_EQ(parsed->entries[0].format.reorder_id, index::kReorderBp);

  // An unknown pass id must fail parse (same policy as unknown codecs).
  manifest.entries[0].format.reorder_id = index::kMaxReorderId + 1;
  auto bad = index::ParseManifest(index::SerializeManifest(manifest));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

TEST(ReorderCorruptionTest, MixedReorderIdsAcrossEntriesRefusedAtOpen) {
  std::string dir = FreshDir("mixed");
  EngineOptions options = AllIndexOptions();
  options.disk_dir = dir;
  options.build.reorder = BpOptions();
  {
    auto engine = XRankEngine::Build(ClusteredCollection(), options);
    ASSERT_TRUE(engine.ok()) << engine.status();
  }
  // Rewrite the MANIFEST claiming one base entry was built identity-ordered
  // while the other was reordered: Open must refuse the directory.
  auto manifest = index::ReadManifestFile(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_GE(manifest->entries.size(), 2u);
  manifest->entries[0].format.reorder_id = index::kReorderIdentity;
  ASSERT_TRUE(index::WriteManifestFile(dir, *manifest).ok());

  auto reopened = XRankEngine::Open(ClusteredCollection(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST(ReorderCorruptionTest, ShardingFileRoundTripsAndValidatesReorder) {
  core::ShardingManifest manifest;
  manifest.shards.push_back({"shard-0000", 0, 4});
  manifest.reorder_id = index::kReorderBp;
  std::string blob = core::SerializeShardingManifest(manifest);
  auto parsed = core::ParseShardingManifest(blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->reorder_id, index::kReorderBp);

  // Identity serializes without the token, keeping legacy files bitwise
  // unchanged.
  manifest.reorder_id = 0;
  EXPECT_EQ(core::SerializeShardingManifest(manifest).find("reorder"),
            std::string::npos);

  // An unknown pass id is refused.
  manifest.reorder_id = index::kMaxReorderId + 1;
  auto bad =
      core::ParseShardingManifest(core::SerializeShardingManifest(manifest));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

// --- sharded parity ---------------------------------------------------------

TEST(ReorderTest, ShardedReorderMatchesReorderedMonolith) {
  EngineOptions engine_options = AllIndexOptions();
  engine_options.build.reorder = BpOptions();

  auto monolith = XRankEngine::Build(ClusteredCollection(), engine_options);
  ASSERT_TRUE(monolith.ok()) << monolith.status();
  ASSERT_FALSE((*monolith)->doc_permutation().empty());

  for (size_t shards : {1u, 4u}) {
    core::ShardRouterOptions router_options;
    router_options.num_shards = shards;
    router_options.engine = engine_options;
    auto router =
        core::ShardRouter::Build(ClusteredCollection(), router_options);
    ASSERT_TRUE(router.ok()) << shards << " shards: " << router.status();

    for (const auto& keywords : ClusterQueries()) {
      for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
        auto expected = (*monolith)->QueryKeywords(keywords, 10, kind);
        ASSERT_TRUE(expected.ok()) << expected.status();
        auto actual = (*router)->QueryKeywords(keywords, 10, kind);
        ASSERT_TRUE(actual.ok()) << actual.status();
        std::ostringstream what;
        what << shards << " shards kind " << index::IndexKindName(kind)
             << " query " << keywords[0];
        ASSERT_EQ(actual->results.size(), expected->results.size())
            << what.str();
        for (size_t i = 0; i < actual->results.size(); ++i) {
          EXPECT_EQ(actual->results[i].id, expected->results[i].id)
              << what.str() << " result " << i;
          EXPECT_EQ(actual->results[i].rank, expected->results[i].rank)
              << what.str() << " result " << i;
          EXPECT_EQ(actual->results[i].document_uri,
                    expected->results[i].document_uri)
              << what.str() << " result " << i;
        }
      }
    }
  }
}

// --- live updates on a reordered base ---------------------------------------

TEST(ReorderTest, LiveAddDeleteCompactOnReorderedEngine) {
  std::string dir = FreshDir("live");
  EngineOptions options = AllIndexOptions();
  options.disk_dir = dir;
  options.build.reorder = BpOptions();
  options.max_delta_documents = 64;
  options.flush_delta_documents = 64;
  options.compact_segment_count = 0;

  auto engine = XRankEngine::Build(ClusteredCollection(), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_FALSE((*engine)->doc_permutation().empty());

  // Live documents land past the permuted base range and are served
  // alongside it.
  ASSERT_TRUE((*engine)
                  ->AddDocument("live0.xml",
                                "<doc><body>shared corpus livefresh</body></doc>")
                  .ok());
  auto mixed = (*engine)->QueryKeywords({"shared"}, 400, IndexKind::kDil);
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_EQ(mixed->results.size(),
            size_t{kClusters * kDocsPerCluster + 1});
  auto live_only =
      (*engine)->QueryKeywords({"livefresh"}, 10, IndexKind::kDil);
  ASSERT_TRUE(live_only.ok());
  ASSERT_FALSE(live_only->results.empty());
  EXPECT_EQ(live_only->results[0].document_uri, "live0.xml");

  // Deleting a base document by URI filters the right (physical) doc.
  ASSERT_TRUE((*engine)->DeleteDocument("c2m3.xml").ok());
  auto deleted = (*engine)->QueryKeywords({"unique2x3"}, 10, IndexKind::kDil);
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(deleted->results.empty());

  // Reopen: WAL replay must map the stored identity doc id back through
  // the re-derived permutation.
  engine->reset();
  auto reopened = XRankEngine::Open(ClusteredCollection(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto after_open =
      (*reopened)->QueryKeywords({"unique2x3"}, 10, IndexKind::kDil);
  ASSERT_TRUE(after_open.ok());
  EXPECT_TRUE(after_open->results.empty());
  auto live_again =
      (*reopened)->QueryKeywords({"livefresh"}, 10, IndexKind::kDil);
  ASSERT_TRUE(live_again.ok());
  ASSERT_FALSE(live_again->results.empty());

  // Compaction rebuilds the physical indexes with the deleted document
  // gone; results for the survivors are unchanged.
  auto before = (*reopened)->QueryKeywords({"shared"}, 400, IndexKind::kHdil);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*reopened)->CompactDeletions().ok());
  auto after = (*reopened)->QueryKeywords({"shared"}, 400, IndexKind::kHdil);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->results.size(), before->results.size());
  for (size_t i = 0; i < after->results.size(); ++i) {
    EXPECT_EQ(after->results[i].document_uri,
              before->results[i].document_uri)
        << i;
    EXPECT_NEAR(after->results[i].rank, before->results[i].rank, 1e-9) << i;
  }
  auto gone = (*reopened)->QueryKeywords({"unique2x3"}, 10, IndexKind::kDil);
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->results.empty());
}

}  // namespace
}  // namespace xrank
