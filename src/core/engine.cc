#include "core/engine.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <set>
#include <string_view>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "core/result_cache.h"
#include "index/dil_index.h"
#include "query/dil_query.h"
#include "query/hdil_query.h"
#include "xml/parser.h"

namespace xrank::core {

namespace {

std::string IndexFileName(index::IndexKind kind) {
  return std::string(index::IndexKindName(kind)) + ".xrank";
}

// Flushed-segment basenames encode the WAL seq range the segment covers, so
// a re-flush after a crash (same pending records, same range) regenerates
// the same name and atomically replaces any half-committed predecessor.
std::string SegmentBaseName(uint64_t first_seq, uint64_t last_seq) {
  return "seg-" + std::to_string(first_seq) + "-" + std::to_string(last_seq);
}

// Disk-backed builders write to `<name>.xrank.tmp`; CommitBaseLocked renames
// the temp files to their final names and seals them in the MANIFEST, so a
// crash mid-build never leaves a half-written file under a committed name.
Result<std::unique_ptr<storage::PageFile>> MakePageFile(
    const EngineOptions& options, index::IndexKind kind) {
  if (options.disk_dir.empty()) {
    return storage::PageFile::CreateInMemory();
  }
  std::string path =
      options.disk_dir + "/" + IndexFileName(kind) + ".tmp";
  return storage::PageFile::CreateOnDisk(path);
}

// Registry handles for the serving path, resolved once per process (the
// registry outlives every engine). These aggregate what the per-engine /
// per-pool counters attribute: the registry is the process-wide view.
struct EngineMetrics {
  metrics::Counter* queries = nullptr;
  metrics::Counter* errors = nullptr;
  metrics::Counter* deadline_exceeded = nullptr;
  metrics::Counter* partial = nullptr;
  metrics::Counter* cache_hit = nullptr;
  metrics::Counter* postings_scanned = nullptr;
  metrics::Counter* pages_skipped = nullptr;
  metrics::Counter* blocks_pruned = nullptr;
  metrics::Counter* docs_skipped = nullptr;
  metrics::Counter* pivot_advances = nullptr;
  metrics::Counter* block_cache_hits = nullptr;
  metrics::Counter* btree_probes = nullptr;
  metrics::Counter* hash_probes = nullptr;
  metrics::Counter* rounds = nullptr;
  metrics::Counter* switched_to_dil = nullptr;
  metrics::Counter* sequential_reads = nullptr;
  metrics::Counter* random_reads = nullptr;
  metrics::Counter* slow_queries = nullptr;
  metrics::Gauge* slow_query_log_size = nullptr;
  metrics::Histogram* latency_us = nullptr;
  // Per-strategy query counts (query.algorithm.<name>), pre-resolved for
  // every label QueryStats::algorithm can carry so the per-query path does
  // no string concatenation or registry lookup.
  std::array<std::pair<std::string_view, metrics::Counter*>, 5> algorithm{};

  static const EngineMetrics& Get() {
    static const EngineMetrics* m = [] {
      auto& registry = metrics::Registry::Instance();
      auto* em = new EngineMetrics();
      em->queries = registry.GetCounter("query.count");
      em->errors = registry.GetCounter("query.errors");
      em->deadline_exceeded = registry.GetCounter("query.deadline_exceeded");
      em->partial = registry.GetCounter("query.partial");
      em->cache_hit = registry.GetCounter("query.result_cache_hit");
      em->postings_scanned = registry.GetCounter("query.postings_scanned");
      em->pages_skipped = registry.GetCounter("query.pages_skipped");
      em->blocks_pruned = registry.GetCounter("query.blocks_pruned");
      em->docs_skipped = registry.GetCounter("query.docs_skipped");
      em->pivot_advances = registry.GetCounter("query.pivot_advances");
      em->block_cache_hits = registry.GetCounter("query.block_cache_hits");
      em->btree_probes = registry.GetCounter("query.btree_probes");
      em->hash_probes = registry.GetCounter("query.hash_probes");
      em->rounds = registry.GetCounter("query.rounds");
      em->switched_to_dil = registry.GetCounter("query.switched_to_dil");
      em->sequential_reads = registry.GetCounter("query.sequential_reads");
      em->random_reads = registry.GetCounter("query.random_reads");
      size_t slot = 0;
      for (std::string_view name :
           {"daat", "exhaustive", "maxscore", "wand", "bmw"}) {
        em->algorithm[slot++] = {
            name, registry.GetCounter("query.algorithm." + std::string(name))};
      }
      em->slow_queries = registry.GetCounter("engine.slow_queries");
      em->slow_query_log_size =
          registry.GetGauge("engine.slow_query_log_entries");
      em->latency_us = registry.GetHistogram("query.latency_us");
      return em;
    }();
    return *m;
  }
};

// Registry handles for the live-update path (update.* series).
struct UpdateMetrics {
  metrics::Counter* wal_appends = nullptr;
  metrics::Counter* wal_replayed = nullptr;
  metrics::Counter* wal_dropped_bytes = nullptr;
  metrics::Counter* add_documents = nullptr;
  metrics::Counter* delete_documents = nullptr;
  metrics::Counter* flushes = nullptr;
  metrics::Counter* compactions = nullptr;
  metrics::Counter* backpressure_waits = nullptr;
  metrics::Histogram* backpressure_us = nullptr;

  static const UpdateMetrics& Get() {
    static const UpdateMetrics* m = [] {
      auto& registry = metrics::Registry::Instance();
      auto* um = new UpdateMetrics();
      um->wal_appends = registry.GetCounter("update.wal_appends");
      um->wal_replayed = registry.GetCounter("update.wal_replayed_records");
      um->wal_dropped_bytes =
          registry.GetCounter("update.wal_dropped_bytes");
      um->add_documents = registry.GetCounter("update.add_documents");
      um->delete_documents = registry.GetCounter("update.delete_documents");
      um->flushes = registry.GetCounter("update.flushes");
      um->compactions = registry.GetCounter("update.compactions");
      um->backpressure_waits =
          registry.GetCounter("update.backpressure_waits");
      um->backpressure_us = registry.GetHistogram("update.backpressure_us");
      return um;
    }();
    return *m;
  }
};

// Folds one finished query's stats into the registry. This is the "one
// source of truth" bridge: QueryStats keeps its per-query API, and every
// field also lands here so a registry snapshot diff reproduces it.
void RecordQueryMetrics(const query::QueryStats& stats) {
  const EngineMetrics& m = EngineMetrics::Get();
  m.queries->Increment();
  m.postings_scanned->Increment(stats.postings_scanned);
  m.pages_skipped->Increment(stats.pages_skipped);
  m.blocks_pruned->Increment(stats.blocks_pruned);
  m.docs_skipped->Increment(stats.docs_skipped);
  m.pivot_advances->Increment(stats.pivot_advances);
  if (!stats.algorithm.empty()) {
    bool matched = false;
    for (const auto& [name, counter] : m.algorithm) {
      if (name == stats.algorithm) {
        counter->Increment();
        matched = true;
        break;
      }
    }
    if (!matched) {
      // A label outside the fixed set (shouldn't happen) still counts;
      // registry lookup off the pre-resolved path.
      metrics::Registry::Instance()
          .GetCounter("query.algorithm." + stats.algorithm)
          ->Increment();
    }
  }
  m.block_cache_hits->Increment(stats.block_cache_hits);
  m.btree_probes->Increment(stats.btree_probes);
  m.hash_probes->Increment(stats.hash_probes);
  m.rounds->Increment(stats.rounds);
  m.sequential_reads->Increment(stats.sequential_reads);
  m.random_reads->Increment(stats.random_reads);
  if (stats.switched_to_dil) m.switched_to_dil->Increment();
  if (stats.partial) m.partial->Increment();
  if (stats.result_cache_hit) m.cache_hit->Increment();
  m.latency_us->Observe(static_cast<uint64_t>(stats.wall_ms * 1e3));
}

// Feeds each trace span into its per-stage latency histogram
// (query.stage.<name>_us). Only runs for traced queries; the name lookup
// takes the registry mutex, which is fine off the hot path.
void RecordStageMetrics(const query::QueryTrace& trace) {
  auto& registry = metrics::Registry::Instance();
  for (const query::QueryTrace::Span& span : trace.spans()) {
    registry.GetHistogram("query.stage." + span.name + "_us")
        ->Observe(static_cast<uint64_t>(span.duration_us));
  }
}

// Segment scans fold into the merged per-query stats via
// query::MergeQueryStats (shared with the shard router's gather); the base
// index's algorithm label and cache/switch flags are kept.
using query::MergeQueryStats;

// Maps a segment-local Dewey ID into the global document-id space (the
// first component is the document id; everything below is unchanged).
dewey::DeweyId RebaseUp(const dewey::DeweyId& local, uint32_t doc_base) {
  if (doc_base == 0) return local;
  std::vector<uint32_t> components = local.components();
  components[0] += doc_base;
  return dewey::DeweyId(std::move(components));
}

dewey::DeweyId RebaseDown(const dewey::DeweyId& global, uint32_t doc_base) {
  if (doc_base == 0) return global;
  std::vector<uint32_t> components = global.components();
  components[0] -= doc_base;
  return dewey::DeweyId(std::move(components));
}

// Replaces the document (first) component — the identity<->physical remap
// for base-corpus Dewey ids under a build-time document reordering.
dewey::DeweyId WithDocComponent(const dewey::DeweyId& id, uint32_t doc) {
  if (id.empty() || id.component(0) == doc) return id;
  std::vector<uint32_t> components = id.components();
  components[0] = doc;
  return dewey::DeweyId(std::move(components));
}

// The engine serves DIL and HDIL only; the paper's other organizations are
// comparison baselines, built by the reproduction harness instead.
Status CheckServedKind(index::IndexKind kind, std::string_view where) {
  if (kind == index::IndexKind::kDil || kind == index::IndexKind::kHdil) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      std::string(where) + " names index kind " +
      std::string(index::IndexKindName(kind)) +
      ", a paper baseline the engine does not serve (it serves DIL and "
      "HDIL); build baselines with the reproduction harness "
      "(harness/indexed_corpus.h, as the bench_* figure benches do)");
}

bool SeqCovered(uint64_t seq,
                const std::vector<std::pair<uint64_t, uint64_t>>& covered) {
  for (const auto& [first, last] : covered) {
    if (seq >= first && seq <= last) return true;
  }
  return false;
}

// Durable resolution handle a DeleteDocument WAL record carries in its
// body, so replay re-applies the delete to exactly the document it hit at
// runtime even after compactions renumber global ids:
//   "base:<doc>" — a base-corpus document (base ids are stable forever)
//   "seq:<seq>"  — a live-added document, by its AddDocument seq (stable
//                  under every flush/compaction; resolves to nothing — a
//                  clean no-op — once a compaction drops the document)
std::string BaseDeleteHandle(uint32_t doc) {
  return "base:" + std::to_string(doc);
}
std::string SeqDeleteHandle(uint64_t seq) {
  return "seq:" + std::to_string(seq);
}
bool ParseDeleteHandle(std::string_view body, bool* is_base,
                       uint64_t* value) {
  std::string_view digits;
  if (body.rfind("base:", 0) == 0) {
    *is_base = true;
    digits = body.substr(5);
  } else if (body.rfind("seq:", 0) == 0) {
    *is_base = false;
    digits = body.substr(4);
  } else {
    return false;
  }
  if (digits.empty()) return false;
  uint64_t parsed = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = parsed;
  return true;
}

}  // namespace

XRankEngine::~XRankEngine() { StopMaintenanceThread(); }

const index::LiveSegment* XRankEngine::LiveState::SegmentForDoc(
    uint32_t global_doc) const {
  for (const auto& segment : segments) {
    if (segment->ContainsGlobalDoc(global_doc)) return segment.get();
  }
  if (delta != nullptr && delta->ContainsGlobalDoc(global_doc)) {
    return delta.get();
  }
  return nullptr;
}

std::shared_ptr<const XRankEngine::LiveState> XRankEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(live_mutex_);
  return live_;
}

void XRankEngine::Publish(std::shared_ptr<LiveState> next) {
  std::lock_guard<std::mutex> lock(live_mutex_);
  next->epoch = (live_ != nullptr) ? live_->epoch + 1 : 1;
  live_ = std::move(next);
}

index::LiveSegmentOptions XRankEngine::SegmentOptions() const {
  index::LiveSegmentOptions options;
  options.graph = options_.graph;
  options.elem_rank = options_.elem_rank;
  options.extraction = options_.extraction;
  options.build = options_.build;
  // Live delta/segment builds are always identity-ordered: their documents
  // arrive incrementally, so no BP pass runs and their format spec must not
  // claim one (segment lexicons are validated against the manifest entry).
  options.build.reorder = index::ReorderOptions{};
  options.build.format.reorder_id = 0;
  options.cost = options_.cost;
  options.buffer_pool_pages = options_.segment_pool_pages;
  options.buffer_pool_shards = options_.buffer_pool_shards;
  return options;
}

Result<std::unique_ptr<XRankEngine>> XRankEngine::Build(
    std::vector<xml::Document> documents, const EngineOptions& options) {
  return Build(std::move(documents), {}, options);
}

Status XRankEngine::PrepareBase(
    const std::vector<xml::Document>& documents,
    const std::vector<xml::Document>& html_documents) {
  // Pre-register the update.* series so registry dumps (xrank_cli stats)
  // show them at zero before the first live update.
  (void)UpdateMetrics::Get();
  analyzer_ = index::Analyzer(options_.extraction.analyzer);
  if (options_.result_cache_entries > 0) {
    result_cache_ = std::make_unique<ResultCache>(
        options_.result_cache_entries);
  }
  if (options_.block_cache_bytes > 0) {
    block_cache_ =
        std::make_unique<index::BlockCache>(options_.block_cache_bytes);
  }

  // 1. Graph construction (Section 2.1 data model).
  graph::GraphBuilder builder(options_.graph);
  for (const xml::Document& doc : documents) {
    XRANK_RETURN_NOT_OK(builder.AddDocument(doc));
  }
  for (const xml::Document& doc : html_documents) {
    XRANK_RETURN_NOT_OK(builder.AddHtmlDocument(doc));
  }
  XRANK_ASSIGN_OR_RETURN(graph_, std::move(builder).Finalize());
  base_doc_count_ = static_cast<uint32_t>(graph_.document_count());

  // 2. ElemRank computation (Section 3) — or injection, when the caller
  // (the shard router) already computed ranks over a larger graph this
  // corpus is a contiguous slice of.
  if (!options_.precomputed_elem_ranks.empty()) {
    if (options_.precomputed_elem_ranks.size() != graph_.node_count()) {
      return Status::InvalidArgument(
          "precomputed_elem_ranks holds " +
          std::to_string(options_.precomputed_elem_ranks.size()) +
          " entries but the graph has " + std::to_string(graph_.node_count()) +
          " nodes");
    }
    elem_rank_result_ = rank::ElemRankResult{};
    elem_rank_result_.ranks = options_.precomputed_elem_ranks;
    elem_rank_result_.converged = true;
    elem_ranks_ = elem_rank_result_.ranks;
    return Status::OK();
  }
  XRANK_ASSIGN_OR_RETURN(elem_rank_result_,
                         rank::ComputeElemRank(graph_, options_.elem_rank));
  elem_ranks_ = elem_rank_result_.ranks;
  return Status::OK();
}

Result<std::unique_ptr<XRankEngine>> XRankEngine::Build(
    std::vector<xml::Document> documents,
    std::vector<xml::Document> html_documents, const EngineOptions& options) {
  for (index::IndexKind kind : options.indexes) {
    XRANK_RETURN_NOT_OK(CheckServedKind(kind, "EngineOptions::indexes"));
  }
  auto engine = std::unique_ptr<XRankEngine>(new XRankEngine());
  engine->options_ = options;
  XRANK_RETURN_NOT_OK(engine->PrepareBase(documents, html_documents));

  // 3. Posting extraction (shared by every physical index).
  XRANK_ASSIGN_OR_RETURN(index::ExtractionResult extracted,
                         index::ExtractPostings(engine->graph_,
                                                engine->elem_ranks_,
                                                options.extraction));

  // 3b. Optional document reordering (index/reorder.h): permute the global
  // doc ids before any physical index is built. The graph and ElemRank stay
  // in ingest order; queries return physical ids.
  if (engine->options_.build.reorder.enabled()) {
    engine->doc_perm_ = index::ComputeReorderPermutation(
        extracted.dewey_postings, engine->base_doc_count_,
        engine->options_.build.reorder);
  }
  engine->options_.build.format.reorder_id =
      engine->doc_perm_.empty() ? 0 : engine->options_.build.reorder.id();
  index::ApplyDocPermutation(engine->doc_perm_, &extracted);

  // 4. Physical index construction (Section 4), into temp files when
  // disk-backed.
  auto base = std::make_shared<BaseState>();
  for (index::IndexKind kind : options.indexes) {
    XRANK_ASSIGN_OR_RETURN(IndexInstance instance,
                           engine->BuildInstance(kind, extracted));
    base->indexes.emplace(kind, std::move(instance));
  }

  // 5. Crash-safe commit: rename temp files and seal them in the MANIFEST.
  XRANK_RETURN_NOT_OK(engine->CommitBaseLocked(base->indexes));

  auto state = std::make_shared<LiveState>();
  state->base = std::move(base);
  state->tombstones = std::make_shared<const std::set<uint32_t>>();
  engine->Publish(std::move(state));
  return engine;
}

Status XRankEngine::CommitBaseLocked(
    std::map<index::IndexKind, IndexInstance>& indexes) {
  if (options_.disk_dir.empty()) return Status::OK();
  auto& failpoints = fail::FailPoints::Instance();

  // Make every temp file durable before exposing it under its final name.
  for (auto& [kind, instance] : indexes) {
    XRANK_RETURN_NOT_OK(instance.built.file->Sync());
  }
  if (auto hit = failpoints.Evaluate("index_commit.before_rename")) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError(
        "injected crash before index rename: temp files written, nothing "
        "committed");
  }
  std::vector<index::ManifestEntry> entries;
  for (auto& [kind, instance] : indexes) {
    std::string name = IndexFileName(kind);
    XRANK_RETURN_NOT_OK(
        index::RenameFile(options_.disk_dir + "/" + name + ".tmp",
                          options_.disk_dir + "/" + name));
    index::ManifestEntry entry;
    entry.file = std::move(name);
    entry.kind = kind;
    entry.page_count = instance.built.file->page_count();
    entry.format = instance.built.lexicon.format_spec();
    // Reading back through the disk page file re-verifies every page's own
    // header checksum while computing the whole-file CRC.
    XRANK_ASSIGN_OR_RETURN(entry.crc,
                           index::ChecksumPageFile(*instance.built.file));
    entries.push_back(std::move(entry));
  }
  if (auto hit = failpoints.Evaluate("index_commit.before_manifest")) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError(
        "injected crash before MANIFEST write: index files renamed but not "
        "committed");
  }
  // The MANIFEST rename inside is the atomic commit point; it also fsyncs
  // the directory, making the data-file renames above durable. Committed
  // live-update segments ride along unchanged.
  index::Manifest next_manifest = manifest_;
  next_manifest.entries = std::move(entries);
  XRANK_RETURN_NOT_OK(index::WriteManifestFile(options_.disk_dir,
                                               next_manifest));
  manifest_ = std::move(next_manifest);
  return Status::OK();
}

Result<std::unique_ptr<XRankEngine>> XRankEngine::Open(
    std::vector<xml::Document> documents, const EngineOptions& options) {
  if (options.disk_dir.empty()) {
    return Status::InvalidArgument("Open requires a disk_dir");
  }
  XRANK_ASSIGN_OR_RETURN(index::Manifest manifest,
                         index::ReadManifestFile(options.disk_dir));
  if (manifest.entries.empty()) {
    return Status::Corruption("MANIFEST in '" + options.disk_dir +
                              "' lists no index files");
  }
  for (const index::ManifestEntry& entry : manifest.entries) {
    XRANK_RETURN_NOT_OK(CheckServedKind(
        entry.kind, "MANIFEST in '" + options.disk_dir + "'"));
  }
  auto engine = std::unique_ptr<XRankEngine>(new XRankEngine());
  engine->options_ = options;
  XRANK_RETURN_NOT_OK(engine->PrepareBase(documents, {}));
  engine->manifest_ = manifest;

  auto base = std::make_shared<BaseState>();
  engine->options_.indexes.clear();
  for (const index::ManifestEntry& entry : manifest.entries) {
    if (options.verify_on_open) {
      storage::PageId first_bad = storage::kInvalidPage;
      Status verified =
          index::VerifyManifestEntry(options.disk_dir, entry, &first_bad);
      if (!verified.ok()) return verified;
    }
    std::string path = options.disk_dir + "/" + entry.file;
    XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageFile> file,
                           storage::PageFile::OpenOnDisk(path));
    if (file->page_count() != entry.page_count) {
      return Status::Corruption(
          "'" + path + "' has " + std::to_string(file->page_count()) +
          " pages, MANIFEST expects " + std::to_string(entry.page_count));
    }
    XRANK_ASSIGN_OR_RETURN(index::BuiltIndex built,
                           index::OpenIndex(std::move(file)));
    if (built.kind != entry.kind) {
      return Status::Corruption(
          "'" + path + "' holds a " +
          std::string(index::IndexKindName(built.kind)) +
          " index, MANIFEST expects " +
          std::string(index::IndexKindName(entry.kind)));
    }
    if (!(built.lexicon.format_spec() == entry.format)) {
      return Status::Corruption(
          "'" + path + "' was written with posting codec " +
          std::to_string(built.lexicon.format_spec().codec_id) +
          " / rank encoding " +
          std::to_string(
              static_cast<uint32_t>(built.lexicon.format_spec().ranks)) +
          ", MANIFEST expects codec " + std::to_string(entry.format.codec_id) +
          " / rank encoding " +
          std::to_string(static_cast<uint32_t>(entry.format.ranks)));
    }
    IndexInstance instance;
    instance.built = std::move(built);
    instance.cost_model =
        std::make_unique<storage::CostModel>(options.cost);
    instance.pool = std::make_unique<storage::BufferPool>(
        instance.built.file.get(), options.buffer_pool_pages,
        instance.cost_model.get(), options.buffer_pool_shards);
    engine->options_.indexes.push_back(entry.kind);
    base->indexes.emplace(entry.kind, std::move(instance));
  }

  // Reorder pass recorded on disk: every base entry must agree (the
  // permutation is a property of the whole build, not one index kind).
  uint32_t reorder_id = manifest.entries.front().format.reorder_id;
  for (const index::ManifestEntry& entry : manifest.entries) {
    if (entry.format.reorder_id != reorder_id) {
      return Status::Corruption(
          "MANIFEST entries disagree on the document-reorder pass: '" +
          manifest.entries.front().file + "' has id " +
          std::to_string(reorder_id) + ", '" + entry.file + "' has id " +
          std::to_string(entry.format.reorder_id));
    }
  }
  if (reorder_id != index::kReorderIdentity) {
    // Re-derive the identical permutation (the pass is deterministic; the
    // caller must open with the same reorder knobs the index was built
    // with — the defaults unless overridden).
    engine->options_.build.reorder.algorithm =
        static_cast<index::ReorderAlgorithm>(reorder_id);
  } else {
    engine->options_.build.reorder = index::ReorderOptions{};
  }
  engine->options_.build.format.reorder_id = reorder_id;

  // A reordered engine recomputes its document permutation from the
  // identity-order extraction (the permutation is not persisted).
  if (reorder_id != index::kReorderIdentity) {
    XRANK_ASSIGN_OR_RETURN(
        index::ExtractionResult extracted,
        index::ExtractPostings(engine->graph_, engine->elem_ranks_,
                               engine->options_.extraction));
    engine->doc_perm_ = index::ComputeReorderPermutation(
        extracted.dewey_postings, engine->base_doc_count_,
        engine->options_.build.reorder);
  }

  auto state = std::make_shared<LiveState>();
  state->base = std::move(base);
  state->tombstones = std::make_shared<const std::set<uint32_t>>();

  // Committed live segments: contiguous global-id ranges continuing past
  // the base corpus.
  index::LiveSegmentOptions segment_options = engine->SegmentOptions();
  uint32_t expected_base = engine->base_doc_count_;
  for (const index::SegmentManifestEntry& entry : manifest.segments) {
    if (entry.doc_base != expected_base) {
      return Status::Corruption(
          "segment '" + entry.index.file + "' starts at document " +
          std::to_string(entry.doc_base) + ", expected " +
          std::to_string(expected_base));
    }
    XRANK_ASSIGN_OR_RETURN(
        std::shared_ptr<index::LiveSegment> segment,
        index::OpenLiveSegment(options.disk_dir, entry, segment_options,
                               options.verify_on_open));
    expected_base += segment->doc_count();
    state->segments.push_back(std::move(segment));
  }

  // WAL replay: re-apply every acknowledged add/delete a crash interrupted.
  XRANK_RETURN_NOT_OK(engine->ReplayWalLocked(state.get()));
  XRANK_RETURN_NOT_OK(engine->OpenWalLocked());
  engine->Publish(std::move(state));
  return engine;
}

Status XRankEngine::OpenWalLocked() {
  if (options_.disk_dir.empty() || wal_ != nullptr) return Status::OK();
  XRANK_ASSIGN_OR_RETURN(
      wal_, storage::LogWriter::Open(
                options_.disk_dir + "/" + storage::kWalFileName,
                /*truncate=*/false));
  return Status::OK();
}

Status XRankEngine::ReplayWalLocked(LiveState* state) {
  const UpdateMetrics& metrics = UpdateMetrics::Get();
  const std::string path = options_.disk_dir + "/" + storage::kWalFileName;
  XRANK_ASSIGN_OR_RETURN(storage::LogReadResult read,
                         storage::ReadLogFile(path, /*allow_torn_tail=*/true));
  if (read.torn_tail) {
    // The only legal tear: a crash mid-append. Everything before it is
    // intact; cut the file back to the last record boundary.
    XRANK_RETURN_NOT_OK(storage::TruncateLogFile(path, read.valid_bytes));
    wal_dropped_bytes_.fetch_add(read.dropped_bytes,
                                 std::memory_order_relaxed);
    metrics.wal_dropped_bytes->Increment(read.dropped_bytes);
  }
  if (read.records.empty()) return Status::OK();
  wal_replayed_records_.fetch_add(read.records.size(),
                                  std::memory_order_relaxed);
  metrics.wal_replayed->Increment(read.records.size());

  std::vector<std::pair<uint64_t, uint64_t>> covered;
  for (const auto& segment : state->segments) {
    covered.emplace_back(segment->first_seq, segment->last_seq);
  }

  auto tombstones = std::make_shared<std::set<uint32_t>>(*state->tombstones);
  std::vector<storage::LogRecord> pending;  // adds not yet in any segment
  std::vector<size_t> pending_deletes;      // indexes into `pending`
  uint64_t max_seq = 0;
  for (const storage::LogRecord& record : read.records) {
    max_seq = std::max(max_seq, record.seq);
    if (record.type == storage::LogRecord::Type::kAddDocument) {
      // A committed segment already covers this add (the crash hit between
      // segment commit and WAL rewrite); replay is idempotent.
      if (!SeqCovered(record.seq, covered)) pending.push_back(record);
      continue;
    }
    bool is_base = false;
    uint64_t value = 0;
    if (!ParseDeleteHandle(record.body, &is_base, &value)) {
      return Status::Corruption("WAL delete record (seq " +
                                std::to_string(record.seq) +
                                ") carries an unparseable handle");
    }
    if (is_base) {
      // Base delete handles carry the stable IDENTITY doc id; the tombstone
      // set filters on PHYSICAL ids (the first Dewey component of results).
      if (value < base_doc_count_) {
        tombstones->insert(
            doc_perm_.ToPhysical(static_cast<uint32_t>(value)));
      }
      continue;
    }
    // Live-added document, by AddDocument seq: in a committed segment, in
    // the still-pending adds, or already compacted away (clean no-op).
    bool resolved = false;
    for (const auto& segment : state->segments) {
      for (uint32_t i = 0; i < segment->doc_count(); ++i) {
        if (segment->sources[i].seq == value) {
          tombstones->insert(segment->doc_base + i);
          resolved = true;
          break;
        }
      }
      if (resolved) break;
    }
    if (resolved) continue;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].seq == value) {
        pending_deletes.push_back(i);
        break;
      }
    }
  }
  next_seq_ = max_seq + 1;
  wal_records_ = std::move(read.records);

  if (!pending.empty()) {
    uint32_t delta_base = base_doc_count_;
    for (const auto& segment : state->segments) {
      delta_base += segment->doc_count();
    }
    for (size_t index : pending_deletes) {
      tombstones->insert(delta_base + static_cast<uint32_t>(index));
    }
    XRANK_ASSIGN_OR_RETURN(
        std::shared_ptr<index::LiveSegment> delta,
        index::BuildLiveSegment(std::move(pending), delta_base,
                                SegmentOptions(),
                                storage::PageFile::CreateInMemory()));
    state->delta = std::move(delta);
  }
  state->tombstones = std::move(tombstones);
  return Status::OK();
}

Status XRankEngine::AppendWalLocked(const storage::LogRecord& record) {
  if (options_.disk_dir.empty()) return Status::OK();
  XRANK_RETURN_NOT_OK(OpenWalLocked());
  const uint64_t durable_bytes = wal_->file_bytes();
  Status appended = wal_->Append(record);
  if (appended.ok()) appended = wal_->Sync();
  if (!appended.ok()) {
    // The record is not acknowledged, so it must not survive: a failed
    // append may have left a torn frame (and a failed fsync an undurable
    // one) — cut the file back to the last acknowledged boundary so later
    // appends and recovery read a clean log.
    const std::string path = wal_->path();
    wal_.reset();
    (void)storage::TruncateLogFile(path, durable_bytes);
    return appended;
  }
  wal_records_.push_back(record);
  wal_appends_.fetch_add(1, std::memory_order_relaxed);
  UpdateMetrics::Get().wal_appends->Increment();
  return Status::OK();
}

Status XRankEngine::RewriteWalLocked(
    const std::vector<std::pair<uint64_t, uint64_t>>& covered) {
  if (options_.disk_dir.empty()) return Status::OK();
  const std::string path = options_.disk_dir + "/" + storage::kWalFileName;
  const std::string tmp_path = path + ".tmp";
  // Delete records always stay: their handles resolve precisely (or no-op),
  // so replaying them is always safe, and keeping them preserves tombstones
  // on base documents across every restart.
  std::vector<storage::LogRecord> keep;
  for (const storage::LogRecord& record : wal_records_) {
    if (record.type == storage::LogRecord::Type::kAddDocument &&
        SeqCovered(record.seq, covered)) {
      continue;
    }
    keep.push_back(record);
  }
  wal_.reset();  // release the live file before replacing it
  {
    XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::LogWriter> writer,
                           storage::LogWriter::Open(tmp_path,
                                                    /*truncate=*/true));
    for (const storage::LogRecord& record : keep) {
      XRANK_RETURN_NOT_OK(writer->Append(record));
    }
    XRANK_RETURN_NOT_OK(writer->Sync());
  }
  // Crash window: the tmp file exists but the WAL is the old one — replay
  // skips the covered records via the manifest seq ranges, so both sides of
  // the rename recover to the same state.
  if (auto hit = fail::FailPoints::Instance().Evaluate("wal.rewrite_rename")) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError("injected crash before WAL rewrite rename");
  }
  XRANK_RETURN_NOT_OK(index::RenameFile(tmp_path, path));
  XRANK_RETURN_NOT_OK(index::SyncDirectory(options_.disk_dir));
  wal_records_ = std::move(keep);
  return OpenWalLocked();
}

Status XRankEngine::AddDocument(std::string_view uri,
                                std::string_view xml_text) {
  // Parse outside the lock: a malformed document must not reach the WAL.
  XRANK_ASSIGN_OR_RETURN(
      xml::Document parsed,
      xml::ParseDocument(xml_text, std::string(uri)));
  (void)parsed;

  const UpdateMetrics& metrics = UpdateMetrics::Get();
  std::unique_lock<std::mutex> lock(update_mutex_);
  if (options_.background_maintenance && !maintenance_thread_.joinable()) {
    maintenance_thread_ = std::thread(&XRankEngine::MaintenanceLoop, this);
  }

  // Backpressure: a full delta slows producers down instead of failing
  // them — wait for the background flush to drain it.
  auto delta_count = [this] {
    auto state = Snapshot();
    return state->delta != nullptr ? state->delta->doc_count() : 0u;
  };
  bool waited = false;
  WallTimer wait_timer;
  while (delta_count() >= options_.max_delta_documents) {
    if (!options_.background_maintenance) {
      XRANK_RETURN_NOT_OK(FlushLocked());
      continue;
    }
    if (!waited) {
      waited = true;
      wait_timer.Reset();
      backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
      metrics.backpressure_waits->Increment();
    }
    RequestMaintenance();
    backpressure_cv_.wait(lock, [&] {
      if (delta_count() < options_.max_delta_documents) return true;
      std::lock_guard<std::mutex> ml(maintenance_mutex_);
      return !maintenance_status_.ok();
    });
    if (delta_count() >= options_.max_delta_documents) {
      std::lock_guard<std::mutex> ml(maintenance_mutex_);
      if (!maintenance_status_.ok()) return maintenance_status_;
    }
  }
  if (waited) {
    uint64_t waited_us =
        static_cast<uint64_t>(wait_timer.ElapsedSeconds() * 1e6);
    backpressure_us_total_.fetch_add(waited_us, std::memory_order_relaxed);
    metrics.backpressure_us->Observe(waited_us);
  }

  auto state = Snapshot();
  if (ResolveLiveUri(*state, uri).has_value()) {
    return Status::InvalidArgument("document with uri '" + std::string(uri) +
                                   "' already exists");
  }

  storage::LogRecord record;
  record.type = storage::LogRecord::Type::kAddDocument;
  record.seq = next_seq_;
  record.uri = std::string(uri);
  record.body = std::string(xml_text);
  // Durability before visibility: the fsynced WAL record is the commit
  // point of the add.
  XRANK_RETURN_NOT_OK(AppendWalLocked(record));
  ++next_seq_;

  std::vector<storage::LogRecord> sources;
  uint32_t delta_base;
  if (state->delta != nullptr) {
    sources = state->delta->sources;
    delta_base = state->delta->doc_base;
  } else {
    delta_base = base_doc_count_;
    for (const auto& segment : state->segments) {
      delta_base += segment->doc_count();
    }
  }
  sources.push_back(std::move(record));
  XRANK_ASSIGN_OR_RETURN(
      std::shared_ptr<index::LiveSegment> delta,
      index::BuildLiveSegment(std::move(sources), delta_base,
                              SegmentOptions(),
                              storage::PageFile::CreateInMemory()));
  std::shared_ptr<const index::LiveSegment> retired = state->delta;
  auto next = std::make_shared<LiveState>(*state);
  next->delta = std::move(delta);
  next->content_seq = state->content_seq + 1;
  bool request_flush =
      next->delta->doc_count() >= options_.flush_delta_documents;
  Publish(std::move(next));
  if (retired != nullptr && block_cache_ != nullptr) {
    block_cache_->EraseFile(retired->built.file->file_id());
  }
  metrics.add_documents->Increment();
  if (request_flush) {
    if (options_.background_maintenance) {
      RequestMaintenance();
    } else {
      XRANK_RETURN_NOT_OK(FlushLocked());
    }
  }
  return Status::OK();
}

std::optional<std::pair<uint32_t, std::string>> XRankEngine::ResolveLiveUri(
    const LiveState& state, std::string_view uri) const {
  const std::set<uint32_t>& tombstones = *state.tombstones;
  auto live = [&](uint32_t global) { return tombstones.count(global) == 0; };
  if (state.delta != nullptr) {
    if (std::optional<uint32_t> local = state.delta->FindUri(uri)) {
      uint32_t global = state.delta->doc_base + *local;
      if (live(global)) {
        return std::make_pair(
            global, SeqDeleteHandle(state.delta->sources[*local].seq));
      }
    }
  }
  for (auto it = state.segments.rbegin(); it != state.segments.rend(); ++it) {
    if (std::optional<uint32_t> local = (*it)->FindUri(uri)) {
      uint32_t global = (*it)->doc_base + *local;
      if (live(global)) {
        return std::make_pair(global,
                              SeqDeleteHandle((*it)->sources[*local].seq));
      }
    }
  }
  // Base documents: the graph is in identity order; tombstones and the
  // returned global id are in the physical (reordered) space, while the
  // durable delete handle keeps the stable identity id.
  for (uint32_t doc = 0; doc < base_doc_count_; ++doc) {
    uint32_t physical = doc_perm_.ToPhysical(doc);
    if (graph_.documents()[doc].uri == uri && live(physical)) {
      return std::make_pair(physical, BaseDeleteHandle(doc));
    }
  }
  return std::nullopt;
}

Status XRankEngine::DeleteDocument(std::string_view uri) {
  std::unique_lock<std::mutex> lock(update_mutex_);
  auto state = Snapshot();
  std::optional<std::pair<uint32_t, std::string>> resolved =
      ResolveLiveUri(*state, uri);
  if (!resolved.has_value()) {
    return Status::NotFound("no document with uri '" + std::string(uri) +
                            "'");
  }
  storage::LogRecord record;
  record.type = storage::LogRecord::Type::kDeleteDocument;
  record.seq = next_seq_;
  record.uri = std::string(uri);
  record.body = resolved->second;
  XRANK_RETURN_NOT_OK(AppendWalLocked(record));
  ++next_seq_;

  auto tombstones = std::make_shared<std::set<uint32_t>>(*state->tombstones);
  tombstones->insert(resolved->first);
  auto next = std::make_shared<LiveState>(*state);
  next->tombstones = std::move(tombstones);
  // The content version advances, so cached responses that may contain the
  // tombstoned document stop being looked up — no cache sweep needed.
  next->content_seq = state->content_seq + 1;
  Publish(std::move(next));
  UpdateMetrics::Get().delete_documents->Increment();
  return Status::OK();
}

Status XRankEngine::Flush() {
  std::unique_lock<std::mutex> lock(update_mutex_);
  return FlushLocked();
}

Status XRankEngine::FlushLocked() {
  auto state = Snapshot();
  if (state->delta == nullptr) return Status::OK();
  const UpdateMetrics& metrics = UpdateMetrics::Get();
  auto& failpoints = fail::FailPoints::Instance();
  std::shared_ptr<const index::LiveSegment> flushed;
  Status wal_status;

  if (options_.disk_dir.empty()) {
    // In-memory engines: the delta already is a self-contained segment.
    flushed = state->delta;
  } else {
    // Rebuild the delta's index into an on-disk page file (same sources,
    // same per-document ranks — bitwise the same postings). Crash window
    // before the rename: temp files only — reopen replays the WAL.
    index::SegmentManifestEntry entry;
    XRANK_ASSIGN_OR_RETURN(
        std::shared_ptr<index::LiveSegment> segment,
        WriteSegmentLocked(state->delta->sources, state->delta->doc_base,
                           "segment_flush", &entry));

    // Crash window: files renamed but no MANIFEST — reopen ignores the
    // stray files, replays the WAL, and the next flush re-renames over
    // them (same name, same content).
    if (auto hit = failpoints.Evaluate("segment_flush.before_manifest")) {
      fail::DieIfCrashRequested(hit);
      return Status::IOError(
          "injected crash before segment MANIFEST commit: segment files "
          "renamed but not committed");
    }
    index::Manifest next_manifest = manifest_;
    next_manifest.segments.push_back(std::move(entry));
    XRANK_RETURN_NOT_OK(
        index::WriteManifestFile(options_.disk_dir, next_manifest));
    manifest_ = std::move(next_manifest);

    // Crash window: segment committed, WAL still holds the covered adds —
    // replay skips them via the manifest seq range (idempotent). A plain
    // rewrite failure is reported, but the flush itself has committed.
    wal_status =
        RewriteWalLocked({{segment->first_seq, segment->last_seq}});
    flushed = std::move(segment);
  }

  std::shared_ptr<const index::LiveSegment> retired = state->delta;
  auto next = std::make_shared<LiveState>(*state);
  next->segments.push_back(flushed);
  next->delta = nullptr;
  // content_seq unchanged: a flush regroups identical content, so every
  // cached response stays valid (and warm).
  Publish(std::move(next));
  if (retired != flushed && block_cache_ != nullptr) {
    block_cache_->EraseFile(retired->built.file->file_id());
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  metrics.flushes->Increment();
  backpressure_cv_.notify_all();
  return wal_status;
}

Result<std::shared_ptr<index::LiveSegment>> XRankEngine::WriteSegmentLocked(
    std::vector<storage::LogRecord> sources, uint32_t doc_base,
    std::string_view failpoint_scope, index::SegmentManifestEntry* entry) {
  const std::string& dir = options_.disk_dir;
  const std::string name =
      SegmentBaseName(sources.front().seq, sources.back().seq);
  const std::string index_tmp = dir + "/" + name + ".xrank.tmp";
  const std::string docs_tmp = dir + "/" + name + ".docs.tmp";
  XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageFile> file,
                         storage::PageFile::CreateOnDisk(index_tmp));
  XRANK_ASSIGN_OR_RETURN(
      std::shared_ptr<index::LiveSegment> segment,
      index::BuildLiveSegment(std::move(sources), doc_base, SegmentOptions(),
                              std::move(file)));
  {
    XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::LogWriter> docs,
                           storage::LogWriter::Open(docs_tmp,
                                                    /*truncate=*/true));
    for (const storage::LogRecord& record : segment->sources) {
      XRANK_RETURN_NOT_OK(docs->Append(record));
    }
    XRANK_RETURN_NOT_OK(docs->Sync());
  }
  XRANK_RETURN_NOT_OK(segment->built.file->Sync());
  const std::string failpoint = std::string(failpoint_scope) + ".before_rename";
  if (auto hit = fail::FailPoints::Instance().Evaluate(failpoint)) {
    fail::DieIfCrashRequested(hit);
    return Status::IOError("injected crash at " + failpoint +
                           ": segment temp files written, nothing renamed");
  }
  entry->index.file = name + ".xrank";
  entry->docs_file = name + ".docs";
  XRANK_RETURN_NOT_OK(
      index::RenameFile(index_tmp, dir + "/" + entry->index.file));
  XRANK_RETURN_NOT_OK(
      index::RenameFile(docs_tmp, dir + "/" + entry->docs_file));

  entry->index.kind = index::IndexKind::kDil;
  entry->index.page_count = segment->built.file->page_count();
  entry->index.format = segment->built.lexicon.format_spec();
  XRANK_ASSIGN_OR_RETURN(entry->index.crc,
                         index::ChecksumPageFile(*segment->built.file));
  XRANK_ASSIGN_OR_RETURN(auto docs_sum,
                         storage::ChecksumFile(dir + "/" + entry->docs_file));
  entry->docs_bytes = docs_sum.first;
  entry->docs_crc = docs_sum.second;
  entry->doc_base = segment->doc_base;
  entry->doc_count = segment->doc_count();
  entry->first_seq = segment->first_seq;
  entry->last_seq = segment->last_seq;
  return segment;
}

Status XRankEngine::CompactSegments() {
  std::unique_lock<std::mutex> lock(update_mutex_);
  return CompactSegmentsLocked();
}

Status XRankEngine::CompactSegmentsLocked() {
  auto state = Snapshot();
  if (state->segments.empty()) return Status::OK();
  const UpdateMetrics& metrics = UpdateMetrics::Get();
  auto& failpoints = fail::FailPoints::Instance();
  const std::set<uint32_t>& tombstones = *state->tombstones;

  std::vector<storage::LogRecord> merged;
  std::vector<std::pair<uint64_t, uint64_t>> old_spans;
  uint64_t dropped = 0;
  for (const auto& segment : state->segments) {
    old_spans.emplace_back(segment->first_seq, segment->last_seq);
    for (uint32_t i = 0; i < segment->doc_count(); ++i) {
      if (tombstones.count(segment->doc_base + i) > 0) {
        ++dropped;
        continue;
      }
      merged.push_back(segment->sources[i]);
    }
  }
  if (state->segments.size() < 2 && dropped == 0) return Status::OK();

  const uint32_t doc_base = base_doc_count_;
  std::shared_ptr<const index::LiveSegment> compacted;
  index::SegmentManifestEntry entry;

  if (!merged.empty() && options_.disk_dir.empty()) {
    XRANK_ASSIGN_OR_RETURN(
        compacted,
        index::BuildLiveSegment(std::move(merged), doc_base, SegmentOptions(),
                                storage::PageFile::CreateInMemory()));
  } else if (!merged.empty()) {
    // Crash window before the rename: temp files only; the committed
    // segments still serve. The merged name can collide with a retired
    // segment's (compacting a single segment in place); the rename
    // replaces it atomically and the already-open old page file stays
    // readable until the swap.
    XRANK_ASSIGN_OR_RETURN(compacted,
                           WriteSegmentLocked(std::move(merged), doc_base,
                                              "segment_compact", &entry));
  }

  Status wal_status;
  if (!options_.disk_dir.empty()) {
    // Crash window: merged files renamed, MANIFEST still lists the old
    // segments — reopen serves the old ones (their files are untouched
    // unless the merged name replaced one 1:1, in which case the content
    // is identical by construction).
    if (auto hit = failpoints.Evaluate("segment_compact.before_manifest")) {
      fail::DieIfCrashRequested(hit);
      return Status::IOError(
          "injected crash before compaction MANIFEST commit: merged files "
          "renamed but old segments still committed");
    }
    index::Manifest next_manifest = manifest_;
    std::vector<index::SegmentManifestEntry> retired_entries =
        std::move(next_manifest.segments);
    next_manifest.segments.clear();
    if (compacted != nullptr) next_manifest.segments.push_back(entry);
    XRANK_RETURN_NOT_OK(
        index::WriteManifestFile(options_.disk_dir, next_manifest));
    manifest_ = std::move(next_manifest);
    // Retired segment files: best-effort unlink after the commit point.
    for (const index::SegmentManifestEntry& old_entry : retired_entries) {
      if (old_entry.index.file != entry.index.file) {
        std::remove(
            (options_.disk_dir + "/" + old_entry.index.file).c_str());
      }
      if (old_entry.docs_file != entry.docs_file) {
        std::remove((options_.disk_dir + "/" + old_entry.docs_file).c_str());
      }
    }
    // Adds covered by the retired spans live in the merged segment (or
    // were deliberately dropped); they must not replay.
    wal_status = RewriteWalLocked(old_spans);
  }

  // Remap tombstones: base ids are untouched; segment-range tombstones
  // died with their documents; delta-range ids shift down by the number of
  // dropped documents.
  uint32_t old_delta_base = base_doc_count_;
  for (const auto& segment : state->segments) {
    old_delta_base += segment->doc_count();
  }
  const uint32_t new_delta_base =
      doc_base + (compacted != nullptr ? compacted->doc_count() : 0);
  auto remapped = std::make_shared<std::set<uint32_t>>();
  for (uint32_t t : tombstones) {
    if (t < base_doc_count_) {
      remapped->insert(t);
    } else if (t >= old_delta_base) {
      remapped->insert(t - old_delta_base + new_delta_base);
    }
  }

  // The delta's documents renumber when documents were dropped below them;
  // rebuild it (it is small) at its new doc_base.
  std::shared_ptr<const index::LiveSegment> delta = state->delta;
  std::shared_ptr<const index::LiveSegment> retired_delta;
  if (delta != nullptr && new_delta_base != old_delta_base) {
    retired_delta = delta;
    XRANK_ASSIGN_OR_RETURN(
        std::shared_ptr<index::LiveSegment> rebuilt,
        index::BuildLiveSegment(delta->sources, new_delta_base,
                                SegmentOptions(),
                                storage::PageFile::CreateInMemory()));
    delta = std::move(rebuilt);
  }

  auto next = std::make_shared<LiveState>(*state);
  next->segments.clear();
  if (compacted != nullptr) next->segments.push_back(compacted);
  next->delta = std::move(delta);
  next->tombstones = std::move(remapped);
  // Dropping documents renumbers global ids in query results; cached
  // responses would hand out the old numbering.
  if (dropped > 0) next->content_seq = state->content_seq + 1;
  Publish(std::move(next));

  if (block_cache_ != nullptr) {
    for (const auto& segment : state->segments) {
      if (segment != compacted) {
        block_cache_->EraseFile(segment->built.file->file_id());
      }
    }
    if (retired_delta != nullptr) {
      block_cache_->EraseFile(retired_delta->built.file->file_id());
    }
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  metrics.compactions->Increment();
  return wal_status;
}

Status XRankEngine::CompactDeletions() {
  std::unique_lock<std::mutex> lock(update_mutex_);
  return CompactDeletionsLocked();
}

Status XRankEngine::CompactDeletionsLocked() {
  auto state = Snapshot();
  // Tombstones are physical ids; extraction walks the identity-ordered
  // graph, so its exclusion list maps back through the permutation.
  std::vector<uint32_t> excluded;
  for (uint32_t t : *state->tombstones) {
    if (t < base_doc_count_) excluded.push_back(doc_perm_.ToIdentity(t));
  }
  if (excluded.empty()) return Status::OK();
  auto& failpoints = fail::FailPoints::Instance();

  index::ExtractionOptions extraction = options_.extraction;
  extraction.exclude_documents = std::move(excluded);
  XRANK_ASSIGN_OR_RETURN(
      index::ExtractionResult extracted,
      index::ExtractPostings(graph_, elem_ranks_, extraction));
  // Reapply the ORIGINAL build-time permutation (computed over the full
  // corpus, so a later Open re-derives it identically): surviving documents
  // keep their physical ids, excluded ones simply contribute no postings.
  index::ApplyDocPermutation(doc_perm_, &extracted);

  // Rebuild off to the side; the serving snapshot is untouched until the
  // publish below, so a crash or failure here loses nothing.
  auto base = std::make_shared<BaseState>();
  for (const auto& [kind, instance] : state->base->indexes) {
    // Crash window (one evaluation per index kind): a kill between per-kind
    // rebuilds leaves temp files only — the committed index still serves.
    if (auto hit = failpoints.Evaluate("compact.rebuild")) {
      fail::DieIfCrashRequested(hit);
      return Status::IOError(
          "injected failure between compaction index rebuilds");
    }
    XRANK_ASSIGN_OR_RETURN(IndexInstance fresh, BuildInstance(kind, extracted));
    base->indexes.emplace(kind, std::move(fresh));
  }
  // Re-commit so the on-disk MANIFEST matches the compacted files (segment
  // entries ride along unchanged). A crash before the new MANIFEST rename
  // leaves a checksum mismatch that Open reports instead of serving torn
  // state.
  XRANK_RETURN_NOT_OK(CommitBaseLocked(base->indexes));

  auto next = std::make_shared<LiveState>(*state);
  next->base = base;
  // Results are unchanged (the tombstone filter already hid the deleted
  // documents), so cached responses stay valid — content_seq is untouched
  // and the tombstone set intentionally survives: it keeps filtering,
  // harmlessly, now that the postings are gone.
  Publish(std::move(next));
  if (block_cache_ != nullptr) {
    for (const auto& [kind, instance] : state->base->indexes) {
      block_cache_->EraseFile(instance.built.file->file_id());
    }
  }
  return Status::OK();
}

void XRankEngine::RequestMaintenance() {
  std::lock_guard<std::mutex> lock(maintenance_mutex_);
  maintenance_requested_ = true;
  maintenance_cv_.notify_one();
}

Status XRankEngine::MaintainOnce() {
  std::unique_lock<std::mutex> lock(update_mutex_);
  auto state = Snapshot();
  if (state->delta != nullptr &&
      state->delta->doc_count() >= options_.flush_delta_documents) {
    XRANK_RETURN_NOT_OK(FlushLocked());
    state = Snapshot();
  }
  if (options_.compact_segment_count > 0 &&
      state->segments.size() >= options_.compact_segment_count) {
    XRANK_RETURN_NOT_OK(CompactSegmentsLocked());
  }
  return Status::OK();
}

void XRankEngine::MaintenanceLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(maintenance_mutex_);
      maintenance_cv_.wait(lock, [this] {
        return maintenance_stop_ || maintenance_requested_;
      });
      if (maintenance_stop_) return;
      maintenance_requested_ = false;
      maintenance_active_ = true;
    }
    Status status = MaintainOnce();
    {
      std::lock_guard<std::mutex> lock(maintenance_mutex_);
      maintenance_active_ = false;
      // Sticky: a failure stays visible (to WaitForMaintenance and blocked
      // producers) until a later pass succeeds.
      maintenance_status_ = std::move(status);
      maintenance_idle_cv_.notify_all();
    }
    backpressure_cv_.notify_all();
  }
}

Status XRankEngine::WaitForMaintenance() {
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  maintenance_idle_cv_.wait(lock, [this] {
    return !maintenance_requested_ && !maintenance_active_;
  });
  return maintenance_status_;
}

void XRankEngine::StopMaintenanceThread() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    maintenance_stop_ = true;
    maintenance_cv_.notify_all();
  }
  if (maintenance_thread_.joinable()) maintenance_thread_.join();
}

Result<XRankEngine::IndexInstance> XRankEngine::BuildInstance(
    index::IndexKind kind, const index::ExtractionResult& extracted) {
  XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageFile> file,
                         MakePageFile(options_, kind));
  IndexInstance instance;
  if (kind == index::IndexKind::kHdil) {
    XRANK_ASSIGN_OR_RETURN(
        instance.built,
        index::BuildHdilIndex(extracted.dewey_postings, std::move(file),
                              options_.hdil, options_.build));
  } else {
    XRANK_ASSIGN_OR_RETURN(
        instance.built, index::BuildDilIndex(extracted.dewey_postings,
                                             std::move(file), options_.build));
  }
  instance.cost_model = std::make_unique<storage::CostModel>(options_.cost);
  instance.pool = std::make_unique<storage::BufferPool>(
      instance.built.file.get(), options_.buffer_pool_pages,
      instance.cost_model.get(), options_.buffer_pool_shards);
  return instance;
}

void XRankEngine::DropCaches() {
  auto state = Snapshot();
  for (const auto& [kind, instance] : state->base->indexes) {
    instance.pool->DropCache();
    instance.cost_model->ResetStreams();
  }
  for (const auto& segment : state->segments) {
    segment->pool->DropCache();
    segment->cost_model->ResetStreams();
  }
  if (state->delta != nullptr) {
    state->delta->pool->DropCache();
    state->delta->cost_model->ResetStreams();
  }
  if (result_cache_ != nullptr) result_cache_->Clear();
  if (block_cache_ != nullptr) block_cache_->Clear();
}

size_t XRankEngine::deleted_document_count() const {
  return Snapshot()->tombstones->size();
}

XRankEngine::UpdateCounters XRankEngine::update_counters() const {
  auto state = Snapshot();
  UpdateCounters counters;
  counters.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  counters.wal_replayed_records =
      wal_replayed_records_.load(std::memory_order_relaxed);
  counters.wal_dropped_bytes =
      wal_dropped_bytes_.load(std::memory_order_relaxed);
  counters.flushes = flushes_.load(std::memory_order_relaxed);
  counters.compactions = compactions_.load(std::memory_order_relaxed);
  counters.backpressure_waits =
      backpressure_waits_.load(std::memory_order_relaxed);
  counters.backpressure_us_total =
      backpressure_us_total_.load(std::memory_order_relaxed);
  counters.segment_count = state->segments.size();
  counters.delta_documents =
      state->delta != nullptr ? state->delta->doc_count() : 0;
  counters.added_documents = counters.delta_documents;
  for (const auto& segment : state->segments) {
    counters.added_documents += segment->doc_count();
  }
  counters.content_seq = state->content_seq;
  counters.epoch = state->epoch;
  return counters;
}

bool XRankEngine::has_index(index::IndexKind kind) const {
  auto state = Snapshot();
  return state->base->indexes.find(kind) != state->base->indexes.end();
}

const index::IndexStats& XRankEngine::index_stats(
    index::IndexKind kind) const {
  static const index::IndexStats kEmpty;
  auto state = Snapshot();
  auto it = state->base->indexes.find(kind);
  if (it == state->base->indexes.end()) return kEmpty;
  return it->second.built.stats;
}

Result<double> XRankEngine::ElemRankOf(const dewey::DeweyId& id) const {
  auto state = Snapshot();
  if (!id.empty() && id.document_id() >= base_doc_count_) {
    const index::LiveSegment* segment = state->SegmentForDoc(id.document_id());
    if (segment == nullptr) {
      return Status::NotFound("no live document " +
                              std::to_string(id.document_id()));
    }
    XRANK_ASSIGN_OR_RETURN(
        graph::NodeId node,
        segment->graph.FindByDewey(RebaseDown(id, segment->doc_base)));
    return segment->elem_ranks[node];
  }
  // Base ids arrive in the physical (query-result) space; the graph is in
  // identity order.
  dewey::DeweyId identity = id;
  if (!doc_perm_.empty() && !id.empty()) {
    identity = WithDocComponent(id, doc_perm_.ToIdentity(id.component(0)));
  }
  XRANK_ASSIGN_OR_RETURN(graph::NodeId node, graph_.FindByDewey(identity));
  return elem_ranks_[node];
}

Result<dewey::DeweyId> XRankEngine::MapToAnswerNode(
    const graph::XmlGraph& graph, const dewey::DeweyId& id) const {
  if (options_.answer_node_tags.empty()) return id;
  dewey::DeweyId current = id;
  while (!current.empty()) {
    XRANK_ASSIGN_OR_RETURN(graph::NodeId node, graph.FindByDewey(current));
    std::string_view tag = graph.name(node);
    for (const std::string& answer_tag : options_.answer_node_tags) {
      if (tag == answer_tag) return current;
    }
    current = current.Parent();
  }
  return Status::NotFound("no answer node above " + id.ToString());
}

Result<EngineResponse> XRankEngine::Decorate(const LiveState& state,
                                             std::vector<RawHit> hits,
                                             query::QueryStats stats,
                                             size_t m) {
  EngineResponse out;
  out.stats = std::move(stats);
  const std::set<uint32_t>& tombstones = *state.tombstones;
  // Answer-node mapping can send several raw results to one ancestor; keep
  // the best-ranked representative.
  std::set<dewey::DeweyId> emitted;
  for (RawHit& raw : hits) {
    if (out.results.size() >= m) break;
    // Tombstoned documents: the first Dewey component is the document id
    // (Section 4.5), so deleted documents filter in O(1).
    if (!tombstones.empty() &&
        tombstones.count(raw.global_id.document_id()) > 0) {
      continue;
    }
    const graph::XmlGraph& graph =
        raw.segment != nullptr ? raw.segment->graph : graph_;
    const uint32_t doc_base =
        raw.segment != nullptr ? raw.segment->doc_base : 0;
    Result<dewey::DeweyId> mapped = MapToAnswerNode(graph, raw.local_id);
    if (!mapped.ok()) continue;  // no answer node covers this result
    dewey::DeweyId local = std::move(mapped).value();
    dewey::DeweyId global = RebaseUp(local, doc_base);
    // Base-hit local ids are graph-facing (identity order); emitted ids are
    // physical, matching the reordered indexes.
    if (raw.segment == nullptr && !doc_perm_.empty() && !local.empty()) {
      global = WithDocComponent(local, doc_perm_.ToPhysical(local.component(0)));
    }
    if (!emitted.insert(global).second) continue;  // ancestor already emitted

    XRANK_ASSIGN_OR_RETURN(graph::NodeId node, graph.FindByDewey(local));
    EngineResult result;
    result.id = std::move(global);
    result.rank = raw.rank;
    result.element_tag = std::string(graph.name(node));
    result.document_uri = graph.documents()[graph.node(node).document].uri;
    // The walk stops after 121 bytes: enough to tell whether the snippet
    // needs truncating.
    std::string text = graph.DeepText(node, 121);
    if (text.size() > 120) {
      text.resize(117);
      text += "...";
    }
    result.snippet = std::move(text);
    out.results.push_back(std::move(result));
  }
  return out;
}

Result<EngineResponse> XRankEngine::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m,
    index::IndexKind kind) {
  return QueryKeywordsSnapshot(Snapshot(), keywords, m, kind, options_.query);
}

Result<EngineResponse> XRankEngine::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options) {
  return QueryKeywordsSnapshot(Snapshot(), keywords, m, kind, query_options);
}

Result<EngineResponse> XRankEngine::QueryKeywordsSnapshot(
    const std::shared_ptr<const LiveState>& state,
    const std::vector<std::string>& keywords, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options) {
  WallTimer wall;
  auto it = state->base->indexes.find(kind);
  if (it == state->base->indexes.end()) {
    return Status::InvalidArgument(
        std::string(index::IndexKindName(kind)) + " index was not built");
  }
  const IndexInstance& instance = it->second;

  std::vector<std::string> normalized;
  normalized.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    std::string term = analyzer_.NormalizeKeyword(keyword);
    if (term.empty()) {
      return Status::InvalidArgument("keyword '" + keyword +
                                     "' normalizes to nothing");
    }
    normalized.push_back(std::move(term));
  }

  // With the slow-query log armed and no caller-supplied trace, trace the
  // query internally so the log always has a per-stage breakdown.
  query::QueryTrace* trace = query_options.trace;
  std::unique_ptr<query::QueryTrace> local_trace;
  if (trace == nullptr && options_.slow_query_ms != 0) {
    local_trace = std::make_unique<query::QueryTrace>();
    trace = local_trace.get();
  }
  if (trace != nullptr) {
    std::string text;
    for (const std::string& term : normalized) {
      if (!text.empty()) text += ' ';
      text += term;
    }
    trace->set_query_text(std::move(text));
    trace->set_index_kind(std::string(index::IndexKindName(kind)));
  }
  query::QueryOptions exec_options = query_options;
  exec_options.trace = trace;
  const EngineMetrics& metrics = EngineMetrics::Get();

  // Fast path: a repeated (terms, m, kind) query is answered from the
  // result cache without touching the index. Keys embed the snapshot's
  // content version, so anything found here is current by construction.
  // A fleet query (shared θ attached) bypasses the cache both ways: its
  // response may be truncated below the fleet threshold, and a cached
  // standalone response would defeat the θ forwarding it exists for.
  const bool use_result_cache =
      result_cache_ != nullptr && query_options.shared_threshold == nullptr;
  std::string cache_key;
  if (use_result_cache) {
    query::ScopedSpan cache_span(trace, "cache");
    cache_key = ResultCache::MakeKey(normalized, m, kind, state->content_seq);
    EngineResponse cached;
    if (result_cache_->Lookup(cache_key, &cached)) {
      // A hit does no index work; the miss's execution stats would be
      // misleading here.
      cached.stats = query::QueryStats{};
      cached.stats.result_cache_hit = true;
      cache_span.End();
      cached.stats.wall_ms = wall.ElapsedSeconds() * 1e3;
      RecordQueryMetrics(cached.stats);
      if (trace != nullptr) RecordStageMetrics(*trace);
      return cached;
    }
  }

  // All queries share the instance's sharded pool. Cold-cache mode (the
  // paper's experimental setup) evicts it at each query start — under
  // serial queries this reproduces the private-pool-per-query statistics
  // exactly, without the per-query allocation.
  storage::BufferPool* pool = instance.pool.get();
  if (options_.cold_cache_per_query) {
    pool->DropCache();
    instance.cost_model->ResetStreams();
    for (const auto& segment : state->segments) {
      segment->pool->DropCache();
      segment->cost_model->ResetStreams();
    }
    if (state->delta != nullptr) {
      state->delta->pool->DropCache();
      state->delta->cost_model->ResetStreams();
    }
    // Pre-decoded pages would defeat the cold-cache measurement the same
    // way warm pool pages would.
    if (block_cache_ != nullptr) block_cache_->Clear();
  }

  // With tombstones or live documents in play, over-fetch so the post-
  // filter and the cross-segment merge can still fill m results.
  const bool plain = state->tombstones->empty() && !state->HasLiveDocs();
  size_t fetch_m = plain ? m : m * 2 + 64;

  const index::Lexicon* lexicon = &instance.built.lexicon;
  Result<query::QueryResponse> executed =
      kind == index::IndexKind::kHdil
          ? query::HdilQueryProcessor(pool, lexicon, options_.scoring,
                                      block_cache_.get())
                .Execute(normalized, fetch_m, exec_options)
          : query::DilQueryProcessor(pool, lexicon, options_.scoring,
                                     /*use_skip_blocks=*/true,
                                     block_cache_.get())
                .Execute(normalized, fetch_m, exec_options);
  if (!executed.ok()) {
    metrics.queries->Increment();
    metrics.errors->Increment();
    if (executed.status().code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_queries_.fetch_add(1, std::memory_order_relaxed);
      metrics.deadline_exceeded->Increment();
    }
    return executed.status();
  }
  query::QueryResponse response = std::move(executed).value();
  query::QueryStats stats = std::move(response.stats);

  // Merge the base results with every live segment's (each segment is a
  // self-contained DIL index; its ranks are regrouping-invariant, so one
  // global rank-descending sort is a correct merged ordering).
  std::vector<RawHit> hits;
  hits.reserve(response.results.size());
  for (query::RankedResult& raw : response.results) {
    RawHit hit;
    hit.rank = raw.rank;
    hit.local_id = std::move(raw.id);
    // Base indexes store PHYSICAL doc ids; the graph stays in identity
    // order, so graph-facing local_id remaps the document component back.
    hit.global_id = hit.local_id;
    if (!doc_perm_.empty() && !hit.local_id.empty()) {
      hit.local_id = WithDocComponent(
          hit.local_id, doc_perm_.ToIdentity(hit.local_id.component(0)));
    }
    hits.push_back(std::move(hit));
  }
  if (state->HasLiveDocs()) {
    query::ScopedSpan span(trace, "segments");
    std::vector<const index::LiveSegment*> scans;
    for (const auto& segment : state->segments) scans.push_back(segment.get());
    if (state->delta != nullptr) scans.push_back(state->delta.get());
    // Segment scans must not re-enter the caller's trace spans.
    query::QueryOptions segment_options = exec_options;
    segment_options.trace = nullptr;
    for (const index::LiveSegment* segment : scans) {
      query::DilQueryProcessor processor(
          segment->pool.get(), &segment->built.lexicon, options_.scoring,
          /*use_skip_blocks=*/true, block_cache_.get());
      Result<query::QueryResponse> scanned =
          processor.Execute(normalized, fetch_m, segment_options);
      if (!scanned.ok()) {
        metrics.queries->Increment();
        metrics.errors->Increment();
        if (scanned.status().code() == StatusCode::kDeadlineExceeded) {
          deadline_exceeded_queries_.fetch_add(1, std::memory_order_relaxed);
          metrics.deadline_exceeded->Increment();
        }
        return scanned.status();
      }
      query::QueryResponse segment_response = std::move(scanned).value();
      MergeQueryStats(&stats, segment_response.stats);
      for (query::RankedResult& raw : segment_response.results) {
        RawHit hit;
        hit.rank = raw.rank;
        hit.local_id = std::move(raw.id);
        hit.global_id = RebaseUp(hit.local_id, segment->doc_base);
        hit.segment = segment;
        hits.push_back(std::move(hit));
      }
    }
    // Same ordering contract as the per-index top-k heaps: rank
    // descending, Dewey id ascending on ties.
    std::sort(hits.begin(), hits.end(),
              [](const RawHit& a, const RawHit& b) {
                if (a.rank != b.rank) return a.rank > b.rank;
                return a.global_id < b.global_id;
              });
  }
  if (stats.partial) {
    partial_result_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  Result<EngineResponse> decorate_result = [&] {
    query::ScopedSpan span(trace, "decorate");
    return Decorate(*state, std::move(hits), std::move(stats), m);
  }();
  XRANK_RETURN_NOT_OK(decorate_result.status());
  EngineResponse decorated = std::move(decorate_result).value();
  // A partial response reflects this query's budget, not the index: caching
  // it would serve truncated results to later unconstrained queries. The
  // same goes for θ-truncated fleet responses (use_result_cache above).
  if (use_result_cache && !decorated.stats.partial) {
    result_cache_->Insert(cache_key, decorated);
  }
  // The reported latency is end to end: normalization, cache lookup, the
  // processor, segment scans and decoration.
  decorated.stats.wall_ms = wall.ElapsedSeconds() * 1e3;
  RecordQueryMetrics(decorated.stats);
  if (trace != nullptr) RecordStageMetrics(*trace);

  const double wall_ms = decorated.stats.wall_ms;
  if (options_.slow_query_ms != 0 && trace != nullptr &&
      wall_ms >= static_cast<double>(options_.slow_query_ms)) {
    SlowQueryEntry entry;
    entry.query = trace->query_text();
    entry.kind = kind;
    entry.wall_ms = wall_ms;
    // Copy, not move: a caller-supplied trace stays theirs to render.
    entry.trace = *trace;
    RecordSlowQuery(std::move(entry));
  }
  return decorated;
}

void XRankEngine::RecordSlowQuery(SlowQueryEntry entry) {
  const EngineMetrics& metrics = EngineMetrics::Get();
  std::lock_guard<std::mutex> lock(slow_query_mutex_);
  if (options_.slow_query_log_entries == 0) return;
  if (slow_query_ring_.size() < options_.slow_query_log_entries) {
    slow_query_ring_.push_back(std::move(entry));
  } else {
    slow_query_ring_[slow_query_next_] = std::move(entry);
    slow_query_next_ = (slow_query_next_ + 1) % slow_query_ring_.size();
  }
  ++slow_query_total_;
  metrics.slow_queries->Increment();
  metrics.slow_query_log_size->Set(
      static_cast<int64_t>(slow_query_ring_.size()));
}

std::vector<XRankEngine::SlowQueryEntry> XRankEngine::slow_queries() const {
  std::lock_guard<std::mutex> lock(slow_query_mutex_);
  std::vector<SlowQueryEntry> out;
  out.reserve(slow_query_ring_.size());
  // slow_query_next_ is the oldest entry once the ring has wrapped.
  for (size_t i = 0; i < slow_query_ring_.size(); ++i) {
    out.push_back(
        slow_query_ring_[(slow_query_next_ + i) % slow_query_ring_.size()]);
  }
  return out;
}

uint64_t XRankEngine::slow_query_count() const {
  std::lock_guard<std::mutex> lock(slow_query_mutex_);
  return slow_query_total_;
}

XRankEngine::ServingCounters XRankEngine::serving_counters(
    index::IndexKind kind) const {
  auto state = Snapshot();
  ServingCounters counters;
  auto it = state->base->indexes.find(kind);
  if (it != state->base->indexes.end()) {
    counters.pool_hits = it->second.pool->hits();
    counters.pool_misses = it->second.pool->misses();
  }
  if (result_cache_ != nullptr) {
    counters.result_cache_hits = result_cache_->hits();
    counters.result_cache_lookups = result_cache_->lookups();
  }
  if (block_cache_ != nullptr) {
    counters.block_cache_hits = block_cache_->hits();
    counters.block_cache_lookups = block_cache_->lookups();
  }
  counters.deadline_exceeded_queries =
      deadline_exceeded_queries_.load(std::memory_order_relaxed);
  counters.partial_result_queries =
      partial_result_queries_.load(std::memory_order_relaxed);
  return counters;
}

Result<EngineResponse> XRankEngine::QueryWithPath(
    std::string_view query_text, size_t m, index::IndexKind kind,
    const std::vector<std::string>& path) {
  if (path.empty()) return Query(query_text, m, kind);
  // Over-fetch, then keep results whose tag chain ends with `path`.
  XRANK_ASSIGN_OR_RETURN(EngineResponse raw,
                         Query(query_text, m * 4 + 64, kind));
  auto state = Snapshot();
  EngineResponse out;
  out.stats = raw.stats;
  for (core::EngineResult& result : raw.results) {
    if (out.results.size() >= m) break;
    const graph::XmlGraph* graph = &graph_;
    uint32_t doc_base = 0;
    if (!result.id.empty() && result.id.document_id() >= base_doc_count_) {
      const index::LiveSegment* segment =
          state->SegmentForDoc(result.id.document_id());
      if (segment == nullptr) continue;  // regrouped away under our feet
      graph = &segment->graph;
      doc_base = segment->doc_base;
    }
    dewey::DeweyId current = RebaseDown(result.id, doc_base);
    // Base results carry physical doc ids; the tag-chain walk reads the
    // identity-ordered graph.
    if (doc_base == 0 && !doc_perm_.empty() && !current.empty()) {
      current = WithDocComponent(current,
                                 doc_perm_.ToIdentity(current.component(0)));
    }
    bool matches = true;
    for (size_t i = path.size(); i-- > 0;) {
      if (current.empty()) {
        matches = false;
        break;
      }
      Result<graph::NodeId> node = graph->FindByDewey(current);
      if (!node.ok() || graph->name(node.value()) != path[i]) {
        matches = false;
        break;
      }
      current = current.Parent();
    }
    if (matches) out.results.push_back(std::move(result));
  }
  return out;
}

Result<EngineResponse> XRankEngine::Query(std::string_view query_text,
                                          size_t m, index::IndexKind kind) {
  return Query(query_text, m, kind, options_.query);
}

Result<EngineResponse> XRankEngine::Query(
    std::string_view query_text, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options) {
  std::vector<std::string> keywords;
  {
    query::ScopedSpan span(query_options.trace, "parse");
    uint32_t position = 0;
    for (index::Analyzer::Token& token :
         analyzer_.Tokenize(query_text, &position)) {
      keywords.push_back(std::move(token.term));
    }
  }
  if (keywords.empty()) {
    return Status::InvalidArgument("query contains no keywords");
  }
  return QueryKeywords(keywords, m, kind, query_options);
}

}  // namespace xrank::core
