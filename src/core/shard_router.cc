#include "core/shard_router.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/crc32.h"
#include "common/metrics.h"
#include "common/safe_strerror.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "graph/builder.h"
#include "index/manifest.h"
#include "query/result_heap.h"
#include "query/trace.h"
#include "rank/elem_rank.h"

namespace xrank::core {

namespace {

constexpr char kShardingHeader[] = "xrank-sharding v1";

// Router-level metrics series, registered once (same pattern as the
// engine's query.* series in core/engine.cc).
struct RouterMetrics {
  metrics::Counter* queries = nullptr;
  metrics::Counter* shard_queries = nullptr;
  metrics::Counter* errors = nullptr;
  metrics::Counter* partial = nullptr;
  metrics::Counter* deadline_exceeded = nullptr;
  metrics::Counter* shards_skipped = nullptr;
  metrics::Counter* theta_raises = nullptr;
  metrics::Histogram* query_us = nullptr;

  static const RouterMetrics& Get() {
    static const RouterMetrics* instance = [] {
      auto* rm = new RouterMetrics();
      metrics::Registry& registry = metrics::Registry::Instance();
      rm->queries = registry.GetCounter("router.queries");
      rm->shard_queries = registry.GetCounter("router.shard_queries");
      rm->errors = registry.GetCounter("router.errors");
      rm->partial = registry.GetCounter("router.partial");
      rm->deadline_exceeded = registry.GetCounter("router.deadline_exceeded");
      rm->shards_skipped = registry.GetCounter("router.shards_skipped");
      rm->theta_raises = registry.GetCounter("router.theta_raises");
      rm->query_us = registry.GetHistogram("router.query_us");
      return rm;
    }();
    return *instance;
  }
};

Result<uint64_t> ParseU64(std::string_view token, const char* what) {
  uint64_t value = 0;
  if (token.empty()) return Status::Corruption(std::string(what) + " missing");
  for (char c : token) {
    if (c < '0' || c > '9') {
      return Status::Corruption("bad " + std::string(what) + " '" +
                                std::string(token) + "' in SHARDING");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

// Same doc-id rebase as the engine's live segments: the first Dewey
// component is the document id, everything below it is unchanged.
dewey::DeweyId RebaseUp(const dewey::DeweyId& local, uint32_t doc_base) {
  if (doc_base == 0) return local;
  std::vector<uint32_t> components = local.components();
  components[0] += doc_base;
  return dewey::DeweyId(std::move(components));
}

Status MakeDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create directory '" + path +
                           "': " + SafeStrError(errno));
  }
  return Status::OK();
}

// Durable small-file write: tmp + fsync + rename + directory fsync — the
// MANIFEST commit idiom (index/manifest.h) applied to the SHARDING file.
Status WriteFileDurably(const std::string& dir, const std::string& name,
                        const std::string& blob) {
  std::string tmp_path = dir + "/" + name + ".tmp";
  std::string final_path = dir + "/" + name;
  int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create '" + tmp_path +
                           "': " + SafeStrError(errno));
  }
  size_t written = 0;
  while (written < blob.size()) {
    ssize_t n = ::write(fd, blob.data() + written, blob.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Status::IOError("write of '" + tmp_path +
                                      "' failed: " + SafeStrError(errno));
      ::close(fd);
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status status = Status::IOError("fsync of '" + tmp_path +
                                    "' failed: " + SafeStrError(errno));
    ::close(fd);
    return status;
  }
  ::close(fd);
  XRANK_RETURN_NOT_OK(index::RenameFile(tmp_path, final_path));
  return index::SyncDirectory(dir);
}

}  // namespace

std::string ShardDirName(size_t shard_index) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "shard-%04zu", shard_index);
  return buffer;
}

std::string SerializeShardingManifest(const ShardingManifest& manifest) {
  std::string out(kShardingHeader);
  out += "\n";
  for (size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardDescriptor& shard = manifest.shards[i];
    char line[256];
    std::snprintf(line, sizeof(line), "shard %zu dir %s base %u count %u\n", i,
                  shard.dir.c_str(), shard.doc_base, shard.doc_count);
    out += line;
  }
  if (manifest.reorder_id != 0) {
    char line[64];
    std::snprintf(line, sizeof(line), "reorder %u\n", manifest.reorder_id);
    out += line;
  }
  char commit[64];
  std::snprintf(commit, sizeof(commit), "commit %u\n", Crc32c(out));
  out += commit;
  return out;
}

Result<ShardingManifest> ParseShardingManifest(std::string_view text) {
  size_t commit_pos = text.rfind("\ncommit ");
  if (commit_pos == std::string_view::npos) {
    return Status::Corruption("SHARDING has no commit trailer");
  }
  std::string_view body = text.substr(0, commit_pos + 1);
  std::string_view trailer = text.substr(commit_pos + 1);
  if (!StartsWith(trailer, "commit ") || trailer.back() != '\n') {
    return Status::Corruption("malformed SHARDING commit trailer");
  }
  XRANK_ASSIGN_OR_RETURN(
      uint64_t stored_crc,
      ParseU64(trailer.substr(7, trailer.size() - 8), "commit crc"));
  uint32_t computed = Crc32c(body);
  if (stored_crc != computed) {
    return Status::Corruption("SHARDING checksum mismatch (stored " +
                              std::to_string(stored_crc) + ", computed " +
                              std::to_string(computed) + ")");
  }

  ShardingManifest manifest;
  bool saw_header = false;
  for (std::string_view line : SplitString(body, "\n")) {
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kShardingHeader) {
        return Status::Corruption("bad SHARDING header '" + std::string(line) +
                                  "'");
      }
      saw_header = true;
      continue;
    }
    std::vector<std::string_view> tokens = SplitString(line, " ");
    if (tokens.size() == 2 && tokens[0] == "reorder") {
      XRANK_ASSIGN_OR_RETURN(uint64_t reorder_id,
                             ParseU64(tokens[1], "reorder id"));
      if (reorder_id > index::kMaxReorderId) {
        return Status::Corruption(
            "SHARDING records unknown document-reorder pass id " +
            std::to_string(reorder_id));
      }
      manifest.reorder_id = static_cast<uint32_t>(reorder_id);
      continue;
    }
    if (tokens.size() != 8 || tokens[0] != "shard" || tokens[2] != "dir" ||
        tokens[4] != "base" || tokens[6] != "count") {
      return Status::Corruption("malformed SHARDING line '" +
                                std::string(line) + "'");
    }
    XRANK_ASSIGN_OR_RETURN(uint64_t index, ParseU64(tokens[1], "shard index"));
    if (index != manifest.shards.size()) {
      return Status::Corruption("SHARDING shard indexes out of order (got " +
                                std::to_string(index) + ", expected " +
                                std::to_string(manifest.shards.size()) + ")");
    }
    ShardDescriptor shard;
    shard.dir = std::string(tokens[3]);
    XRANK_ASSIGN_OR_RETURN(uint64_t base, ParseU64(tokens[5], "doc base"));
    shard.doc_base = static_cast<uint32_t>(base);
    XRANK_ASSIGN_OR_RETURN(uint64_t count, ParseU64(tokens[7], "doc count"));
    shard.doc_count = static_cast<uint32_t>(count);
    manifest.shards.push_back(std::move(shard));
  }
  if (manifest.shards.empty()) {
    return Status::Corruption("SHARDING describes no shards");
  }
  // The partition must be a contiguous cover starting at document 0 —
  // the invariant the global<->local Dewey rebase relies on.
  uint32_t expected_base = 0;
  for (const ShardDescriptor& shard : manifest.shards) {
    if (shard.doc_base != expected_base) {
      return Status::Corruption(
          "SHARDING partition not contiguous: shard '" + shard.dir +
          "' starts at " + std::to_string(shard.doc_base) + ", expected " +
          std::to_string(expected_base));
    }
    if (shard.doc_count == 0) {
      return Status::Corruption("SHARDING shard '" + shard.dir + "' is empty");
    }
    expected_base += shard.doc_count;
  }
  return manifest;
}

Status WriteShardingFile(const std::string& root_dir,
                         const ShardingManifest& manifest) {
  return WriteFileDurably(root_dir, kShardingFileName,
                          SerializeShardingManifest(manifest));
}

Result<ShardingManifest> ReadShardingFile(const std::string& root_dir) {
  std::string path = root_dir + "/" + kShardingFileName;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no SHARDING in '" + root_dir +
                              "': not a committed sharded root");
    }
    return Status::IOError("cannot open '" + path +
                           "': " + SafeStrError(errno));
  }
  std::string blob;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Status::IOError("read of '" + path +
                                      "' failed: " + SafeStrError(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    blob.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return ParseShardingManifest(blob);
}

bool IsShardedRoot(const std::string& root_dir) {
  struct stat st;
  return ::stat((root_dir + "/" + kShardingFileName).c_str(), &st) == 0;
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Build(
    std::vector<xml::Document> documents, const ShardRouterOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (documents.empty()) {
    return Status::InvalidArgument("cannot shard an empty corpus");
  }
  if (options.num_shards > documents.size()) {
    return Status::InvalidArgument(
        "cannot split " + std::to_string(documents.size()) +
        " documents into " + std::to_string(options.num_shards) +
        " shards (every shard needs at least one document)");
  }
  ShardingManifest manifest;
  const size_t total = documents.size();
  for (size_t i = 0; i < options.num_shards; ++i) {
    // pisa-style even split: shard i owns [i*N/S, (i+1)*N/S).
    const size_t begin = i * total / options.num_shards;
    const size_t end = (i + 1) * total / options.num_shards;
    ShardDescriptor shard;
    shard.dir = ShardDirName(i);
    shard.doc_base = static_cast<uint32_t>(begin);
    shard.doc_count = static_cast<uint32_t>(end - begin);
    manifest.shards.push_back(std::move(shard));
  }
  manifest.reorder_id = options.engine.build.reorder.enabled()
                            ? options.engine.build.reorder.id()
                            : index::kReorderIdentity;
  return Assemble(std::move(documents), options, std::move(manifest),
                  /*open_existing=*/false);
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    std::vector<xml::Document> documents, const ShardRouterOptions& options) {
  if (options.root_dir.empty()) {
    return Status::InvalidArgument("Open requires root_dir");
  }
  XRANK_ASSIGN_OR_RETURN(ShardingManifest manifest,
                         ReadShardingFile(options.root_dir));
  uint32_t total = 0;
  for (const ShardDescriptor& shard : manifest.shards) {
    total += shard.doc_count;
  }
  if (total != documents.size()) {
    return Status::InvalidArgument(
        "SHARDING covers " + std::to_string(total) + " documents but " +
        std::to_string(documents.size()) + " were provided");
  }
  return Assemble(std::move(documents), options, std::move(manifest),
                  /*open_existing=*/true);
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Assemble(
    std::vector<xml::Document> documents, const ShardRouterOptions& options,
    ShardingManifest manifest, bool open_existing) {
  auto router = std::unique_ptr<ShardRouter>(new ShardRouter());
  router->options_ = options;

  // Global graph + ElemRank, exactly as a monolithic build would compute
  // them (cross-shard hyperlinks resolve here, and the kFinal random-jump
  // mass sees the full corpus-wide document count).
  graph::GraphBuilder builder(options.engine.graph);
  for (const xml::Document& doc : documents) {
    XRANK_RETURN_NOT_OK(builder.AddDocument(doc));
  }
  XRANK_ASSIGN_OR_RETURN(graph::XmlGraph global_graph,
                         std::move(builder).Finalize());
  XRANK_ASSIGN_OR_RETURN(
      rank::ElemRankResult global_ranks,
      rank::ComputeElemRank(global_graph, options.engine.elem_rank));

  // Graph nodes are created document-by-document, so each document owns a
  // contiguous node range and a shard's rank slice is one subarray.
  const size_t total_docs = documents.size();
  std::vector<size_t> doc_node_start(total_docs + 1, 0);
  size_t next_doc = 0;
  for (size_t id = 0; id < global_graph.node_count(); ++id) {
    const uint32_t doc = global_graph.node(id).document;
    if (doc + 1 < next_doc) {
      return Status::Internal(
          "graph nodes are not grouped by document (node " +
          std::to_string(id) + " belongs to document " + std::to_string(doc) +
          " after document " + std::to_string(next_doc) + " started)");
    }
    while (next_doc <= doc) doc_node_start[next_doc++] = id;
  }
  while (next_doc <= total_docs) {
    doc_node_start[next_doc++] = global_graph.node_count();
  }

  // Optional global document reordering: the BP permutation is computed
  // over the IDENTITY-order corpus (the graph and ElemRank above are
  // float-summation-order sensitive, so they never see permuted input),
  // then documents and the per-document rank slices are gathered into
  // physical order BEFORE the contiguous split — so shard-local builds run
  // identity-ordered on pre-permuted docs and the scatter-gather top-k
  // stays bitwise-identical to the reordered monolithic engine.
  if (manifest.reorder_id != index::kReorderIdentity) {
    index::ReorderOptions reorder = options.engine.build.reorder;
    reorder.algorithm =
        static_cast<index::ReorderAlgorithm>(manifest.reorder_id);
    index::ExtractionOptions extraction = options.engine.extraction;
    extraction.build_naive = false;
    extraction.exclude_documents.clear();
    XRANK_ASSIGN_OR_RETURN(
        index::ExtractionResult extracted,
        index::ExtractPostings(global_graph, global_ranks.ranks, extraction));
    index::DocPermutation perm = index::ComputeReorderPermutation(
        extracted.dewey_postings, static_cast<uint32_t>(total_docs), reorder);
    if (!perm.empty()) {
      std::vector<xml::Document> permuted_docs;
      permuted_docs.reserve(total_docs);
      std::vector<double> permuted_ranks;
      permuted_ranks.reserve(global_ranks.ranks.size());
      std::vector<size_t> permuted_starts(total_docs + 1, 0);
      for (size_t p = 0; p < total_docs; ++p) {
        const uint32_t old_doc = perm.new_to_old[p];
        permuted_docs.push_back(std::move(documents[old_doc]));
        permuted_ranks.insert(
            permuted_ranks.end(),
            global_ranks.ranks.begin() +
                static_cast<ptrdiff_t>(doc_node_start[old_doc]),
            global_ranks.ranks.begin() +
                static_cast<ptrdiff_t>(doc_node_start[old_doc + 1]));
        permuted_starts[p + 1] = permuted_ranks.size();
      }
      documents = std::move(permuted_docs);
      global_ranks.ranks = std::move(permuted_ranks);
      doc_node_start = std::move(permuted_starts);
    } else if (!open_existing) {
      // Nothing to reorder (tiny corpus); commit the truth.
      manifest.reorder_id = index::kReorderIdentity;
    }
  }

  const bool disk_backed = !options.root_dir.empty();
  if (disk_backed && !open_existing) {
    XRANK_RETURN_NOT_OK(MakeDirectory(options.root_dir));
  }

  for (const ShardDescriptor& shard : manifest.shards) {
    EngineOptions shard_options = options.engine;
    // A hyperlink across a shard boundary dangles inside the shard's local
    // graph; its rank contribution is already in the global slice.
    shard_options.graph.ignore_dangling_links = true;
    // The global permutation (if any) already happened above; each shard
    // builds identity-ordered over its pre-permuted slice, and its headers
    // record no reorder pass (the SHARDING file carries it for the root).
    shard_options.build.reorder = index::ReorderOptions{};
    shard_options.build.format.reorder_id = 0;
    const size_t node_begin = doc_node_start[shard.doc_base];
    const size_t node_end = doc_node_start[shard.doc_base + shard.doc_count];
    shard_options.precomputed_elem_ranks.assign(
        global_ranks.ranks.begin() + static_cast<ptrdiff_t>(node_begin),
        global_ranks.ranks.begin() + static_cast<ptrdiff_t>(node_end));
    shard_options.disk_dir =
        disk_backed ? options.root_dir + "/" + shard.dir : "";

    std::vector<xml::Document> shard_documents;
    shard_documents.reserve(shard.doc_count);
    for (uint32_t d = 0; d < shard.doc_count; ++d) {
      shard_documents.push_back(std::move(documents[shard.doc_base + d]));
    }

    Result<std::unique_ptr<XRankEngine>> engine = [&] {
      if (open_existing) {
        return XRankEngine::Open(std::move(shard_documents), shard_options);
      }
      if (disk_backed) {
        Status made = MakeDirectory(shard_options.disk_dir);
        if (!made.ok()) {
          return Result<std::unique_ptr<XRankEngine>>(made);
        }
      }
      return XRankEngine::Build(std::move(shard_documents), shard_options);
    }();
    if (!engine.ok()) {
      return Status(engine.status().code(),
                    "shard '" + shard.dir + "': " + engine.status().message());
    }
    if (engine.value()->graph().document_count() != shard.doc_count) {
      return Status::Internal(
          "shard '" + shard.dir + "' serves " +
          std::to_string(engine.value()->graph().document_count()) +
          " documents, expected " + std::to_string(shard.doc_count));
    }
    router->shards_.push_back(Shard{std::move(engine).value()});
  }
  router->manifest_ = std::move(manifest);

  // Commit point for a disk-backed build: every shard directory already
  // committed its own MANIFEST; the root SHARDING file lands last, so a
  // crash anywhere earlier leaves no committed sharded root.
  if (disk_backed && !open_existing) {
    XRANK_RETURN_NOT_OK(
        WriteShardingFile(options.root_dir, router->manifest_));
  }

  size_t threads = options.scatter_threads > 0 ? options.scatter_threads
                                               : router->shards_.size();
  threads = std::min(threads, router->shards_.size());
  router->pool_ = std::make_unique<ThreadPool>(static_cast<int>(threads));
  return router;
}

Result<EngineResponse> ShardRouter::Query(std::string_view query_text,
                                          size_t m, index::IndexKind kind) {
  return Query(query_text, m, kind, query::QueryOptions{});
}

Result<EngineResponse> ShardRouter::Query(
    std::string_view query_text, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options,
    std::vector<query::QueryStats>* per_shard_stats) {
  std::string text(query_text);
  return Scatter(
      [&text, m, kind](XRankEngine& engine,
                       const query::QueryOptions& shard_options) {
        return engine.Query(text, m, kind, shard_options);
      },
      m, query_options, per_shard_stats);
}

Result<EngineResponse> ShardRouter::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m,
    index::IndexKind kind) {
  return QueryKeywords(keywords, m, kind, query::QueryOptions{});
}

Result<EngineResponse> ShardRouter::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m, index::IndexKind kind,
    const query::QueryOptions& query_options,
    std::vector<query::QueryStats>* per_shard_stats) {
  return Scatter(
      [&keywords, m, kind](XRankEngine& engine,
                           const query::QueryOptions& shard_options) {
        return engine.QueryKeywords(keywords, m, kind, shard_options);
      },
      m, query_options, per_shard_stats);
}

Result<EngineResponse> ShardRouter::Scatter(
    const std::function<Result<EngineResponse>(XRankEngine&,
                                               const query::QueryOptions&)>&
        run_query,
    size_t m, const query::QueryOptions& query_options,
    std::vector<query::QueryStats>* per_shard_stats) {
  WallTimer wall;
  const RouterMetrics& rm = RouterMetrics::Get();
  const size_t n = shards_.size();
  queries_.fetch_add(1, std::memory_order_relaxed);
  rm.queries->Increment();

  query::SharedTopKThreshold shared;
  const auto start = std::chrono::steady_clock::now();
  const bool tracing = query_options.trace != nullptr;

  struct Outcome {
    Status status;
    bool ran = false;      // the shard returned a response
    bool skipped = false;  // never started: the budget was already spent
    EngineResponse response;
    std::optional<query::QueryTrace> trace;
  };
  std::vector<Outcome> outcomes(n);

  auto run_shard = [&](size_t i) {
    Outcome& out = outcomes[i];
    query::QueryOptions shard_options = query_options;
    // A QueryTrace is single-threaded; every shard records its own and the
    // gather splices them into the caller's afterwards. Each is created
    // when its shard starts, so its spliced span opens there.
    if (tracing) out.trace.emplace();
    shard_options.trace = tracing ? &*out.trace : nullptr;
    shard_options.shared_threshold =
        options_.forward_theta ? &shared : nullptr;
    if (query_options.deadline_ms > 0) {
      const int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const int64_t remaining = query_options.deadline_ms - elapsed_ms;
      if (remaining <= 0) {
        out.skipped = true;
        out.status = Status::DeadlineExceeded(
            "query budget spent before shard " + std::to_string(i) +
            " started");
        return;
      }
      shard_options.deadline_ms = remaining;
    }
    shard_queries_.fetch_add(1, std::memory_order_relaxed);
    rm.shard_queries->Increment();
    Result<EngineResponse> result = run_query(*shards_[i].engine,
                                              shard_options);
    if (result.ok()) {
      out.ran = true;
      out.response = std::move(result).value();
    } else {
      out.status = result.status();
    }
  };

  if (options_.sequential_scatter || n == 1) {
    for (size_t i = 0; i < n; ++i) run_shard(i);
  } else {
    // The pool runs one job at a time; concurrent router queries take
    // turns scattering (each still fans out across the whole pool).
    std::lock_guard<std::mutex> lock(scatter_mutex_);
    pool_->ParallelFor(0, n, 1,
                       [&](size_t begin, size_t end, size_t /*chunk*/) {
                         for (size_t i = begin; i < end; ++i) run_shard(i);
                       });
  }

  const uint64_t raises = shared.raises();
  theta_raises_.fetch_add(raises, std::memory_order_relaxed);
  rm.theta_raises->Increment(raises);

  // Error policy: any hard shard failure fails the query; deadline misses
  // follow the partial-results contract.
  Status hard_error;
  bool deadline_hit = false;
  for (const Outcome& out : outcomes) {
    if (out.ran) continue;
    if (out.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_hit = true;
    } else if (hard_error.ok()) {
      hard_error = out.status;
    }
  }
  if (!hard_error.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    rm.errors->Increment();
    return hard_error;
  }
  if (deadline_hit) {
    for (const Outcome& out : outcomes) {
      if (out.skipped) {
        shards_skipped_.fetch_add(1, std::memory_order_relaxed);
        rm.shards_skipped->Increment();
      }
    }
    if (!query_options.allow_partial_results) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      rm.deadline_exceeded->Increment();
      return Status::DeadlineExceeded(
          "scatter-gather deadline exceeded (" +
          std::to_string(query_options.deadline_ms) + " ms)");
    }
  }

  // Gather: rebase every shard's decorated results into the global doc-id
  // space and re-rank through one TopKAccumulator — the same comparator
  // (rank descending, Dewey id ascending) the monolithic engine sorts
  // with, so the merged top-m is bitwise-identical to it.
  EngineResponse response;
  query::QueryStats& stats = response.stats;
  query::TopKAccumulator gather(m);
  std::unordered_map<dewey::DeweyId, EngineResult, dewey::DeweyIdHash> by_id;
  std::vector<std::string> labels;
  bool every_shard_cache_hit = true;
  if (per_shard_stats != nullptr) {
    per_shard_stats->assign(n, query::QueryStats{});
  }
  for (size_t i = 0; i < n; ++i) {
    const Outcome& out = outcomes[i];
    if (!out.ran) {
      every_shard_cache_hit = false;
      continue;
    }
    const EngineResponse& shard_response = out.response;
    query::MergeQueryStats(&stats, shard_response.stats);
    stats.switched_to_dil =
        stats.switched_to_dil || shard_response.stats.switched_to_dil;
    stats.threshold_terminated = stats.threshold_terminated ||
                                 shard_response.stats.threshold_terminated;
    if (!shard_response.stats.result_cache_hit) every_shard_cache_hit = false;
    const std::string& label = shard_response.stats.algorithm;
    if (!label.empty() &&
        std::find(labels.begin(), labels.end(), label) == labels.end()) {
      labels.push_back(label);
    }
    const uint32_t doc_base = manifest_.shards[i].doc_base;
    for (const EngineResult& result : shard_response.results) {
      EngineResult global = result;
      global.id = RebaseUp(result.id, doc_base);
      gather.Add(global.id, global.rank);
      by_id.emplace(global.id, std::move(global));
    }
    if (per_shard_stats != nullptr) {
      (*per_shard_stats)[i] = shard_response.stats;
    }
  }
  if (deadline_hit) stats.partial = true;  // a shard never contributed
  stats.result_cache_hit = every_shard_cache_hit && n > 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) stats.algorithm += "+";
    stats.algorithm += labels[i];
  }

  for (const query::RankedResult& ranked : gather.TakeTop()) {
    response.results.push_back(std::move(by_id[ranked.id]));
  }

  if (stats.partial) {
    partial_results_.fetch_add(1, std::memory_order_relaxed);
    rm.partial->Increment();
  }
  if (tracing) {
    for (size_t i = 0; i < n; ++i) {
      const std::optional<query::QueryTrace>& trace = outcomes[i].trace;
      if (trace.has_value() &&
          (outcomes[i].ran || !trace->spans().empty())) {
        query_options.trace->MergeChild("shard[" + std::to_string(i) + "]",
                                        *trace);
      }
    }
    query_options.trace->AddAnnotation("shards", std::to_string(n));
    query_options.trace->AddAnnotation("theta_raises",
                                       std::to_string(raises));
    if (!stats.algorithm.empty()) {
      query_options.trace->AddAnnotation("merge", stats.algorithm);
    }
  }
  stats.wall_ms = wall.ElapsedSeconds() * 1e3;
  rm.query_us->Observe(static_cast<uint64_t>(stats.wall_ms * 1e3));
  return response;
}

Status ShardRouter::AddDocument(std::string_view uri,
                                std::string_view xml_text) {
  // The tail shard is the only one whose id space can grow without
  // colliding with a later shard's base range. Refuse a URI another
  // shard's base corpus already holds (the tail engine checks its own).
  for (size_t i = 0; i + 1 < shards_.size(); ++i) {
    for (const graph::XmlGraph::DocumentInfo& doc :
         shards_[i].engine->graph().documents()) {
      if (doc.uri == uri) {
        return Status::InvalidArgument("document '" + std::string(uri) +
                                       "' already exists in shard " +
                                       std::to_string(i));
      }
    }
  }
  return shards_.back().engine->AddDocument(uri, xml_text);
}

Status ShardRouter::DeleteDocument(std::string_view uri) {
  for (Shard& shard : shards_) {
    Status status = shard.engine->DeleteDocument(uri);
    if (status.ok() || status.code() != StatusCode::kNotFound) return status;
  }
  return Status::NotFound("document '" + std::string(uri) +
                          "' not found in any shard");
}

Status ShardRouter::WaitForMaintenance() {
  for (Shard& shard : shards_) {
    XRANK_RETURN_NOT_OK(shard.engine->WaitForMaintenance());
  }
  return Status::OK();
}

XRankEngine::ServingCounters ShardRouter::serving_counters(
    index::IndexKind kind) const {
  XRankEngine::ServingCounters total;
  for (const Shard& shard : shards_) {
    XRankEngine::ServingCounters c = shard.engine->serving_counters(kind);
    total.pool_hits += c.pool_hits;
    total.pool_misses += c.pool_misses;
    total.result_cache_hits += c.result_cache_hits;
    total.result_cache_lookups += c.result_cache_lookups;
    total.block_cache_hits += c.block_cache_hits;
    total.block_cache_lookups += c.block_cache_lookups;
    total.deadline_exceeded_queries += c.deadline_exceeded_queries;
    total.partial_result_queries += c.partial_result_queries;
  }
  return total;
}

ShardRouter::RouterCounters ShardRouter::router_counters() const {
  RouterCounters counters;
  counters.queries = queries_.load(std::memory_order_relaxed);
  counters.shard_queries = shard_queries_.load(std::memory_order_relaxed);
  counters.errors = errors_.load(std::memory_order_relaxed);
  counters.partial_results = partial_results_.load(std::memory_order_relaxed);
  counters.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  counters.shards_skipped = shards_skipped_.load(std::memory_order_relaxed);
  counters.theta_raises = theta_raises_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace xrank::core
