#include "harness/indexed_corpus.h"

#include <utility>

#include "graph/builder.h"
#include "index/dil_index.h"
#include "index/hdil_index.h"
#include "index/naive_index.h"
#include "index/rdil_index.h"
#include "query/dil_query.h"
#include "query/hdil_query.h"
#include "query/naive_query.h"
#include "query/rdil_query.h"
#include "storage/page_file.h"

namespace xrank::harness {

namespace {

bool IsNaive(index::IndexKind kind) {
  return kind == index::IndexKind::kNaiveId ||
         kind == index::IndexKind::kNaiveRank;
}

Result<index::BuiltIndex> BuildKind(index::IndexKind kind,
                                    const index::ExtractionResult& extracted,
                                    const index::HdilOptions& hdil,
                                    const index::BuildOptions& build) {
  std::unique_ptr<storage::PageFile> file =
      storage::PageFile::CreateInMemory();
  switch (kind) {
    case index::IndexKind::kNaiveId:
      return index::BuildNaiveIdIndex(extracted.naive_postings,
                                      std::move(file), build);
    case index::IndexKind::kNaiveRank:
      return index::BuildNaiveRankIndex(extracted.naive_postings,
                                        std::move(file), build);
    case index::IndexKind::kDil:
      return index::BuildDilIndex(extracted.dewey_postings, std::move(file),
                                  build);
    case index::IndexKind::kRdil:
      return index::BuildRdilIndex(extracted.dewey_postings, std::move(file),
                                   build);
    case index::IndexKind::kHdil:
      return index::BuildHdilIndex(extracted.dewey_postings, std::move(file),
                                   hdil, build);
  }
  return Status::Internal("unknown index kind");
}

}  // namespace

void IndexedCorpus::DropCaches() {
  for (auto& [kind, instance] : indexes) {
    instance.pool->DropCache();
    instance.cost_model->Reset();
  }
}

Result<query::QueryResponse> IndexedCorpus::QueryKeywords(
    const std::vector<std::string>& keywords, size_t m,
    index::IndexKind kind, const query::QueryOptions& options) {
  auto it = indexes.find(kind);
  if (it == indexes.end()) {
    return Status::InvalidArgument(
        std::string(index::IndexKindName(kind)) + " index was not built");
  }
  std::vector<std::string> normalized;
  normalized.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    std::string term = analyzer.NormalizeKeyword(keyword);
    if (term.empty()) {
      return Status::InvalidArgument("keyword '" + keyword +
                                     "' normalizes to nothing");
    }
    normalized.push_back(std::move(term));
  }

  Instance& instance = it->second;
  storage::BufferPool* pool = instance.pool.get();
  pool->DropCache();
  instance.cost_model->ResetStreams();
  if (block_cache != nullptr) block_cache->Clear();

  const index::Lexicon* lex = &instance.built.lexicon;
  auto run = [&]() -> Result<query::QueryResponse> {
    switch (kind) {
      case index::IndexKind::kNaiveId:
        return query::NaiveIdQueryProcessor(pool, lex, scoring)
            .Execute(normalized, m, options);
      case index::IndexKind::kNaiveRank:
        return query::NaiveRankQueryProcessor(pool, lex, scoring)
            .Execute(normalized, m, options);
      case index::IndexKind::kDil:
        return query::DilQueryProcessor(pool, lex, scoring,
                                        /*use_skip_blocks=*/true,
                                        block_cache.get())
            .Execute(normalized, m, options);
      case index::IndexKind::kRdil:
        return query::RdilQueryProcessor(pool, lex, scoring)
            .Execute(normalized, m, options);
      case index::IndexKind::kHdil:
        return query::HdilQueryProcessor(pool, lex, scoring,
                                         block_cache.get())
            .Execute(normalized, m, options);
    }
    return Status::Internal("unknown index kind");
  };
  XRANK_ASSIGN_OR_RETURN(query::QueryResponse response, run());
  if (IsNaive(kind)) {
    // Naive result IDs are element ordinals (index/index_builder.h).
    for (query::RankedResult& result : response.results) {
      uint32_t ordinal = result.id.component(0);
      if (ordinal >= extracted.ordinal_to_dewey.size()) {
        return Status::Internal("naive ordinal out of range");
      }
      result.id = extracted.ordinal_to_dewey[ordinal];
    }
  }
  return response;
}

Result<std::unique_ptr<IndexedCorpus>> BuildIndexedCorpus(
    const std::vector<xml::Document>& documents,
    const core::EngineOptions& options) {
  auto corpus = std::make_unique<IndexedCorpus>();
  corpus->analyzer = index::Analyzer(options.extraction.analyzer);
  corpus->scoring = options.scoring;
  if (options.block_cache_bytes > 0) {
    corpus->block_cache =
        std::make_unique<index::BlockCache>(options.block_cache_bytes);
  }

  graph::GraphBuilder builder(options.graph);
  for (const xml::Document& doc : documents) {
    XRANK_RETURN_NOT_OK(builder.AddDocument(doc));
  }
  XRANK_ASSIGN_OR_RETURN(corpus->graph, std::move(builder).Finalize());
  XRANK_ASSIGN_OR_RETURN(corpus->ranks,
                         rank::ComputeElemRank(corpus->graph,
                                               options.elem_rank));

  bool need_naive = false;
  for (index::IndexKind kind : options.indexes) {
    need_naive = need_naive || IsNaive(kind);
  }
  index::ExtractionOptions extraction = options.extraction;
  extraction.build_naive = need_naive;
  XRANK_ASSIGN_OR_RETURN(
      corpus->extracted,
      index::ExtractPostings(corpus->graph, corpus->ranks.ranks, extraction));

  // Document reordering exactly as XRankEngine::Build applies it.
  index::BuildOptions build = options.build;
  if (build.reorder.enabled()) {
    corpus->doc_perm = index::ComputeReorderPermutation(
        corpus->extracted.dewey_postings,
        static_cast<uint32_t>(corpus->graph.document_count()), build.reorder);
  }
  build.format.reorder_id = corpus->doc_perm.empty() ? 0 : build.reorder.id();
  index::ApplyDocPermutation(corpus->doc_perm, &corpus->extracted);

  for (index::IndexKind kind : options.indexes) {
    IndexedCorpus::Instance instance;
    XRANK_ASSIGN_OR_RETURN(
        instance.built,
        BuildKind(kind, corpus->extracted, options.hdil, build));
    instance.cost_model = std::make_unique<storage::CostModel>(options.cost);
    instance.pool = std::make_unique<storage::BufferPool>(
        instance.built.file.get(), options.buffer_pool_pages,
        instance.cost_model.get(), options.buffer_pool_shards);
    corpus->indexes.emplace(kind, std::move(instance));
  }
  return corpus;
}

}  // namespace xrank::harness
