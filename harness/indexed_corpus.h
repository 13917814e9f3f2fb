#ifndef XRANK_HARNESS_INDEXED_CORPUS_H_
#define XRANK_HARNESS_INDEXED_CORPUS_H_

// The paper-reproduction harness: all five physical index organizations of
// Section 5 (Naive-ID, Naive-Rank, DIL, RDIL, HDIL) built side by side over
// one corpus. The serving engine (core/engine.h) carries only DIL and HDIL;
// the three baselines live here, for the Table 1 / Figure 10-11 / Section
// 5.4 benches and the cross-kind parity tests.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "graph/graph.h"
#include "index/analyzer.h"
#include "index/block_cache.h"
#include "index/index_builder.h"
#include "index/reorder.h"
#include "query/query.h"
#include "rank/elem_rank.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "xml/node.h"

namespace xrank::harness {

// One corpus with memory-backed indexes of every requested kind, each with
// its own buffer pool and cost model.
struct IndexedCorpus {
  graph::XmlGraph graph;
  rank::ElemRankResult ranks;
  // Extracted postings, after the document permutation (if any).
  index::ExtractionResult extracted;
  // Build-time document permutation (empty = identity order). Result ids
  // carry physical doc ids, as the engine's do.
  index::DocPermutation doc_perm;

  struct Instance {
    index::BuiltIndex built;
    std::unique_ptr<storage::CostModel> cost_model;
    std::unique_ptr<storage::BufferPool> pool;
  };
  std::map<index::IndexKind, Instance> indexes;

  storage::BufferPool* pool(index::IndexKind kind) {
    return indexes.at(kind).pool.get();
  }
  const index::Lexicon* lexicon(index::IndexKind kind) {
    return &indexes.at(kind).built.lexicon;
  }
  const index::IndexStats& index_stats(index::IndexKind kind) const {
    return indexes.at(kind).built.stats;
  }
  // Empties every pool and zeroes every cost model.
  void DropCaches();

  // Runs one conjunctive or disjunctive keyword query (per the build's
  // scoring options) against `kind` the way the engine's cold-cache mode
  // does: keywords normalized by the build's analyzer, the kind's pool
  // dropped and its cost-model streams reset, and the decoded-block cache
  // cleared at query start — so the cost-model figures match an engine
  // query exactly. Naive-ID / Naive-Rank element ordinals are decoded back
  // to Dewey IDs, so every kind's results compare directly.
  Result<query::QueryResponse> QueryKeywords(
      const std::vector<std::string>& keywords, size_t m,
      index::IndexKind kind, const query::QueryOptions& options = {});

  index::Analyzer analyzer;
  query::ScoringOptions scoring;
  // Shared by the DIL and HDIL processors, as in the engine (null when
  // EngineOptions::block_cache_bytes is 0).
  std::unique_ptr<index::BlockCache> block_cache;
};

// Builds the corpus the way XRankEngine::Build does (graph, ElemRank,
// posting extraction, optional document reordering), then every kind in
// `options.indexes` — any of the five. Reads the graph, elem_rank,
// extraction, hdil, scoring, build, buffer_pool_pages, buffer_pool_shards,
// cost and block_cache_bytes fields; the serving-only fields are ignored.
Result<std::unique_ptr<IndexedCorpus>> BuildIndexedCorpus(
    const std::vector<xml::Document>& documents,
    const core::EngineOptions& options);

}  // namespace xrank::harness

#endif  // XRANK_HARNESS_INDEXED_CORPUS_H_
