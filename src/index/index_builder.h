#ifndef XRANK_INDEX_INDEX_BUILDER_H_
#define XRANK_INDEX_INDEX_BUILDER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "index/analyzer.h"
#include "index/codec.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "index/reorder.h"
#include "storage/page_file.h"

namespace xrank::index {

// term -> postings, in the order the physical list will store them.
using TermPostingsMap = std::map<std::string, std::vector<Posting>>;

// The five physical index organizations evaluated in the paper (Section 5).
enum class IndexKind : uint8_t {
  kNaiveId = 1,   // element-granularity postings (ancestors replicated),
                  // ID order, equality merge join
  kNaiveRank = 2, // same postings, rank order + hash index on element ID
  kDil = 3,       // Dewey inverted list, Dewey order (Section 4.2)
  kRdil = 4,      // rank order + dense B+-tree on Dewey ID (Section 4.3)
  kHdil = 5,      // Dewey-ordered list reused as B+-tree leaf level +
                  // rank-ordered prefix (Section 4.4)
};

std::string_view IndexKindName(IndexKind kind);
// Inverse of IndexKindName, ignoring case ("hdil", "naive-id", ...).
std::optional<IndexKind> IndexKindFromName(std::string_view name);

// What the per-posting rank field carries. The paper's query processing is
// "applicable to other ways of ranking XML elements, such as those using
// text tf-idf measures" (Section 4) — both sources flow through identical
// index structures and algorithms.
enum class RankSource {
  kElemRank,  // the element's hyperlink/containment importance (Section 3)
  kTfIdf,     // (1 + ln tf) · ln(1 + N/df), normalized to (0, 1]
};

struct ExtractionOptions {
  AnalyzerOptions analyzer;
  RankSource rank_source = RankSource::kElemRank;
  // Also produce element-granularity postings with replicated ancestors.
  // Only the two naive baselines read them (harness/indexed_corpus.h turns
  // this on for them); the serving engine never does.
  bool build_naive = false;
  // Document indexes to skip entirely. Used by document-granularity
  // deletion (paper Section 4.5): a compaction re-extracts postings with
  // the deleted documents masked out and rebuilds the physical indexes.
  std::vector<uint32_t> exclude_documents;
  // Worker threads for tokenization (documents are partitioned across
  // workers and the per-shard results merged in document order, so the
  // output is identical for every thread count). 0 = hardware concurrency,
  // 1 = sequential.
  int num_threads = 0;
};

// Threading knob shared by the physical-list builders (DIL/RDIL/HDIL).
// Terms are partitioned into contiguous shards; each worker encodes its
// shard's complete posting-list page runs into a scratch page file, and the
// coordinator splices the scratch pages back in term order — so the on-disk
// bytes are identical to the sequential build for every thread count.
struct BuildOptions {
  // 0 = hardware concurrency, 1 = sequential reference path.
  int num_threads = 0;
  // Posting-page codec and rank encoding for every list the build writes.
  // Recorded in the index header page and the MANIFEST; validated against
  // the codec registry at open. Default: the varint compatibility baseline
  // with lossless float ranks (byte-identical to pre-codec indexes).
  PostingFormatSpec format;
  // Build-time document reordering (index/reorder.h). When enabled the
  // engine computes a BP permutation of the global doc ids from the
  // extracted postings, applies it before any physical index is built, and
  // records the pass id in `format.reorder_id` (header + MANIFEST) so Open
  // re-derives the identical permutation. Live delta/segment builds always
  // run identity-ordered.
  ReorderOptions reorder;
};

// Output of the shared posting-extraction pass over the graph.
struct ExtractionResult {
  // Per term, postings of elements that DIRECTLY contain the term, in Dewey
  // order. Input to DIL / RDIL / HDIL builders.
  TermPostingsMap dewey_postings;
  // Per term, postings at element granularity with every ancestor
  // replicated (the naive adaptation of Section 4.1). Posting IDs are
  // single-component Dewey IDs holding the element's global preorder
  // ordinal. Input to the naive builders.
  TermPostingsMap naive_postings;
  // Maps element ordinals back to real Dewey IDs (naive result decoding).
  std::vector<dewey::DeweyId> ordinal_to_dewey;
  uint64_t element_count = 0;
  uint64_t direct_occurrence_count = 0;  // (term, element) pairs
};

// Walks the graph in document order, tokenizes all value text with
// document-global positions, and attaches each element's ElemRank
// (elem_ranks is indexed by NodeId, as produced by rank::ComputeElemRank).
Result<ExtractionResult> ExtractPostings(const graph::XmlGraph& graph,
                                         const std::vector<double>& elem_ranks,
                                         const ExtractionOptions& options);

// Size accounting for Table 1. Bytes = pages * kPageSize, i.e. the physical
// footprint of each structure.
struct IndexStats {
  uint64_t list_pages = 0;      // inverted-list pages (incl. HDIL rank prefix)
  uint64_t index_pages = 0;     // auxiliary pages: B+-trees, hash indexes
  uint64_t lexicon_pages = 0;
  uint64_t entry_count = 0;     // total postings across all lists
  // Encoded list bytes actually used; the page figures additionally count
  // the per-list trailing-page padding (each term's list starts on a fresh
  // page so sequential scans stay contiguous).
  uint64_t list_used_bytes = 0;

  uint64_t list_bytes() const { return list_used_bytes; }
  uint64_t list_file_bytes() const { return list_pages * storage::kPageSize; }
  uint64_t index_bytes() const { return index_pages * storage::kPageSize; }
};

// A finished physical index: one page file plus its in-memory lexicon.
struct BuiltIndex {
  IndexKind kind = IndexKind::kDil;
  std::unique_ptr<storage::PageFile> file;
  Lexicon lexicon;
  IndexStats stats;
};

// --- persistence shared by all index kinds ---

// Serializes the lexicon into trailing pages and fills in the header page
// (page 0, which the builder must have allocated first).
Status WriteIndexTrailer(storage::PageFile* file, IndexKind kind,
                         const Lexicon& lexicon, IndexStats* stats);

// Re-opens a previously built index file of any kind.
Result<BuiltIndex> OpenIndex(std::unique_ptr<storage::PageFile> file);

// Internal helper shared by builders: writes `blob` across fresh pages.
Result<ListExtent> WriteBlobToPages(storage::PageFile* file,
                                    std::string_view blob);

// --- helpers shared by the parallel builders ---

// Resolves a BuildOptions/ExtractionOptions thread knob (0 = hardware).
size_t ResolveBuildThreads(int num_threads);

// Appends every page of `scratch` to `file` in order (consecutively) and
// returns the page id in `file` where scratch page 0 landed; list extents
// recorded against the scratch file are rebased by that offset. Returns 0
// pages copied as first_page == file->page_count() (callers never rebase
// empty extents).
Result<storage::PageId> AppendScratchPages(storage::PageFile* file,
                                           const storage::PageFile& scratch);

// Splits `count` items into at most `num_shards` contiguous [begin, end)
// ranges, balanced by the per-item weights (each shard is one worker's
// unit of work, so balance matters more than an exact shard count).
std::vector<std::pair<size_t, size_t>> PartitionByWeight(
    const std::vector<uint64_t>& weights, size_t num_shards);

}  // namespace xrank::index

#endif  // XRANK_INDEX_INDEX_BUILDER_H_
