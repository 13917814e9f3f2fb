#ifndef XRANK_QUERY_POSTING_CURSOR_H_
#define XRANK_QUERY_POSTING_CURSOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "index/lexicon.h"
#include "index/posting.h"
#include "query/deadline.h"
#include "storage/buffer_pool.h"

namespace xrank::query {

// Forward cursor over one term's Dewey-ordered inverted list, with
// document-granularity skipping. Wraps the sequential PostingListCursor and
// the list's build-time skip-block descriptors (one (first Dewey ID, page
// index) pair per list page, TermInfo::skips): when the Dewey-stack merge
// establishes that no result can start before document `d`, the cursor
// binary-searches the descriptors and re-enters the list at the first page
// that can contain `d`, never decoding the pages in between.
//
// Skipping a document is result-preserving whenever the caller has proved
// the document cannot matter. Under conjunctive semantics that proof is
// structural — document ids are the first Dewey component, so every result
// (depth >= 1) and all of its rank contributions lie within a single
// document, and a document missing any query keyword can contribute
// nothing. Under disjunctive semantics the proof is score-based: the
// MaxScore/WAND algorithms (query/disjunctive_merge.h) only skip documents
// whose rank upper bound stays below the current k-th result. Exhaustive
// disjunctive evaluation constructs with `use_skip_blocks == false`.
class PostingCursor {
 public:
  // `pool`, `lexicon` and `info` are borrowed and must outlive the cursor.
  // The list is `info->list` (Dewey order with delta-encoded IDs, the
  // DIL/HDIL full-list format), decoded with the lexicon's posting codec
  // and the list's quantization scale; skip descriptors are `info->skips`
  // and may be empty, in which case SkipToDocument degrades to a linear
  // scan. `block_cache` (optional, borrowed) serves decoded pages without
  // re-running the codec.
  PostingCursor(storage::BufferPool* pool, const index::Lexicon* lexicon,
                const index::TermInfo* info, bool use_skip_blocks,
                index::BlockCache* block_cache = nullptr);

  // Points `*out` at the next posting in list order, in place: it stays
  // valid until this cursor moves again. Returns false (`*out` null) at
  // end of list.
  Result<bool> Next(const index::Posting** out);

  // Advances to the first posting whose document id (first Dewey component)
  // is >= `doc`, discarding everything before it without feeding it to the
  // merge, and points `*out` at it as Next does. Returns false if the list
  // has no such posting. Forward-only: `doc` must be >= the document id
  // last returned.
  Result<bool> SkipToDocument(uint32_t doc, const index::Posting** out);

  // --- block-max pruning (see DESIGN.md section 11) ---
  //
  // A rank bound over the page run covering documents [doc, next_doc): for
  // any document d with doc <= d.id < next_doc, every posting of d in this
  // list lies on a page of the run, so this term's keyword rank for d —
  // max over its postings' ElemRank, times decay/proximity factors <= 1 —
  // is at most `bound`. The merge sums bounds across terms and skips the
  // whole run when the sum cannot beat the current k-th result.
  struct RankBound {
    double bound = 0.0;
    // First document id NOT covered by the run (UINT32_MAX when the run
    // extends to the end of the list).
    uint32_t next_doc = UINT32_MAX;
    // Index one past the run's last skip descriptor (ExtendBound state).
    size_t end_index = 0;
    // False when the list has no skip descriptors (no bound available).
    bool valid = false;
  };

  // Bound over the minimal run covering document `doc`. A corrupted
  // (non-finite) block maximum yields bound = +infinity — pruning simply
  // never fires on damaged descriptors.
  RankBound DocumentRankBound(uint32_t doc) const;

  // Widens the run by one page, raising `bound` to include it and advancing
  // `next_doc` past the documents the wider run now fully covers. No-op at
  // end of list (next_doc stays UINT32_MAX).
  void ExtendBound(RankBound* bound) const;

  // Block maximum of the page ExtendBound would add next — what `bound`
  // would become is max(bound.bound, NextPageRank(bound)). +infinity at end
  // of list or for a corrupted descriptor.
  double NextPageRank(const RankBound& bound) const;

  // List pages the cursor jumped over without reading (skip efficacy).
  uint64_t pages_skipped() const { return pages_skipped_; }

  // Pages served from the decoded-block cache (0 without a cache).
  uint64_t block_cache_hits() const { return cursor_.block_cache_hits(); }

  // List entries decoded through this cursor, including those discarded by
  // SkipToDocument's tail scan (per-term trace counter).
  uint64_t postings_read() const { return postings_read_; }

  const index::ListExtent& extent() const { return cursor_.extent(); }
  uint32_t current_page_index() const { return cursor_.current_page_index(); }

  // Attaches a cooperative budget: SkipToDocument's linear tail scan — the
  // only unbounded loop inside the cursor — checks it per posting and
  // aborts with DeadlineExceeded on expiry. Borrowed; may be null.
  void set_deadline(QueryDeadline* deadline) { deadline_ = deadline; }

 private:
  index::PostingListCursor cursor_;
  const std::vector<index::SkipEntry>* skips_;  // null = skipping disabled
  QueryDeadline* deadline_ = nullptr;
  uint64_t pages_skipped_ = 0;
  uint64_t postings_read_ = 0;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_POSTING_CURSOR_H_
