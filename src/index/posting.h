#ifndef XRANK_INDEX_POSTING_H_
#define XRANK_INDEX_POSTING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "dewey/dewey_id.h"
#include "index/codec.h"
#include "index/posting_types.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace xrank::index {

// Appends postings to consecutive pages of a PageFile. The page layout is
// delegated to the format's PostingCodec (index/codec.h); the writer owns
// page allocation, skip-descriptor maintenance and space accounting, and
// guarantees the (page, slot) location returned by Add is final — codecs
// decide page fit per posting and never repack across pages.
class PostingListWriter {
 public:
  PostingListWriter(storage::PageFile* file, const PostingFormat& format);
  // Legacy convenience: the varint compatibility baseline with float ranks.
  PostingListWriter(storage::PageFile* file, bool delta_encode_ids);

  // Returns the location the posting was placed at.
  Result<PostingLocation> Add(const Posting& posting);

  Result<ListExtent> Finish();

  // One entry per flushed page (the page's first posting ID). Complete
  // after Finish(); callers move it into the lexicon's TermInfo.
  const std::vector<SkipEntry>& skips() const { return skips_; }
  std::vector<SkipEntry> TakeSkips() { return std::move(skips_); }

  // The largest per-document sum of decoded ranks seen so far: an upper
  // bound on any element's sum-aggregated keyword rank for this term
  // (decay <= 1 and subtree occurrences are a subset of the document's).
  // Exact only when postings arrive grouped by document — true for the
  // Dewey-ordered DIL/HDIL lists that disjunctive pruning runs on.
  // Callers store it in TermInfo::max_doc_rank.
  float max_doc_rank() const;

 private:
  Status FlushPage();

  storage::PageFile* file_;
  PostingFormat format_;
  std::unique_ptr<PostingPageEncoder> encoder_;
  ListExtent extent_;
  std::vector<storage::PageId> pages_;
  std::vector<SkipEntry> skips_;
  bool finished_ = false;
  // VBMW block sizing: decoded-rank waste accumulated in the open page.
  float page_max_rank_ = 0.0f;
  double page_waste_ = 0.0;
  // Streaming per-document decoded-rank sum for max_doc_rank().
  bool have_doc_ = false;
  uint64_t current_doc_ = 0;
  double current_doc_sum_ = 0.0;
  double max_doc_sum_ = 0.0;
};

class BlockCache;

// Sequential cursor over a list's page run (through the buffer pool, so
// reads are charged to the cost model). Pages are decoded whole via the
// format's codec into a reused buffer — the uniform contract every codec
// supports (bp128/vgb pages only decode as a unit).
class PostingListCursor {
 public:
  PostingListCursor(storage::BufferPool* pool, const ListExtent& extent,
                    const PostingFormat& format);
  // Legacy convenience: the varint compatibility baseline with float ranks.
  PostingListCursor(storage::BufferPool* pool, const ListExtent& extent,
                    bool delta_encode_ids);

  // Attaches a decoded-block cache: a cache hit serves every posting of the
  // page without touching the buffer pool or the decoder; a miss decodes
  // the page once and publishes it. Must be called before the first
  // Next/SeekToPage. Null (the default) decodes into a cursor-local buffer.
  void set_block_cache(BlockCache* cache) { block_cache_ = cache; }

  // Reads the next posting; returns false at end of list.
  Result<bool> Next(Posting* out);

  // Points `*out` at the next posting in place, without copying it; it
  // stays valid until this cursor moves again (the page's block is pinned
  // until then). Returns false, with `*out` null, at end of list.
  Result<bool> Next(const Posting** out);

  bool AtEnd() const;

  // Repositions at the start of the list page with the given index within
  // the run (used by HDIL to jump via its sparse B+-tree).
  Status SeekToPage(uint32_t page_index);

  uint32_t current_page_index() const { return page_index_; }
  const ListExtent& extent() const { return extent_; }

  // Pages served from the decoded-block cache (0 without a cache).
  uint64_t block_cache_hits() const { return block_cache_hits_; }

 private:
  Status LoadPage();

  storage::BufferPool* pool_;
  ListExtent extent_;
  PostingFormat format_;
  uint32_t page_index_ = 0;
  uint32_t entries_in_page_ = 0;
  uint32_t entry_index_ = 0;
  storage::Page page_;
  bool page_loaded_ = false;
  BlockCache* block_cache_ = nullptr;
  // Decoded postings of the current page: `block_` points at either the
  // cursor-local buffer or a pinned cache block (pin outlives eviction).
  std::vector<Posting> local_block_;
  std::shared_ptr<const std::vector<Posting>> cached_block_;
  const std::vector<Posting>* block_ = nullptr;
  uint64_t block_cache_hits_ = 0;
};

// Random access to one posting (used by RDIL after a B+-tree lookup;
// decodes the posting's page and indexes the slot).
Result<Posting> ReadPostingAt(storage::BufferPool* pool,
                              const ListExtent& extent, PostingLocation loc,
                              const PostingFormat& format);
Result<Posting> ReadPostingAt(storage::BufferPool* pool,
                              const ListExtent& extent, PostingLocation loc,
                              bool delta_encode_ids);

}  // namespace xrank::index

#endif  // XRANK_INDEX_POSTING_H_
