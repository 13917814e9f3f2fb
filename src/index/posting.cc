#include "index/posting.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "index/block_cache.h"

namespace xrank::index {

// ---------------------------------------------------------------- writer --

PostingListWriter::PostingListWriter(storage::PageFile* file,
                                     const PostingFormat& format)
    : file_(file), format_(format) {
  XRANK_CHECK(format_.codec != nullptr, "posting format has no codec");
  encoder_ = format_.codec->NewEncoder(format_);
}

PostingListWriter::PostingListWriter(storage::PageFile* file,
                                     bool delta_encode_ids)
    : PostingListWriter(file, DefaultPostingFormat(delta_encode_ids)) {}

namespace {
// VBMW pages are whole physical pages, so an early close costs real space;
// never close a page with fewer postings than this, no matter the waste.
constexpr uint32_t kVbmwMinPageEntries = 16;
}  // namespace

Status PostingListWriter::FlushPage() {
  XRANK_ASSIGN_OR_RETURN(storage::PageId page, file_->Allocate());
  if (!pages_.empty()) {
    // Lists must occupy consecutive pages so sequential scans are cheap and
    // SeekToPage can address pages by index.
    if (page != pages_.back() + 1) {
      return Status::Internal("posting list pages not consecutive");
    }
  }
  storage::Page page_data{};
  XRANK_ASSIGN_OR_RETURN(size_t used, encoder_->Flush(&page_data));
  XRANK_RETURN_NOT_OK(file_->Write(page, page_data));
  pages_.push_back(page);
  extent_.byte_count += used;
  page_max_rank_ = 0.0f;
  page_waste_ = 0.0;
  return Status::OK();
}

Result<PostingLocation> PostingListWriter::Add(const Posting& posting) {
  XRANK_CHECK(!finished_, "Add after Finish");
  XRANK_ASSIGN_OR_RETURN(bool placed, encoder_->Add(posting));
  if (!placed) {
    XRANK_RETURN_NOT_OK(FlushPage());
    XRANK_ASSIGN_OR_RETURN(placed, encoder_->Add(posting));
    if (!placed) {
      return Status::InvalidArgument("posting larger than a page");
    }
  }
  PostingLocation loc{static_cast<uint32_t>(pages_.size()),
                      encoder_->count() - 1};
  if (loc.slot == 0) {
    skips_.push_back(SkipEntry{loc.page_index, posting.id});
  }
  // Block-max maintenance: the descriptor tracks the page's largest rank
  // *as a reader will decode it* (identical under float ranks; the
  // quantized value under quantized encodings), so the top-k merge's bound
  // is exact for what queries actually score with.
  float decoded = format_.DecodedRank(posting.elem_rank);
  skips_.back().max_rank = std::max(skips_.back().max_rank, decoded);

  uint64_t doc = posting.id.document_id();
  if (have_doc_ && doc == current_doc_) {
    current_doc_sum_ += decoded;
  } else {
    if (have_doc_ && current_doc_sum_ > max_doc_sum_) {
      max_doc_sum_ = current_doc_sum_;
    }
    have_doc_ = true;
    current_doc_ = doc;
    current_doc_sum_ = decoded;
  }

  ++extent_.entry_count;

  // VBMW block sizing (lambda-greedy): close the page once the accumulated
  // block-max waste — how far below the page's max_rank its postings sit —
  // exceeds lambda. A posting that raises the page max retroactively adds
  // waste for every earlier posting in the page.
  if (format_.vbmw_lambda_milli > 0 && std::isfinite(decoded)) {
    uint32_t in_page = encoder_->count();
    if (decoded > page_max_rank_) {
      page_waste_ +=
          static_cast<double>(decoded - page_max_rank_) * (in_page - 1);
      page_max_rank_ = decoded;
    } else {
      page_waste_ += static_cast<double>(page_max_rank_ - decoded);
    }
    double lambda = static_cast<double>(format_.vbmw_lambda_milli) / 1000.0;
    if (page_waste_ > lambda && in_page >= kVbmwMinPageEntries) {
      XRANK_RETURN_NOT_OK(FlushPage());
    }
  }
  return loc;
}

float PostingListWriter::max_doc_rank() const {
  double best = std::max(max_doc_sum_, have_doc_ ? current_doc_sum_ : 0.0);
  // Inflate past double->float rounding so the stored bound never dips
  // below the true sum (readers only ever need an upper bound).
  return static_cast<float>(best * (1.0 + 1e-6));
}

Result<ListExtent> PostingListWriter::Finish() {
  XRANK_CHECK(!finished_, "double Finish");
  finished_ = true;
  if (encoder_->count() > 0) XRANK_RETURN_NOT_OK(FlushPage());
  extent_.page_count = static_cast<uint32_t>(pages_.size());
  extent_.first_page = pages_.empty() ? storage::kInvalidPage : pages_.front();
  return extent_;
}

// ---------------------------------------------------------------- cursor --

PostingListCursor::PostingListCursor(storage::BufferPool* pool,
                                     const ListExtent& extent,
                                     const PostingFormat& format)
    : pool_(pool), extent_(extent), format_(format) {
  XRANK_CHECK(format_.codec != nullptr, "posting format has no codec");
}

PostingListCursor::PostingListCursor(storage::BufferPool* pool,
                                     const ListExtent& extent,
                                     bool delta_encode_ids)
    : PostingListCursor(pool, extent, DefaultPostingFormat(delta_encode_ids)) {}

bool PostingListCursor::AtEnd() const {
  if (page_index_ >= extent_.page_count) return true;
  if (page_index_ == extent_.page_count - 1 && page_loaded_ &&
      entry_index_ >= entries_in_page_) {
    return true;
  }
  return false;
}

Status PostingListCursor::LoadPage() {
  if (block_cache_ != nullptr) {
    BlockCache::Key key{pool_->file()->file_id(),
                        extent_.first_page + page_index_};
    cached_block_ = block_cache_->Lookup(key);
    if (cached_block_ != nullptr) {
      ++block_cache_hits_;
    } else {
      // Miss: decode the whole page once and publish it. The decoded
      // vector is immutable from here on — concurrent cursors share it
      // read-only.
      XRANK_RETURN_NOT_OK(
          pool_->Read(extent_.first_page + page_index_, &page_));
      std::shared_ptr<BlockCache::Block> block = block_cache_->NewBlock();
      XRANK_RETURN_NOT_OK(
          format_.codec->DecodePage(page_, format_, block.get()));
      cached_block_ = block;
      block_cache_->Insert(key, std::move(block));
    }
    block_ = cached_block_.get();
  } else {
    XRANK_RETURN_NOT_OK(pool_->Read(extent_.first_page + page_index_, &page_));
    XRANK_RETURN_NOT_OK(
        format_.codec->DecodePage(page_, format_, &local_block_));
    block_ = &local_block_;
  }
  entries_in_page_ = static_cast<uint32_t>(block_->size());
  entry_index_ = 0;
  page_loaded_ = true;
  return Status::OK();
}

Status PostingListCursor::SeekToPage(uint32_t page_index) {
  if (page_index >= extent_.page_count) {
    return Status::OutOfRange("SeekToPage beyond list");
  }
  page_index_ = page_index;
  return LoadPage();
}

Result<bool> PostingListCursor::Next(Posting* out) {
  const Posting* next = nullptr;
  XRANK_ASSIGN_OR_RETURN(bool has, Next(&next));
  if (has) *out = *next;
  return has;
}

Result<bool> PostingListCursor::Next(const Posting** out) {
  *out = nullptr;
  for (;;) {
    if (!page_loaded_) {
      if (page_index_ >= extent_.page_count) return false;
      XRANK_RETURN_NOT_OK(LoadPage());
    }
    if (entry_index_ >= entries_in_page_) {
      ++page_index_;
      page_loaded_ = false;
      cached_block_.reset();
      block_ = nullptr;
      if (page_index_ >= extent_.page_count) return false;
      continue;
    }
    *out = &(*block_)[entry_index_];
    ++entry_index_;
    return true;
  }
}

Result<Posting> ReadPostingAt(storage::BufferPool* pool,
                              const ListExtent& extent, PostingLocation loc,
                              const PostingFormat& format) {
  XRANK_CHECK(format.codec != nullptr, "posting format has no codec");
  if (loc.page_index >= extent.page_count) {
    return Status::OutOfRange("posting page out of list bounds");
  }
  storage::Page page;
  XRANK_RETURN_NOT_OK(pool->Read(extent.first_page + loc.page_index, &page));
  std::vector<Posting> block;
  XRANK_RETURN_NOT_OK(format.codec->DecodePage(page, format, &block));
  if (loc.slot >= block.size()) {
    return Status::OutOfRange("posting slot out of page bounds");
  }
  return std::move(block[loc.slot]);
}

Result<Posting> ReadPostingAt(storage::BufferPool* pool,
                              const ListExtent& extent, PostingLocation loc,
                              bool delta_encode_ids) {
  return ReadPostingAt(pool, extent, loc,
                       DefaultPostingFormat(delta_encode_ids));
}

}  // namespace xrank::index
