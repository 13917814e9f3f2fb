#include "index/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bitpack.h"
#include "common/check.h"
#include "common/varint.h"
#include "dewey/codec.h"
#include "index/reorder.h"

namespace xrank::index {

namespace {

constexpr size_t kListPageHeaderSize = 2;    // varint pages: u16 entry count
constexpr size_t kBlockPageHeaderSize = 12;  // block pages, see below
constexpr size_t kPackBlock = 128;           // values per bit-packed block
constexpr uint32_t kMaxDeweyDepth = 1u << 20;  // mirrors dewey/codec.cc
// Per-page cap on variable-stream lengths (suffix components, position
// deltas). Real pages stay far below this — the values themselves must fit
// in 4 KiB — but a bit-flipped header with zero-width blocks could other-
// wise demand a multi-gigabyte allocation before any bounds check fires.
constexpr uint32_t kMaxPageStreamValues = 1u << 20;

// Wrap-safe zigzag over u32 differences: bijective mod 2^32, so the
// non-monotone document heads of rank-ordered lists round-trip, while the
// small +/- deltas of Dewey-ordered lists map to small codes.
inline uint32_t ZigzagEncode(uint32_t delta) {
  return (delta << 1) ^ (0u - (delta >> 31));
}
inline uint32_t ZigzagDecode(uint32_t z) { return (z >> 1) ^ (0u - (z & 1)); }

// --------------------------------------------------------- rank helpers --

void AppendEncodedRank(float rank, const PostingFormat& format,
                       std::string* out) {
  switch (format.ranks) {
    case RankEncoding::kFloat32: {
      uint32_t bits;
      static_assert(sizeof(bits) == sizeof(rank));
      std::memcpy(&bits, &rank, sizeof(bits));
      out->append(reinterpret_cast<const char*>(&bits), sizeof(bits));
      return;
    }
    case RankEncoding::kQuantU8: {
      uint8_t q = static_cast<uint8_t>(
          QuantizeRank(rank, format.rank_scale, format.ranks));
      out->push_back(static_cast<char>(q));
      return;
    }
    case RankEncoding::kQuantU16: {
      uint16_t q = static_cast<uint16_t>(
          QuantizeRank(rank, format.rank_scale, format.ranks));
      char buf[2] = {static_cast<char>(q & 0xFF),
                     static_cast<char>(q >> 8)};
      out->append(buf, 2);
      return;
    }
  }
  XRANK_CHECK(false, "unknown rank encoding");
}

Result<float> DecodeRankBytes(const uint8_t* p, const PostingFormat& format) {
  switch (format.ranks) {
    case RankEncoding::kFloat32: {
      float rank;
      std::memcpy(&rank, p, sizeof(rank));
      return rank;
    }
    case RankEncoding::kQuantU8:
      return DequantizeRank(p[0], format.rank_scale, format.ranks);
    case RankEncoding::kQuantU16:
      return DequantizeRank(
          static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8),
          format.rank_scale, format.ranks);
  }
  return Status::Corruption("unknown rank encoding");
}

// ---------------------------------------------------------- varint codec --
//
// The pre-codec on-disk layout, kept byte-identical (under float ranks) as
// the compatibility baseline: u16 entry count, then back-to-back postings,
// each = Dewey ID (prefix-delta against the previous posting on the page,
// raw for the page's first posting or when delta coding is off) + rank +
// varint position count + varint position deltas.

void EncodeVarintPosting(const Posting& posting,
                         const dewey::DeweyId* previous,
                         const PostingFormat& format, std::string* out) {
  if (previous != nullptr) {
    dewey::EncodeDeweyIdDelta(*previous, posting.id, out);
  } else {
    dewey::EncodeDeweyId(posting.id, out);
  }
  AppendEncodedRank(posting.elem_rank, format, out);
  size_t count = std::min(posting.positions.size(), kMaxPositionsPerPosting);
  PutVarint32(out, static_cast<uint32_t>(count));
  uint32_t prev_pos = 0;
  for (size_t i = 0; i < count; ++i) {
    PutVarint32(out, posting.positions[i] - prev_pos);
    prev_pos = posting.positions[i];
  }
}

// Decodes one posting into `*out` in place: the id, rank and positions
// overwrite the posting's existing buffers, so a recycled page buffer
// decodes without allocating. `previous` is the page's prior id when ids
// are prefix-delta encoded (a raw id has the same shape with lcp 0);
// `suffix` is reused scratch.
Status DecodeVarintPosting(std::string_view data, size_t* offset,
                           const dewey::DeweyId* previous,
                           const PostingFormat& format,
                           std::vector<uint32_t>* suffix, Posting* out) {
  uint32_t lcp = 0;
  if (previous != nullptr) {
    XRANK_ASSIGN_OR_RETURN(lcp, GetVarint32(data, offset));
    if (lcp > previous->depth()) {
      return Status::Corruption("Dewey delta lcp exceeds previous depth");
    }
  }
  XRANK_ASSIGN_OR_RETURN(uint32_t suffix_len, GetVarint32(data, offset));
  // Every component takes at least one byte.
  if (suffix_len > kMaxDeweyDepth || suffix_len > data.size() - *offset) {
    return Status::Corruption("absurd Dewey depth");
  }
  suffix->resize(suffix_len);
  for (uint32_t i = 0; i < suffix_len; ++i) {
    XRANK_ASSIGN_OR_RETURN((*suffix)[i], GetVarint32(data, offset));
  }
  out->id.AssignParts(
      previous != nullptr ? previous->components().data() : nullptr, lcp,
      suffix->data(), suffix_len);
  size_t rank_bytes = RankEncodedBytes(format.ranks);
  if (*offset + rank_bytes > data.size()) {
    return Status::Corruption("truncated posting rank");
  }
  XRANK_ASSIGN_OR_RETURN(
      out->elem_rank,
      DecodeRankBytes(reinterpret_cast<const uint8_t*>(data.data()) + *offset,
                      format));
  *offset += rank_bytes;
  XRANK_ASSIGN_OR_RETURN(uint32_t count, GetVarint32(data, offset));
  if (count > kMaxPositionsPerPosting) {
    return Status::Corruption("posting position count out of range");
  }
  out->positions.resize(count);
  uint32_t position = 0;
  for (uint32_t i = 0; i < count; ++i) {
    XRANK_ASSIGN_OR_RETURN(uint32_t delta, GetVarint32(data, offset));
    position += delta;
    out->positions[i] = position;
  }
  return Status::OK();
}

class VarintPageEncoder final : public PostingPageEncoder {
 public:
  explicit VarintPageEncoder(const PostingFormat& format) : format_(format) {}

  Result<bool> Add(const Posting& posting) override {
    const dewey::DeweyId* previous =
        (format_.delta_encode_ids && count_ > 0) ? &previous_id_ : nullptr;
    size_t before = buffer_.size();
    EncodeVarintPosting(posting, previous, format_, &buffer_);
    if (kListPageHeaderSize + buffer_.size() > storage::kPageSize) {
      buffer_.resize(before);
      if (count_ == 0) {
        return Status::InvalidArgument("posting larger than a page");
      }
      return false;
    }
    previous_id_ = posting.id;
    ++count_;
    return true;
  }

  Result<size_t> Flush(storage::Page* page) override {
    page->WriteU16(0, count_);
    std::memcpy(page->data.data() + kListPageHeaderSize, buffer_.data(),
                buffer_.size());
    size_t used = kListPageHeaderSize + buffer_.size();
    buffer_.clear();
    count_ = 0;
    previous_id_ = dewey::DeweyId();
    return used;
  }

  uint32_t count() const override { return count_; }

 private:
  PostingFormat format_;
  std::string buffer_;
  uint16_t count_ = 0;
  dewey::DeweyId previous_id_;
};

class VarintPostingCodec final : public PostingCodec {
 public:
  uint32_t id() const override { return kPostingCodecVarint; }
  std::string_view name() const override { return "varint"; }

  std::unique_ptr<PostingPageEncoder> NewEncoder(
      const PostingFormat& format) const override {
    return std::make_unique<VarintPageEncoder>(format);
  }

  Status DecodePage(const storage::Page& page, const PostingFormat& format,
                    std::vector<Posting>* out) const override {
    uint16_t count = page.ReadU16(0);
    // No clear() before the resize: surviving slots keep their buffers, so
    // a recycled *out decodes without allocating (as the block codecs do).
    out->resize(count);
    size_t offset = kListPageHeaderSize;
    std::vector<uint32_t> suffix;
    for (uint16_t i = 0; i < count; ++i) {
      const dewey::DeweyId* prev =
          (format.delta_encode_ids && i > 0) ? &(*out)[i - 1].id : nullptr;
      Status status = DecodeVarintPosting(page.view(), &offset, prev, format,
                                          &suffix, &(*out)[i]);
      if (!status.ok()) {
        out->clear();
        return status;
      }
    }
    return Status::OK();
  }
};

// ----------------------------------------------------------- block codecs --
//
// bp128 and varint-GB share one page shape: the per-posting fields are
// transposed into six u32 streams, each compressed independently, followed
// by a flat rank array. Page layout:
//
//   offset 0   u16  entry count
//   offset 2   u16  reserved (0)
//   offset 4   u32  total suffix components on the page
//   offset 8   u32  total position deltas on the page
//   offset 12  streams (depth, lcp, head-gap, suffix, pos-count, pos-delta)
//   then       ranks: count * {4 (f32) | 1 (u8) | 2 (u16)} bytes
//
// Streams (one value per posting unless noted):
//   depth      Dewey depth
//   lcp        components shared with the previous posting on the page
//              (0 for the page's first posting and for rank-ordered lists)
//   head-gap   zigzag(comp0 - previous comp0), previous head 0 at page
//              start; for depth == 0 the chain value is 0
//   suffix     components [max(lcp,1), depth) of each posting, concatenated
//              (comp0 travels in the head-gap chain)
//   pos-count  number of positions (capped at kMaxPositionsPerPosting)
//   pos-delta  per posting: positions[0], then successive differences
//
// bp128 compresses each stream in blocks of 128 values: a 1-byte bit width
// (0..32, derived from the block maximum; width 0 has no payload bytes)
// followed by ceil(k * width / 8) bytes of LSB-first packed values.
// varint-GB compresses each stream in groups of 4 values: a control byte
// holding four 2-bit (byte length - 1) codes, then 1-4 little-endian bytes
// per value; a tail group stores bytes only for the values present.

enum StreamIx {
  kSDepth = 0,
  kSLcp,
  kSHead,
  kSSuffix,
  kSPosCount,
  kSPosDelta,
  kNumStreams,
};

inline unsigned VgbByteLen(uint32_t v) {
  return 1 + (v > 0xFF) + (v > 0xFFFF) + (v > 0xFFFFFF);
}

size_t PackBp128Stream(const std::vector<uint32_t>& values, uint8_t* out) {
  size_t off = 0;
  for (size_t i = 0; i < values.size(); i += kPackBlock) {
    size_t k = std::min(kPackBlock, values.size() - i);
    uint32_t bits = 0;
    for (size_t j = 0; j < k; ++j) bits |= values[i + j];
    unsigned width = bitpack::BitWidth(bits);
    out[off++] = static_cast<uint8_t>(width);
    bitpack::PackBits(values.data() + i, k, width, out + off);
    off += bitpack::PackedBytes(k, width);
  }
  return off;
}

size_t PackVgbStream(const std::vector<uint32_t>& values, uint8_t* out) {
  size_t off = 0;
  for (size_t i = 0; i < values.size(); i += 4) {
    size_t k = std::min<size_t>(4, values.size() - i);
    size_t ctrl_pos = off++;
    uint8_t ctrl = 0;
    for (size_t j = 0; j < k; ++j) {
      uint32_t v = values[i + j];
      unsigned len = VgbByteLen(v);
      ctrl |= static_cast<uint8_t>((len - 1) << (2 * j));
      for (unsigned b = 0; b < len; ++b) {
        out[off++] = static_cast<uint8_t>(v >> (8 * b));
      }
    }
    out[ctrl_pos] = ctrl;
  }
  return off;
}

bool ReadBp128Stream(const uint8_t* base, size_t* off, size_t n,
                     std::vector<uint32_t>* out) {
  out->resize(n);
  size_t i = 0;
  while (i < n) {
    if (*off >= storage::kPageSize) return false;
    unsigned width = base[(*off)++];
    if (width > 32) return false;
    size_t k = std::min(kPackBlock, n - i);
    size_t packed = bitpack::PackedBytes(k, width);
    if (*off + packed > storage::kPageSize) return false;
    if (!bitpack::UnpackBits(base + *off, base + *off + packed, k, width,
                             out->data() + i)) {
      return false;
    }
    *off += packed;
    i += k;
  }
  return true;
}

bool ReadVgbStream(const uint8_t* base, size_t* off, size_t n,
                   std::vector<uint32_t>* out) {
  // Dispatched shuffle-table decode (common/bitpack.h): SSSE3/NEON when the
  // host has them, scalar otherwise. The whole page is readable, so the
  // SIMD kernels' bounded overread past the encoded extent is safe.
  if (*off > storage::kPageSize) return false;
  out->resize(n);
  size_t consumed = 0;
  if (!bitpack::UnpackGroupVarint(base + *off, base + storage::kPageSize, n,
                                  out->data(), &consumed)) {
    return false;
  }
  *off += consumed;
  return true;
}

// Per-stream incremental size accounting so the encoder can decide page fit
// in O(1) per posting (the writer's page-at-a-time protocol forbids
// repacking across pages). Tracks both codecs' shapes; only the fields of
// the active codec are meaningful.
struct StreamSizer {
  // bp128: bytes of completed 128-value blocks + open-block state. The OR
  // of a block's values has the same bit width as its maximum.
  size_t full_bytes = 0;
  uint32_t tail_count = 0;
  uint32_t tail_or = 0;
  // varint-GB: payload bytes + value count (control bytes derived).
  size_t payload_bytes = 0;
  size_t value_count = 0;
};

class BlockPageEncoder final : public PostingPageEncoder {
 public:
  BlockPageEncoder(const PostingFormat& format, bool bitpacked)
      : format_(format), bitpacked_(bitpacked) {}

  Result<bool> Add(const Posting& posting) override;
  Result<size_t> Flush(storage::Page* page) override;
  uint32_t count() const override { return count_; }

 private:
  void SizerAppend(StreamSizer* sizer, uint32_t v) const {
    if (bitpacked_) {
      if (sizer->tail_count == 0) sizer->tail_or = 0;
      sizer->tail_or |= v;
      if (++sizer->tail_count == kPackBlock) {
        sizer->full_bytes +=
            1 + bitpack::PackedBytes(kPackBlock,
                                     bitpack::BitWidth(sizer->tail_or));
        sizer->tail_count = 0;
        sizer->tail_or = 0;
      }
    } else {
      sizer->payload_bytes += VgbByteLen(v);
      ++sizer->value_count;
    }
  }

  size_t SizerBytes(const StreamSizer& sizer) const {
    if (bitpacked_) {
      size_t bytes = sizer.full_bytes;
      if (sizer.tail_count > 0) {
        bytes += 1 + bitpack::PackedBytes(sizer.tail_count,
                                          bitpack::BitWidth(sizer.tail_or));
      }
      return bytes;
    }
    return sizer.payload_bytes + (sizer.value_count + 3) / 4;
  }

  void Append(StreamIx stream, uint32_t v) {
    streams_[stream].push_back(v);
    SizerAppend(&sizers_[stream], v);
  }

  PostingFormat format_;
  bool bitpacked_;
  std::vector<uint32_t> streams_[kNumStreams];
  StreamSizer sizers_[kNumStreams];
  std::vector<float> ranks_;
  uint32_t count_ = 0;
  dewey::DeweyId prev_id_;
  uint32_t prev_head_ = 0;
};

Result<bool> BlockPageEncoder::Add(const Posting& posting) {
  if (count_ > kMaxPostingSlot) return false;  // u16 count/slot ceiling

  // Snapshot so a posting that does not fit can be rolled back exactly.
  size_t saved_sizes[kNumStreams];
  StreamSizer saved_sizers[kNumStreams];
  for (int s = 0; s < kNumStreams; ++s) {
    saved_sizes[s] = streams_[s].size();
    saved_sizers[s] = sizers_[s];
  }

  const std::vector<uint32_t>& comps = posting.id.components();
  uint32_t depth = static_cast<uint32_t>(comps.size());
  uint32_t lcp = 0;
  if (format_.delta_encode_ids && count_ > 0) {
    lcp = static_cast<uint32_t>(posting.id.CommonPrefixLength(prev_id_));
  }
  uint32_t head = depth > 0 ? comps[0] : 0;

  Append(kSDepth, depth);
  Append(kSLcp, lcp);
  Append(kSHead, ZigzagEncode(head - prev_head_));
  if (depth > 0) {
    for (uint32_t j = std::max(lcp, 1u); j < depth; ++j) {
      Append(kSSuffix, comps[j]);
    }
  }
  size_t pos_count =
      std::min(posting.positions.size(), kMaxPositionsPerPosting);
  Append(kSPosCount, static_cast<uint32_t>(pos_count));
  uint32_t prev_pos = 0;
  for (size_t i = 0; i < pos_count; ++i) {
    Append(kSPosDelta, posting.positions[i] - prev_pos);
    prev_pos = posting.positions[i];
  }

  size_t total = kBlockPageHeaderSize +
                 (count_ + 1) * RankEncodedBytes(format_.ranks);
  for (int s = 0; s < kNumStreams; ++s) total += SizerBytes(sizers_[s]);

  bool overflow = total > storage::kPageSize ||
                  streams_[kSSuffix].size() > kMaxPageStreamValues ||
                  streams_[kSPosDelta].size() > kMaxPageStreamValues;
  if (overflow) {
    for (int s = 0; s < kNumStreams; ++s) {
      streams_[s].resize(saved_sizes[s]);
      sizers_[s] = saved_sizers[s];
    }
    if (count_ == 0) {
      return Status::InvalidArgument("posting larger than a page");
    }
    return false;
  }

  ranks_.push_back(posting.elem_rank);
  prev_id_ = posting.id;
  prev_head_ = head;
  ++count_;
  return true;
}

Result<size_t> BlockPageEncoder::Flush(storage::Page* page) {
  page->WriteU16(0, static_cast<uint16_t>(count_));
  page->WriteU16(2, 0);
  page->WriteU32(4, static_cast<uint32_t>(streams_[kSSuffix].size()));
  page->WriteU32(8, static_cast<uint32_t>(streams_[kSPosDelta].size()));
  uint8_t* base = reinterpret_cast<uint8_t*>(page->data.data());
  size_t off = kBlockPageHeaderSize;
  for (int s = 0; s < kNumStreams; ++s) {
    size_t packed = bitpacked_ ? PackBp128Stream(streams_[s], base + off)
                               : PackVgbStream(streams_[s], base + off);
    XRANK_CHECK(packed == SizerBytes(sizers_[s]),
                "block stream size accounting mismatch");
    off += packed;
  }
  size_t rank_bytes = RankEncodedBytes(format_.ranks);
  XRANK_CHECK(off + count_ * rank_bytes <= storage::kPageSize,
              "block page overflow");
  for (float rank : ranks_) {
    switch (format_.ranks) {
      case RankEncoding::kFloat32:
        std::memcpy(base + off, &rank, sizeof(rank));
        break;
      case RankEncoding::kQuantU8:
        base[off] = static_cast<uint8_t>(
            QuantizeRank(rank, format_.rank_scale, format_.ranks));
        break;
      case RankEncoding::kQuantU16: {
        uint32_t q = QuantizeRank(rank, format_.rank_scale, format_.ranks);
        base[off] = static_cast<uint8_t>(q & 0xFF);
        base[off + 1] = static_cast<uint8_t>(q >> 8);
        break;
      }
    }
    off += rank_bytes;
  }
  for (int s = 0; s < kNumStreams; ++s) {
    streams_[s].clear();
    sizers_[s] = StreamSizer{};
  }
  ranks_.clear();
  count_ = 0;
  prev_id_ = dewey::DeweyId();
  prev_head_ = 0;
  return off;
}

Status DecodeBlockPage(const storage::Page& page, const PostingFormat& format,
                       bool bitpacked, std::vector<Posting>* out) {
  const uint8_t* base = reinterpret_cast<const uint8_t*>(page.data.data());
  uint32_t count = page.ReadU16(0);
  if (count == 0) {
    out->clear();
    return Status::OK();
  }
  // No clear() before the resize below: surviving slots keep their heap
  // buffers (Dewey components, positions), so a recycled *out makes the
  // whole decode allocation-free once warm.
  uint32_t suffix_total = page.ReadU32(4);
  uint32_t pos_total = page.ReadU32(8);
  if (suffix_total > kMaxPageStreamValues ||
      pos_total > kMaxPageStreamValues) {
    return Status::Corruption("posting block stream totals out of range");
  }

  // Reused scratch keeps the hot decode path allocation-free once warm.
  thread_local std::vector<uint32_t> scratch[kNumStreams];
  const size_t counts[kNumStreams] = {count,        count, count,
                                      suffix_total, count, pos_total};
  size_t off = kBlockPageHeaderSize;
  for (int s = 0; s < kNumStreams; ++s) {
    bool ok = bitpacked
                  ? ReadBp128Stream(base, &off, counts[s], &scratch[s])
                  : ReadVgbStream(base, &off, counts[s], &scratch[s]);
    if (!ok) return Status::Corruption("truncated posting block stream");
  }
  size_t rank_bytes = RankEncodedBytes(format.ranks);
  if (off + static_cast<size_t>(count) * rank_bytes > storage::kPageSize) {
    return Status::Corruption("truncated posting block ranks");
  }

  out->resize(count);
  // Hoisted stream pointers (scratch is thread_local — keep TLS lookups out
  // of the per-posting loop) and bulk range checks over whole streams, so
  // the reconstruction loop only validates the cross-stream invariants.
  const uint32_t* depth_s = scratch[kSDepth].data();
  const uint32_t* lcp_s = scratch[kSLcp].data();
  const uint32_t* head_s = scratch[kSHead].data();
  const uint32_t* suffix_s = scratch[kSSuffix].data();
  const uint32_t* pos_count_s = scratch[kSPosCount].data();
  const uint32_t* pos_delta_s = scratch[kSPosDelta].data();
  uint32_t depth_max = 0;
  uint32_t pos_count_max = 0;
  for (uint32_t i = 0; i < count; ++i) {
    depth_max = std::max(depth_max, depth_s[i]);
    pos_count_max = std::max(pos_count_max, pos_count_s[i]);
  }
  if (depth_max > kMaxDeweyDepth) {
    return Status::Corruption("absurd Dewey depth in posting block");
  }
  if (pos_count_max > kMaxPositionsPerPosting) {
    return Status::Corruption("posting position count out of range");
  }
  const uint8_t* rank_base = base + off;
  const bool float_ranks = format.ranks == RankEncoding::kFloat32;
  uint32_t prev_head = 0;
  size_t suffix_idx = 0;
  size_t pos_idx = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Posting& posting = (*out)[i];
    uint32_t depth = depth_s[i];
    uint32_t lcp = lcp_s[i];
    uint32_t head = prev_head + ZigzagDecode(head_s[i]);
    prev_head = head;
    if (lcp > depth || (i == 0 && lcp != 0)) {
      return Status::Corruption("posting block prefix length out of range");
    }
    if (depth > 0) {
      uint32_t start = std::max(lcp, 1u);
      uint32_t suffix_count = depth - start;
      if (suffix_idx + suffix_count > suffix_total) {
        return Status::Corruption("posting block suffix stream underrun");
      }
      const uint32_t* suffix = suffix_s + suffix_idx;
      if (lcp > 0) {
        // The previous posting lives in a different slot of *out, so its
        // component storage never aliases this posting's.
        const std::vector<uint32_t>& prev_comps =
            (*out)[i - 1].id.components();
        if (lcp > prev_comps.size()) {
          return Status::Corruption(
              "posting block prefix exceeds previous depth");
        }
        posting.id.AssignParts(prev_comps.data(), lcp, suffix, suffix_count);
      } else {
        posting.id.AssignParts(&head, 1, suffix, suffix_count);
      }
      suffix_idx += suffix_count;
    } else {
      posting.id.AssignComponents(nullptr, 0);
    }

    uint32_t pos_count = pos_count_s[i];
    if (pos_idx + pos_count > pos_total) {
      return Status::Corruption("posting block position stream underrun");
    }
    posting.positions.resize(pos_count);
    uint32_t position = 0;
    for (uint32_t j = 0; j < pos_count; ++j) {
      position += pos_delta_s[pos_idx + j];
      posting.positions[j] = position;
    }
    pos_idx += pos_count;

    if (float_ranks) {
      std::memcpy(&posting.elem_rank,
                  rank_base + static_cast<size_t>(i) * sizeof(float),
                  sizeof(float));
    } else {
      XRANK_ASSIGN_OR_RETURN(
          posting.elem_rank,
          DecodeRankBytes(rank_base + static_cast<size_t>(i) * rank_bytes,
                          format));
    }
  }
  if (suffix_idx != suffix_total || pos_idx != pos_total) {
    return Status::Corruption("posting block stream totals inconsistent");
  }
  return Status::OK();
}

class Bp128PostingCodec final : public PostingCodec {
 public:
  uint32_t id() const override { return kPostingCodecBp128; }
  std::string_view name() const override { return "bp128"; }
  std::unique_ptr<PostingPageEncoder> NewEncoder(
      const PostingFormat& format) const override {
    return std::make_unique<BlockPageEncoder>(format, /*bitpacked=*/true);
  }
  Status DecodePage(const storage::Page& page, const PostingFormat& format,
                    std::vector<Posting>* out) const override {
    return DecodeBlockPage(page, format, /*bitpacked=*/true, out);
  }
};

class VgbPostingCodec final : public PostingCodec {
 public:
  uint32_t id() const override { return kPostingCodecVarintGb; }
  std::string_view name() const override { return "vgb"; }
  std::unique_ptr<PostingPageEncoder> NewEncoder(
      const PostingFormat& format) const override {
    return std::make_unique<BlockPageEncoder>(format, /*bitpacked=*/false);
  }
  Status DecodePage(const storage::Page& page, const PostingFormat& format,
                    std::vector<Posting>* out) const override {
    return DecodeBlockPage(page, format, /*bitpacked=*/false, out);
  }
};

}  // namespace

// --------------------------------------------------------------- registry --

const std::vector<const PostingCodec*>& RegisteredPostingCodecs() {
  static const VarintPostingCodec varint;
  static const Bp128PostingCodec bp128;
  static const VgbPostingCodec vgb;
  static const std::vector<const PostingCodec*> registry = {&varint, &bp128,
                                                            &vgb};
  return registry;
}

const PostingCodec* FindPostingCodec(uint32_t id) {
  for (const PostingCodec* codec : RegisteredPostingCodecs()) {
    if (codec->id() == id) return codec;
  }
  return nullptr;
}

const PostingCodec* FindPostingCodecByName(std::string_view name) {
  for (const PostingCodec* codec : RegisteredPostingCodecs()) {
    if (codec->name() == name) return codec;
  }
  return nullptr;
}

Result<const PostingCodec*> ResolvePostingCodec(
    const PostingFormatSpec& spec) {
  const PostingCodec* codec = FindPostingCodec(spec.codec_id);
  if (codec == nullptr) {
    return Status::Corruption(
        "index built with unregistered posting codec id " +
        std::to_string(spec.codec_id));
  }
  if (static_cast<uint32_t>(spec.ranks) >= kRankEncodingCount) {
    return Status::Corruption(
        "index built with unknown rank encoding " +
        std::to_string(static_cast<uint32_t>(spec.ranks)));
  }
  if (spec.reorder_id > kMaxReorderId) {
    return Status::Corruption(
        "index built with unknown document-reorder pass id " +
        std::to_string(spec.reorder_id));
  }
  return codec;
}

PostingFormat DefaultPostingFormat(bool delta_encode_ids) {
  PostingFormat format;
  format.codec = FindPostingCodec(kPostingCodecVarint);
  format.ranks = RankEncoding::kFloat32;
  format.rank_scale = 1.0f;
  format.delta_encode_ids = delta_encode_ids;
  return format;
}

// ----------------------------------------------------------- rank helpers --

size_t RankEncodedBytes(RankEncoding encoding) {
  switch (encoding) {
    case RankEncoding::kFloat32:
      return 4;
    case RankEncoding::kQuantU8:
      return 1;
    case RankEncoding::kQuantU16:
      return 2;
  }
  XRANK_CHECK(false, "unknown rank encoding");
  return 4;
}

uint32_t RankQuantMax(RankEncoding encoding) {
  switch (encoding) {
    case RankEncoding::kFloat32:
      return 0;
    case RankEncoding::kQuantU8:
      return 255;
    case RankEncoding::kQuantU16:
      return 65535;
  }
  return 0;
}

std::string_view RankEncodingName(RankEncoding encoding) {
  switch (encoding) {
    case RankEncoding::kFloat32:
      return "f32";
    case RankEncoding::kQuantU8:
      return "q8";
    case RankEncoding::kQuantU16:
      return "q16";
  }
  return "?";
}

float DequantizeRank(uint32_t q, float scale, RankEncoding encoding) {
  uint32_t qmax = RankQuantMax(encoding);
  if (qmax == 0) return 0.0f;
  return scale * (static_cast<float>(q) / static_cast<float>(qmax));
}

uint32_t QuantizeRank(float rank, float scale, RankEncoding encoding) {
  uint32_t qmax = RankQuantMax(encoding);
  if (qmax == 0) return 0;
  if (!std::isfinite(rank) || !(rank > 0.0f) || !(scale > 0.0f)) return 0;
  float x = rank / scale;
  if (x > 1.0f) x = 1.0f;
  uint32_t q = static_cast<uint32_t>(x * static_cast<float>(qmax));
  if (q > qmax) q = qmax;
  // Float rounding can land one step off in either direction; nudge to the
  // exact floor so Dequantize(q) <= rank < Dequantize(q + 1).
  while (q < qmax && DequantizeRank(q + 1, scale, encoding) <= rank) ++q;
  while (q > 0 && DequantizeRank(q, scale, encoding) > rank) --q;
  return q;
}

float RankQuantizationBound(RankEncoding encoding, float scale) {
  uint32_t qmax = RankQuantMax(encoding);
  if (qmax == 0) return 0.0f;
  return scale / static_cast<float>(qmax);
}

PostingFormat MakeWriterFormat(const PostingCodec* codec,
                               const PostingFormatSpec& spec,
                               const std::vector<Posting>& postings,
                               bool delta_encode_ids) {
  PostingFormat format;
  format.codec = codec;
  format.ranks = spec.ranks;
  format.rank_scale = spec.ranks == RankEncoding::kFloat32
                          ? 1.0f
                          : ComputeRankScale(postings);
  format.delta_encode_ids = delta_encode_ids;
  format.vbmw_lambda_milli = spec.vbmw_lambda_milli;
  return format;
}

float ComputeRankScale(const std::vector<Posting>& postings) {
  float scale = 0.0f;
  for (const Posting& posting : postings) {
    if (std::isfinite(posting.elem_rank) && posting.elem_rank > scale) {
      scale = posting.elem_rank;
    }
  }
  return scale > 0.0f ? scale : 1.0f;
}

}  // namespace xrank::index
