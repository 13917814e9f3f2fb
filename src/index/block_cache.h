#ifndef XRANK_INDEX_BLOCK_CACHE_H_
#define XRANK_INDEX_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "index/posting.h"
#include "storage/page.h"

namespace xrank::index {

// Decoded-posting-block cache: a sharded, byte-budgeted LRU over fully
// decoded posting pages, keyed by (PageFile::file_id, page id). Sits above
// the BufferPool on the Dewey fast path — the pool caches raw page bytes,
// this cache skips the varint + prefix-delta decode entirely for hot pages.
//
// Entries are immutable shared_ptr<const vector<Posting>>; a cursor can keep
// serving from a block after it has been evicted (the shared_ptr keeps it
// alive), so eviction never invalidates an in-flight reader.
//
// Consistency mirrors the result cache: index files are immutable after
// build, and every writer (DeleteDocument / CompactDeletions) clears the
// cache wholesale under the engine's exclusive state lock. Keys carry the
// process-unique file id, so blocks of a destroyed file can never alias a
// later file that reuses its page numbers.
class BlockCache {
 public:
  using Block = std::vector<Posting>;
  using BlockPtr = std::shared_ptr<const Block>;

  struct Key {
    uint64_t file_id = 0;
    storage::PageId page = 0;
    bool operator==(const Key& other) const = default;
  };

  // `capacity_bytes` == 0 builds a disabled cache (every Lookup misses,
  // Insert is a no-op); `num_shards` == 0 picks an automatic stripe count.
  explicit BlockCache(size_t capacity_bytes, size_t num_shards = 0);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // On hit, returns the cached block (promoted to most-recently-used);
  // nullptr on miss.
  BlockPtr Lookup(const Key& key);

  // Inserts the decoded block, evicting least-recently-used blocks of its
  // shard until the shard is back under its byte budget. Blocks larger than
  // a whole shard are not cached at all (they would evict everything for
  // one use).
  // Blocks are inserted mutable (NewBlock makes them) so that Clear() may
  // recycle them; readers only ever see them const.
  void Insert(const Key& key, std::shared_ptr<Block> block);

  // Drops every entry (writer-side wholesale invalidation, and the
  // engine's cold-cache mode before each query).
  void Clear();

  // A block to decode a missed page into. Blocks that Clear() dropped and
  // no reader still pins are kept, up to the cache's byte capacity, and
  // handed out here before any fresh one: decoding into a recycled block
  // reuses its postings' buffers, so after a cold-cache Clear the next
  // query's misses decode without allocating.
  std::shared_ptr<Block> NewBlock();

  // Drops only the entries of one page file — the per-segment invalidation
  // the live-update path uses when a flush or compaction retires a segment:
  // untouched segments (and the base index) keep their decoded blocks warm.
  // Counts the dropped blocks into cache.segment_invalidations and returns
  // the number dropped. File ids are process-unique, so a retired file's
  // keys can never alias a later file; erasing is about returning memory
  // promptly, not correctness.
  size_t EraseFile(uint64_t file_id);

  // Approximate memory charge of a decoded block: vector headers plus the
  // postings' inline and heap (positions) storage.
  static size_t BlockCharge(const Block& block);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }
  uint64_t insertions() const {
    return insertions_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t shard_count() const { return shards_.size(); }
  size_t cached_blocks() const;
  size_t charged_bytes() const;

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // Mix the two halves; file ids are small sequential integers.
      uint64_t h = key.file_id * 0x9e3779b97f4a7c15ull;
      h ^= static_cast<uint64_t>(key.page) + (h >> 29);
      return static_cast<size_t>(h * 0xbf58476d1ce4e5b9ull);
    }
  };

  struct Entry {
    Key key;
    BlockPtr block;
    size_t charge = 0;
  };

  struct Shard {
    std::mutex mutex;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    size_t charged_bytes = 0;
  };

  Shard& ShardFor(const Key& key);

  size_t shard_capacity_bytes_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Cleared, unpinned blocks awaiting reuse by NewBlock.
  struct Spare {
    std::shared_ptr<Block> block;
    size_t charge = 0;
  };
  std::mutex spare_mutex_;
  std::vector<Spare> spare_;
  size_t spare_bytes_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  // Process-wide aggregates mirroring the per-cache atomics above.
  metrics::Counter* registry_hits_;
  metrics::Counter* registry_misses_;
  metrics::Counter* registry_insertions_;
  metrics::Counter* registry_evictions_;
  metrics::Gauge* registry_bytes_;
  metrics::Counter* registry_invalidations_;
};

}  // namespace xrank::index

#endif  // XRANK_INDEX_BLOCK_CACHE_H_
