#include "index/block_cache.h"

#include <algorithm>
#include <atomic>

namespace xrank::index {

namespace {

constexpr size_t kMinBytesPerShard = 64 * 1024;
constexpr size_t kMaxShards = 8;

size_t ResolveShardCount(size_t capacity_bytes, size_t num_shards) {
  if (capacity_bytes == 0) return 1;
  if (num_shards > 0) return num_shards;
  size_t auto_shards = capacity_bytes / kMinBytesPerShard;
  return std::clamp<size_t>(auto_shards, 1, kMaxShards);
}

}  // namespace

BlockCache::BlockCache(size_t capacity_bytes, size_t num_shards)
    : registry_hits_(
          metrics::Registry::Instance().GetCounter("block_cache.hits")),
      registry_misses_(
          metrics::Registry::Instance().GetCounter("block_cache.misses")),
      registry_insertions_(
          metrics::Registry::Instance().GetCounter("block_cache.insertions")),
      registry_evictions_(
          metrics::Registry::Instance().GetCounter("block_cache.evictions")),
      registry_bytes_(
          metrics::Registry::Instance().GetGauge("block_cache.bytes")),
      registry_invalidations_(metrics::Registry::Instance().GetCounter(
          "cache.segment_invalidations")) {
  size_t shards = ResolveShardCount(capacity_bytes, num_shards);
  shard_capacity_bytes_ = capacity_bytes / shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t BlockCache::BlockCharge(const Block& block) {
  size_t charge = sizeof(Block) + block.capacity() * sizeof(Posting);
  for (const Posting& posting : block) {
    charge += posting.id.components().capacity() * sizeof(uint32_t);
    charge += posting.positions.capacity() * sizeof(uint32_t);
  }
  return charge;
}

BlockCache::Shard& BlockCache::ShardFor(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

BlockCache::BlockPtr BlockCache::Lookup(const Key& key) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  if (shard_capacity_bytes_ == 0) {
    registry_misses_->Increment();
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    registry_misses_->Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  registry_hits_->Increment();
  return it->second->block;
}

void BlockCache::Insert(const Key& key, std::shared_ptr<Block> block) {
  if (shard_capacity_bytes_ == 0 || block == nullptr) return;
  size_t charge = BlockCharge(*block);
  if (charge > shard_capacity_bytes_) return;
  Shard& shard = ShardFor(key);
  int64_t bytes_delta = 0;
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: same immutable file bytes decode to the same block, but
      // replace anyway so a re-inserted block's charge stays accurate.
      bytes_delta -= static_cast<int64_t>(it->second->charge);
      it->second->block = std::move(block);
      it->second->charge = charge;
      bytes_delta += static_cast<int64_t>(charge);
      shard.charged_bytes =
          static_cast<size_t>(static_cast<int64_t>(shard.charged_bytes) +
                              bytes_delta);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      while (!shard.lru.empty() &&
             shard.charged_bytes + charge > shard_capacity_bytes_) {
        const Entry& victim = shard.lru.back();
        shard.charged_bytes -= victim.charge;
        bytes_delta -= static_cast<int64_t>(victim.charge);
        shard.index.erase(victim.key);
        shard.lru.pop_back();
        ++evicted;
      }
      shard.lru.push_front(Entry{key, std::move(block), charge});
      shard.index.emplace(key, shard.lru.begin());
      shard.charged_bytes += charge;
      bytes_delta += static_cast<int64_t>(charge);
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  registry_insertions_->Increment();
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    registry_evictions_->Increment(evicted);
  }
  registry_bytes_->Add(bytes_delta);
}

void BlockCache::Clear() {
  const size_t capacity = shard_capacity_bytes_ * shards_.size();
  for (auto& shard : shards_) {
    std::list<Entry> dropped;
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      registry_bytes_->Add(-static_cast<int64_t>(shard->charged_bytes));
      shard->charged_bytes = 0;
      dropped.swap(shard->lru);
      shard->index.clear();
    }
    // Out of the index, a block with no other owner can gain none: it is
    // safe to recycle. A block a cursor still pins stays with the cursor.
    std::lock_guard<std::mutex> lock(spare_mutex_);
    for (Entry& entry : dropped) {
      if (entry.block.use_count() != 1 ||
          spare_bytes_ + entry.charge > capacity) {
        continue;
      }
      // use_count() is a relaxed read; the fence orders the last other
      // owner's reads of the block before the next decode's writes to it.
      std::atomic_thread_fence(std::memory_order_acquire);
      spare_bytes_ += entry.charge;
      // Insert only accepts mutable blocks; the cache hands out const views.
      spare_.push_back(Spare{std::const_pointer_cast<Block>(
                                 std::move(entry.block)),
                             entry.charge});
    }
  }
}

std::shared_ptr<BlockCache::Block> BlockCache::NewBlock() {
  {
    std::lock_guard<std::mutex> lock(spare_mutex_);
    if (!spare_.empty()) {
      Spare spare = std::move(spare_.back());
      spare_.pop_back();
      spare_bytes_ -= spare.charge;
      return std::move(spare.block);
    }
  }
  return std::make_shared<Block>();
}

size_t BlockCache::EraseFile(uint64_t file_id) {
  size_t erased = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->key.file_id != file_id) {
        ++it;
        continue;
      }
      shard->charged_bytes -= it->charge;
      registry_bytes_->Add(-static_cast<int64_t>(it->charge));
      shard->index.erase(it->key);
      it = shard->lru.erase(it);
      ++erased;
    }
  }
  if (erased > 0) registry_invalidations_->Increment(erased);
  return erased;
}

size_t BlockCache::cached_blocks() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->index.size();
  }
  return total;
}

size_t BlockCache::charged_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->charged_bytes;
  }
  return total;
}

}  // namespace xrank::index
