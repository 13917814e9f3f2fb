#include "query/result_heap.h"

#include <algorithm>

#include "common/check.h"

namespace xrank::query {

namespace {

// Result order: rank descending, then id ascending.
bool Better(const RankedResult& a, const RankedResult& b) {
  if (a.rank != b.rank) return a.rank > b.rank;
  return a.id < b.id;
}

}  // namespace

void TopKAccumulator::Add(const dewey::DeweyId& id, double rank) {
  // Without seen-tracking any id may be a repeat; with it, only one the
  // set already holds.
  bool maybe_repeat = !track_seen_ || !seen_.insert(id).second;
  if (m_ == 0) return;
  const bool full = heap_.size() == m_;
  if (full) {
    const RankedResult& worst = heap_.front();
    if (rank < worst.rank || (rank == worst.rank && !(id < worst.id))) {
      return;  // not admitted; a kept copy of `id` already ranks higher
    }
  }
  if (maybe_repeat) {
    for (RankedResult& entry : heap_) {
      if (entry.id != id) continue;
      if (rank > entry.rank) {
        entry.rank = rank;
        std::make_heap(heap_.begin(), heap_.end(), Better);
        if (shared_ != nullptr && full) shared_->Raise(heap_.front().rank);
      }
      return;
    }
  }
  if (full) {
    // Replace the worst entry in place, reusing its id's storage.
    std::pop_heap(heap_.begin(), heap_.end(), Better);
    heap_.back().id = id;
    heap_.back().rank = rank;
  } else {
    heap_.push_back(RankedResult{id, rank});
  }
  std::push_heap(heap_.begin(), heap_.end(), Better);
  if (shared_ != nullptr && heap_.size() == m_) {
    shared_->Raise(heap_.front().rank);
  }
}

void TopKAccumulator::MarkSeen(const dewey::DeweyId& id) {
  XRANK_DCHECK(track_seen_, "MarkSeen needs seen-tracking");
  seen_.insert(id);
}

bool TopKAccumulator::Contains(const dewey::DeweyId& id) const {
  XRANK_DCHECK(track_seen_, "Contains needs seen-tracking");
  return seen_.count(id) > 0;
}

size_t TopKAccumulator::CountAtLeast(double threshold) const {
  size_t count = 0;
  for (const RankedResult& entry : heap_) {
    if (entry.rank >= threshold) ++count;
  }
  return count;
}

double TopKAccumulator::KthRank() const {
  double theta = LocalKthRank();
  if (shared_ != nullptr) {
    double floor = shared_->Get();
    if (floor > theta) theta = floor;
  }
  return theta;
}

std::vector<RankedResult> TopKAccumulator::TakeTop() const {
  std::vector<RankedResult> results = heap_;
  std::sort(results.begin(), results.end(), Better);
  return results;
}

}  // namespace xrank::query
