#ifndef XRANK_QUERY_RESULT_HEAP_H_
#define XRANK_QUERY_RESULT_HEAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "dewey/dewey_id.h"
#include "query/scoring.h"

namespace xrank::query {

// A monotonically rising top-k threshold shared by cooperating
// accumulators running on different threads — the shard router's θ
// forwarding. Each shard's accumulator publishes its running m-th-best
// rank here and prunes against the maximum of its local θ and this floor,
// so a shard that starts (or progresses) later inherits the bound already
// established elsewhere in the fleet.
//
// Soundness: any cooperating accumulator's m-th-best rank is a lower bound
// on the global m-th-best over the union of their document sets, and every
// pruning test in the merge algorithms is strictly-below-θ (ties are
// kept), so no element that belongs in the global top-m is ever pruned.
class SharedTopKThreshold {
 public:
  // Raises the floor to `theta` if it is higher; returns true when the
  // floor actually rose. Lock-free CAS-max — safe from any thread.
  bool Raise(double theta) {
    double current = theta_.load(std::memory_order_relaxed);
    while (theta > current) {
      if (theta_.compare_exchange_weak(current, theta,
                                       std::memory_order_relaxed)) {
        raises_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  double Get() const { return theta_.load(std::memory_order_relaxed); }

  // Number of successful raises — the θ-forwarding efficacy signal
  // surfaced by the router's counters.
  uint64_t raises() const { return raises_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> theta_{-std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> raises_{0};
};

// Accumulates query-result candidates into a bounded top-m: an m-entry
// heap ordered by rank descending, then Dewey id ascending (the order
// TakeTop returns). Answers the questions the algorithms ask: "what is the
// current m-th best rank?" (the pruning threshold θ), "do at least m
// candidates beat a threshold?" (the TA stopping condition, RDIL lines
// 26-28) and, when seen-tracking is on, "have we already evaluated this
// element?" (RDIL line 18).
//
// Admission rule: a candidate enters only if the heap has room or it beats
// the m-th entry — a higher rank, or an equal rank and a smaller id. Ties
// at the m-th rank therefore pass the rank test and are decided by id, so
// the kept set is exactly the first m of every candidate sorted by (rank
// desc, id asc). A candidate that loses can never come back: the m-th
// entry only improves. An id offered again keeps its higher rank; an id
// evicted earlier and offered again with a higher rank competes afresh
// (its evicted rank was already below the m-th). The result is the top m
// of the per-id maximum ranks, which is what keeping every candidate and
// sorting at the end returns.
class TopKAccumulator {
 public:
  // `track_seen` keeps the set of every id passed to Add or MarkSeen, which
  // Contains answers; only callers that ask Contains (RDIL / HDIL subtree
  // verification, Naive-Rank) pay for it.
  explicit TopKAccumulator(size_t m, bool track_seen = false)
      : m_(m), track_seen_(track_seen) {}

  // Joins a shared θ floor (see SharedTopKThreshold): KthRank() returns
  // the maximum of the local m-th-best and the shared floor, and every Add
  // that changes the local m-th-best publishes it. The accumulator itself
  // stays single-threaded; only the shared object is touched atomically.
  // Null (the default) detaches at zero cost.
  void AttachShared(SharedTopKThreshold* shared) { shared_ = shared; }

  // Offers a candidate under the admission rule above.
  void Add(const dewey::DeweyId& id, double rank);

  // Marks an id as evaluated without giving it a rank (an element probed
  // and rejected must not be verified again). Requires seen-tracking.
  void MarkSeen(const dewey::DeweyId& id);

  // Whether Add or MarkSeen saw `id`. Requires seen-tracking.
  bool Contains(const dewey::DeweyId& id) const;

  // Number of candidates with rank >= threshold, capped at m (the heap
  // holds at most m, and the best m are the ones that can count).
  size_t CountAtLeast(double threshold) const;

  // Rank of the current m-th best candidate — the pruning threshold θ: a
  // page run whose upper bound is strictly below θ cannot change the
  // top-m. -inf while fewer than m candidates are ranked (no pruning until
  // the heap is full).
  double KthRank() const;

  // The local m-th-best rank, ignoring any shared floor (-inf until m are
  // ranked). A candidate whose rank is strictly below it cannot be
  // admitted, so callers may skip building it. The shared floor must not
  // be used for that: it would drop candidates from this accumulator's own
  // top-m, and a shard's response must not depend on its peers.
  double LocalKthRank() const {
    if (m_ == 0 || heap_.size() < m_) {
      return -std::numeric_limits<double>::infinity();
    }
    return heap_.front().rank;
  }

  size_t m() const { return m_; }
  bool tracks_seen() const { return track_seen_; }

  // The top min(m, candidates) results, rank-descending (ties by id so
  // output is deterministic).
  std::vector<RankedResult> TakeTop() const;

 private:
  size_t m_;
  bool track_seen_;
  SharedTopKThreshold* shared_ = nullptr;
  // Heap whose front is the worst kept entry (the m-th best once full).
  std::vector<RankedResult> heap_;
  std::unordered_set<dewey::DeweyId, dewey::DeweyIdHash> seen_;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_RESULT_HEAP_H_
