#ifndef XRANK_QUERY_DEWEY_STACK_H_
#define XRANK_QUERY_DEWEY_STACK_H_

#include <functional>
#include <vector>

#include "index/posting.h"
#include "query/proximity.h"
#include "query/result_heap.h"
#include "query/scoring.h"

namespace xrank::query {

// The Dewey-stack merge at the heart of DIL query processing (paper
// Figure 5), also reused by RDIL to verify a candidate subtree. Postings
// must be fed in global Dewey-ID order (across all keywords); the merger
// maintains the stack of components of the current ID, and popping a stack
// frame evaluates the corresponding element:
//
//  * if every keyword's position list is non-empty, the element contains
//    all query keywords — it is emitted as a result and marked ContainsAll
//    (it is in R0, so nothing propagates above it; Section 2.2's exclusion
//    of sub-elements already containing all keywords);
//  * otherwise, unless a descendant already contained all keywords, its
//    position lists and decay-scaled ranks merge into its parent
//    (implementing r(v,k) = ElemRank(v_t) · decay^(t-1), Section 2.3.2.1).
//
// Frames live in flat per-depth storage that is reused: a frame's slot
// keeps its buffers' capacity, so once the stack has reached the corpus
// depth the merge allocates only to grow a position list past its largest
// size so far. A pushed frame's ranks and positions are cleared only when
// something is first written to it; most ancestors on a deep path never
// are, so pushing and popping them costs a few flag writes.
class DeweyStackMerger {
 public:
  using Callback = std::function<void(const CandidateResult&)>;

  // Serving form: each qualifying element is ranked and offered to
  // `accumulator` (borrowed). Its Dewey id is built only when the rank is
  // not strictly below the accumulator's local m-th rank, the one case in
  // which the accumulator can admit it; the window is computed only when
  // the keyword-rank sum (the rank at proximity 1) clears that bar. A
  // seen-tracking accumulator is offered every element, so that Contains
  // answers for each one.
  //
  // Results shallower than `min_result_depth` components are suppressed
  // (RDIL verification must not emit ancestors of the verified subtree
  // root, whose other descendants were not scanned).
  DeweyStackMerger(size_t num_keywords, const ScoringOptions& scoring,
                   size_t min_result_depth, TopKAccumulator* accumulator);

  // Inspection form: every qualifying element is built in full (id,
  // keyword ranks, window, rank) and passed to `callback`.
  DeweyStackMerger(size_t num_keywords, const ScoringOptions& scoring,
                   size_t min_result_depth, Callback callback);

  // Feeds the next posting of keyword `keyword_index`. IDs must be
  // non-decreasing across calls; equal IDs for different keywords are fine.
  void Add(size_t keyword_index, const index::Posting& posting);

  // Signals end of input: pops and evaluates all remaining frames.
  void Flush();

  uint64_t postings_consumed() const { return postings_consumed_; }

 private:
  // Pushes a frame for `component` one level below the current top.
  void PushFrame(uint32_t component);
  // Clears frame `depth`'s ranks and positions on its first write.
  void Touch(size_t depth);
  // Pops the top frame, evaluating / propagating per Figure 5 lines 12-24.
  void PopFrame();
  // Ranks the qualifying element of the top frame (`present` keywords
  // held) and hands it to the accumulator or the callback.
  void Emit(size_t present);

  size_t num_keywords_;
  ScoringOptions scoring_;
  size_t min_result_depth_;
  TopKAccumulator* accumulator_ = nullptr;
  Callback callback_;

  // Frame d (0-based; frames [0, path_.size()) are live) owns slots
  // [d·n, (d+1)·n) of ranks_ and positions_ for n keywords.
  struct FrameFlags {
    bool contains_all = false;
    bool touched = false;  // ranks / positions written since the push
  };
  std::vector<uint32_t> path_;         // component per live frame
  std::vector<FrameFlags> flags_;      // per frame
  std::vector<double> ranks_;          // per frame × keyword, 0 = absent
  std::vector<std::vector<uint32_t>> positions_;  // per frame × keyword
  WindowScratch window_scratch_;
  dewey::DeweyId candidate_id_;  // reused storage for admitted ids
  uint64_t postings_consumed_ = 0;
  bool flushed_ = false;
};

}  // namespace xrank::query

#endif  // XRANK_QUERY_DEWEY_STACK_H_
