#include "query/dewey_stack.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/check.h"

namespace xrank::query {

DeweyStackMerger::DeweyStackMerger(size_t num_keywords,
                                   const ScoringOptions& scoring,
                                   size_t min_result_depth,
                                   TopKAccumulator* accumulator)
    : num_keywords_(num_keywords),
      scoring_(scoring),
      min_result_depth_(std::max<size_t>(min_result_depth, 1)),
      accumulator_(accumulator) {
  XRANK_CHECK(num_keywords_ > 0, "merger needs at least one keyword");
  XRANK_CHECK(accumulator_ != nullptr, "merger needs an accumulator");
}

DeweyStackMerger::DeweyStackMerger(size_t num_keywords,
                                   const ScoringOptions& scoring,
                                   size_t min_result_depth, Callback callback)
    : num_keywords_(num_keywords),
      scoring_(scoring),
      min_result_depth_(std::max<size_t>(min_result_depth, 1)),
      callback_(std::move(callback)) {
  XRANK_CHECK(num_keywords_ > 0, "merger needs at least one keyword");
}

void DeweyStackMerger::PushFrame(uint32_t component) {
  const size_t depth = path_.size();
  path_.push_back(component);
  if (flags_.size() <= depth) {
    flags_.resize(depth + 1);
    ranks_.resize((depth + 1) * num_keywords_);
    positions_.resize((depth + 1) * num_keywords_);
  }
  flags_[depth] = FrameFlags{};
}

void DeweyStackMerger::Touch(size_t depth) {
  if (flags_[depth].touched) return;
  flags_[depth].touched = true;
  const size_t base = depth * num_keywords_;
  std::fill_n(ranks_.begin() + base, num_keywords_, 0.0);
  for (size_t k = 0; k < num_keywords_; ++k) positions_[base + k].clear();
}

void DeweyStackMerger::Emit(size_t present) {
  const size_t depth = path_.size();
  const size_t base = (depth - 1) * num_keywords_;
  std::span<const double> ranks(ranks_.data() + base, num_keywords_);
  std::span<const std::vector<uint32_t>> positions(positions_.data() + base,
                                                   num_keywords_);
  if (callback_) {
    CandidateResult candidate;
    candidate.id = dewey::DeweyId(path_);
    candidate.keyword_ranks.assign(ranks.begin(), ranks.end());
    // Under disjunctive semantics the window covers only the keywords
    // that are present.
    candidate.window = MinimalWindowSizeOfPresent(positions, &window_scratch_);
    double proximity =
        ProximityFromWindow(scoring_.proximity, candidate.window, present);
    candidate.overall_rank = CombineRanks(ranks, proximity);
    callback_(candidate);
    return;
  }
  // Proximity is at most 1, so the keyword-rank sum bounds the rank (and
  // sum·p rounds to at most sum): below the local m-th rank, neither the
  // window nor the id is worth building. A seen-tracking accumulator must
  // record every evaluated element (RDIL / HDIL skip re-verifying them),
  // so it is offered all of them.
  const double bar = accumulator_->tracks_seen()
                         ? -std::numeric_limits<double>::infinity()
                         : accumulator_->LocalKthRank();
  const double sum = SumRanks(ranks);
  if (sum < bar) return;
  double proximity = 1.0;
  if (scoring_.proximity != ProximityMode::kAlwaysOne) {
    uint32_t window = MinimalWindowSizeOfPresent(positions, &window_scratch_);
    proximity = ProximityFromWindow(scoring_.proximity, window, present);
  }
  const double rank = sum * proximity;
  if (rank < bar) return;
  candidate_id_.AssignComponents(path_.data(), path_.size());
  accumulator_->Add(candidate_id_, rank);
}

void DeweyStackMerger::PopFrame() {
  const size_t depth = path_.size();
  const size_t base = (depth - 1) * num_keywords_;
  FrameFlags& frame = flags_[depth - 1];

  // An untouched frame holds nothing: it neither qualifies nor propagates.
  size_t present = 0;
  if (frame.touched) {
    for (size_t k = 0; k < num_keywords_; ++k) {
      if (!positions_[base + k].empty()) ++present;
    }
  }
  bool qualifies =
      scoring_.semantics == QuerySemantics::kConjunctive
          ? present == num_keywords_
          : present > 0;

  if (qualifies) {
    // Figure 5 lines 15-18: the element contains every keyword
    // (conjunctive) / at least one keyword (disjunctive).
    frame.contains_all = true;
    if (depth >= min_result_depth_) Emit(present);
  } else if (frame.touched && !frame.contains_all && depth > 1) {
    // Lines 19-22: partial occurrences flow into the parent with one level
    // of decay; position lists accumulate.
    Touch(depth - 2);
    const size_t parent = base - num_keywords_;
    for (size_t k = 0; k < num_keywords_; ++k) {
      if (ranks_[base + k] > 0.0) {
        ranks_[parent + k] =
            AggregateRank(scoring_.aggregation, ranks_[parent + k],
                          ranks_[base + k] * scoring_.decay);
      }
      const std::vector<uint32_t>& from = positions_[base + k];
      positions_[parent + k].insert(positions_[parent + k].end(),
                                    from.begin(), from.end());
    }
  }
  // Line 23: an element in R0 poisons its ancestors' propagation — their
  // occurrences via this subtree are excluded (Section 2.2's c ∉ R0).
  if (frame.contains_all && depth > 1) flags_[depth - 2].contains_all = true;
  path_.pop_back();
}

void DeweyStackMerger::Add(size_t keyword_index,
                           const index::Posting& posting) {
  XRANK_CHECK(!flushed_, "Add after Flush");
  XRANK_CHECK(keyword_index < num_keywords_, "keyword index out of range");
  const dewey::DeweyId& id = posting.id;
  XRANK_DCHECK(!id.empty(), "posting with empty Dewey ID");
  ++postings_consumed_;

  // Longest common prefix with the current stack (Figure 5 lines 10-11).
  size_t lcp = 0;
  size_t limit = std::min(path_.size(), id.depth());
  while (lcp < limit && path_[lcp] == id.component(lcp)) ++lcp;

  // Pop the non-matching tail (lines 12-24).
  while (path_.size() > lcp) PopFrame();

  // Push the non-matching part of the new ID (lines 25-28).
  for (size_t i = lcp; i < id.depth(); ++i) PushFrame(id.component(i));

  // Lines 29-31: attach this posting's rank and positions to the top frame.
  Touch(path_.size() - 1);
  const size_t slot = (path_.size() - 1) * num_keywords_ + keyword_index;
  ranks_[slot] = AggregateRank(scoring_.aggregation, ranks_[slot],
                               static_cast<double>(posting.elem_rank));
  positions_[slot].insert(positions_[slot].end(), posting.positions.begin(),
                          posting.positions.end());
}

void DeweyStackMerger::Flush() {
  if (flushed_) return;
  flushed_ = true;
  while (!path_.empty()) PopFrame();
}

}  // namespace xrank::query
