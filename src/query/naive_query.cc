#include "query/naive_query.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/timer.h"
#include "index/naive_index.h"
#include "query/proximity.h"
#include "query/result_heap.h"
#include "query/trace.h"

namespace xrank::query {

namespace {

struct CostSnapshot {
  uint64_t sequential = 0;
  uint64_t random = 0;
  double cost = 0.0;
};

CostSnapshot TakeSnapshot(const storage::CostModel* model) {
  CostSnapshot snap;
  if (model != nullptr) {
    snap.sequential = model->sequential_reads();
    snap.random = model->random_reads();
    snap.cost = model->TotalCost();
  }
  return snap;
}

void FillIoStats(const storage::CostModel* model, const CostSnapshot& before,
                 QueryStats* stats) {
  if (model == nullptr) return;
  stats->sequential_reads = model->sequential_reads() - before.sequential;
  stats->random_reads = model->random_reads() - before.random;
  stats->io_cost = model->TotalCost() - before.cost;
}

// Naive scoring: no specificity decay — just the element's own ElemRank per
// keyword, summed and scaled by proximity (Section 4.1's "inaccurate
// ranking" baseline).
double NaiveScore(const std::vector<index::Posting>& postings,
                  const ScoringOptions& scoring) {
  std::vector<double> keyword_ranks;
  std::vector<std::vector<uint32_t>> positions;
  keyword_ranks.reserve(postings.size());
  positions.reserve(postings.size());
  for (const index::Posting& posting : postings) {
    keyword_ranks.push_back(static_cast<double>(posting.elem_rank));
    positions.push_back(posting.positions);
  }
  uint32_t window = MinimalWindowSize(positions);
  double proximity =
      ProximityFromWindow(scoring.proximity, window, postings.size());
  return CombineRanks(keyword_ranks, proximity);
}

}  // namespace

NaiveIdQueryProcessor::NaiveIdQueryProcessor(storage::BufferPool* pool,
                                             const index::Lexicon* lexicon,
                                             const ScoringOptions& scoring)
    : pool_(pool), lexicon_(lexicon), scoring_(scoring) {}

Result<QueryResponse> NaiveIdQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  if (scoring_.semantics == QuerySemantics::kDisjunctive) {
    return Status::Unimplemented(
        "disjunctive queries are evaluated via DIL (the threshold algorithm "
        "here assumes conjunctive semantics, paper Section 4.3)");
  }
  WallTimer timer;
  CostSnapshot before = TakeSnapshot(pool_->cost_model());
  QueryResponse response;
  QueryTrace* trace = options.trace;
  size_t n = keywords.size();

  std::vector<const index::TermInfo*> infos(n);
  {
    ScopedSpan span(trace, "lexicon");
    for (size_t k = 0; k < n; ++k) {
      infos[k] = lexicon_->Find(keywords[k]);
      if (infos[k] == nullptr) {
        response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
        return response;
      }
    }
  }
  std::vector<index::PostingListCursor> cursors;
  cursors.reserve(n);
  {
    ScopedSpan span(trace, "cursor_open");
    for (size_t k = 0; k < n; ++k) {
      cursors.emplace_back(
          pool_, infos[k]->list,
          lexicon_->ListFormat(*infos[k], /*delta_encode_ids=*/false));
    }
  }
  std::vector<QueryTrace::TermStats> term_stats(trace != nullptr ? n : 0);

  TopKAccumulator accumulator(m);
  if (options.shared_threshold != nullptr) {
    accumulator.AttachShared(options.shared_threshold);
  }
  std::vector<index::Posting> current(n);
  std::vector<bool> live(n, false);
  ScopedSpan merge_span(trace, "merge");
  for (size_t k = 0; k < n; ++k) {
    XRANK_ASSIGN_OR_RETURN(bool has, cursors[k].Next(&current[k]));
    live[k] = has;
    if (has) {
      ++response.stats.postings_scanned;
      if (trace != nullptr) ++term_stats[k].postings_read;
    }
  }

  // Equality merge join on the element ordinal: advance the smallest; when
  // all heads agree the element contains every keyword.
  QueryDeadline deadline(options);
  for (;;) {
    Status tick = deadline.Check();
    if (!tick.ok()) {
      if (!options.allow_partial_results) return tick;
      response.stats.partial = true;
      break;
    }
    bool any_dead = false;
    for (size_t k = 0; k < n; ++k) any_dead = any_dead || !live[k];
    if (any_dead) break;

    uint32_t max_ordinal = 0;
    bool all_equal = true;
    for (size_t k = 0; k < n; ++k) {
      uint32_t ordinal = current[k].id.component(0);
      if (k == 0) {
        max_ordinal = ordinal;
      } else if (ordinal != max_ordinal) {
        all_equal = false;
        max_ordinal = std::max(max_ordinal, ordinal);
      }
    }
    if (all_equal) {
      accumulator.Add(current[0].id, NaiveScore(current, scoring_));
      for (size_t k = 0; k < n; ++k) {
        XRANK_ASSIGN_OR_RETURN(bool has, cursors[k].Next(&current[k]));
        live[k] = has;
        if (has) {
          ++response.stats.postings_scanned;
          if (trace != nullptr) ++term_stats[k].postings_read;
        }
      }
      continue;
    }
    for (size_t k = 0; k < n; ++k) {
      while (live[k] && current[k].id.component(0) < max_ordinal) {
        XRANK_ASSIGN_OR_RETURN(bool has, cursors[k].Next(&current[k]));
        live[k] = has;
        if (has) {
          ++response.stats.postings_scanned;
          if (trace != nullptr) ++term_stats[k].postings_read;
        }
      }
    }
  }

  merge_span.End();
  {
    ScopedSpan span(trace, "rank");
    response.results = accumulator.TakeTop();
  }
  if (trace != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      term_stats[k].term = keywords[k];
      term_stats[k].codec = std::string(lexicon_->codec_name());
      trace->AddTermStats(std::move(term_stats[k]));
    }
  }
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(pool_->cost_model(), before, &response.stats);
  return response;
}

NaiveRankQueryProcessor::NaiveRankQueryProcessor(
    storage::BufferPool* pool, const index::Lexicon* lexicon,
    const ScoringOptions& scoring)
    : pool_(pool), lexicon_(lexicon), scoring_(scoring) {}

Result<QueryResponse> NaiveRankQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  if (scoring_.semantics == QuerySemantics::kDisjunctive) {
    return Status::Unimplemented(
        "disjunctive queries are evaluated via DIL (the threshold algorithm "
        "here assumes conjunctive semantics, paper Section 4.3)");
  }
  WallTimer timer;
  CostSnapshot before = TakeSnapshot(pool_->cost_model());
  QueryResponse response;
  QueryTrace* trace = options.trace;
  size_t n = keywords.size();

  std::vector<const index::TermInfo*> infos(n);
  {
    ScopedSpan span(trace, "lexicon");
    for (size_t k = 0; k < n; ++k) {
      infos[k] = lexicon_->Find(keywords[k]);
      if (infos[k] == nullptr) {
        response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
        return response;
      }
    }
  }
  std::vector<index::PostingListCursor> cursors;
  cursors.reserve(n);
  {
    ScopedSpan span(trace, "cursor_open");
    for (size_t k = 0; k < n; ++k) {
      cursors.emplace_back(
          pool_, infos[k]->list,
          lexicon_->ListFormat(*infos[k], /*delta_encode_ids=*/false));
    }
  }
  std::vector<QueryTrace::TermStats> term_stats(trace != nullptr ? n : 0);

  TopKAccumulator accumulator(m, /*track_seen=*/true);
  if (options.shared_threshold != nullptr) {
    accumulator.AttachShared(options.shared_threshold);
  }
  ScopedSpan merge_span(trace, "merge");
  QueryDeadline deadline(options);
  std::vector<double> last_rank(n, std::numeric_limits<double>::infinity());
  std::vector<bool> exhausted(n, false);
  size_t next_list = 0;
  bool done = false;

  while (!done) {
    Status tick = deadline.Check();
    if (!tick.ok()) {
      if (!options.allow_partial_results) return tick;
      response.stats.partial = true;
      break;
    }
    size_t k = n;
    for (size_t step = 0; step < n; ++step) {
      size_t candidate = (next_list + step) % n;
      if (!exhausted[candidate]) {
        k = candidate;
        break;
      }
    }
    if (k == n) break;
    next_list = (k + 1) % n;

    index::Posting entry;
    XRANK_ASSIGN_OR_RETURN(bool has, cursors[k].Next(&entry));
    if (!has) {
      exhausted[k] = true;
      continue;
    }
    ++response.stats.postings_scanned;
    ++response.stats.rounds;
    if (trace != nullptr) ++term_stats[k].postings_read;
    last_rank[k] = entry.elem_rank;

    if (!accumulator.Contains(entry.id)) {
      // Probe the other keywords' hash indexes for the same element ID —
      // no common-ancestor inference is needed because ancestors are
      // explicitly replicated (Section 5.1).
      uint32_t ordinal = entry.id.component(0);
      std::vector<index::Posting> postings(n);
      postings[k] = entry;
      bool in_all = true;
      for (size_t j = 0; j < n && in_all; ++j) {
        if (j == k) continue;
        ++response.stats.hash_probes;
        if (trace != nullptr) ++term_stats[j].hash_probes;
        XRANK_ASSIGN_OR_RETURN(
            std::optional<index::PostingLocation> loc,
            index::HashIndexLookup(pool_, *infos[j], ordinal));
        if (!loc.has_value()) {
          in_all = false;
          break;
        }
        XRANK_ASSIGN_OR_RETURN(
            postings[j],
            index::ReadPostingAt(
                pool_, infos[j]->list, *loc,
                lexicon_->ListFormat(*infos[j], /*delta_encode_ids=*/false)));
        ++response.stats.postings_scanned;
        if (trace != nullptr) ++term_stats[j].postings_read;
      }
      if (in_all) {
        accumulator.Add(entry.id, NaiveScore(postings, scoring_));
      } else {
        accumulator.MarkSeen(entry.id);
      }
    }

    double threshold = 0.0;
    bool bounded = true;
    for (size_t j = 0; j < n; ++j) {
      if (std::isinf(last_rank[j])) {
        bounded = false;
        break;
      }
      threshold += last_rank[j];
    }
    if (bounded && accumulator.CountAtLeast(threshold) >= m) {
      done = true;
      response.stats.threshold_terminated = true;
    }
  }

  merge_span.End();
  {
    ScopedSpan span(trace, "rank");
    response.results = accumulator.TakeTop();
  }
  if (trace != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      term_stats[k].term = keywords[k];
      term_stats[k].codec = std::string(lexicon_->codec_name());
      trace->AddTermStats(std::move(term_stats[k]));
    }
  }
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(pool_->cost_model(), before, &response.stats);
  return response;
}

}  // namespace xrank::query
