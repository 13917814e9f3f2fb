#include "query/hdil_query.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/timer.h"
#include "index/block_cache.h"
#include "query/dewey_stack.h"
#include "query/dil_query.h"
#include "query/result_heap.h"
#include "query/trace.h"
#include "storage/btree.h"

namespace xrank::query {

namespace {

// The adaptive RDIL→DIL switch of paper Section 4.4.2 is re-evaluated every
// this many threshold rounds (scaled by the keyword count). The first check
// must come late enough that one-off startup costs (first B+-tree levels,
// first list pages) do not pollute the per-result estimate.
constexpr uint64_t kCheckInterval = 16;

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

// DIL's cost is predictable a priori (paper Section 4.4.2): the merge scans
// each keyword's list once, in page order. The first page of a list is a
// seek and every later page extends that scan, as CostModel::RecordRead
// charges them on a cold cache.
double PredictDilCost(const std::vector<const index::TermInfo*>& infos,
                      const storage::CostModelOptions& weights) {
  double cost = 0.0;
  for (const index::TermInfo* info : infos) {
    if (info->list.page_count == 0) continue;
    cost += weights.random_read_cost +
            weights.sequential_read_cost * (info->list.page_count - 1);
  }
  return cost;
}

// A floor under the cost of RDIL mode's first round, one pass over the n
// rank-prefix lists. Short of a deadline the loop cannot end sooner: the
// threshold test needs an entry from every list, no prefix of a non-empty
// list is empty, and no check runs before round 8.
// The pass reads the first page of each of the n prefix runs (n seeks).
// Its first entry alone is then probed against the other n - 1 keywords;
// each probe (HdilLongestCommonPrefix) descends that keyword's sparse
// B+-tree from its root and reads at least one page of its full list.
// Counting one seek per probed keyword (small trees may share a root
// page, so the roots alone are not counted apart) gives n - 1 more. Later
// probes, inner tree levels and verification scans only add to this.
double RdilFirstRoundFloor(size_t n, const storage::CostModelOptions& weights) {
  return weights.random_read_cost * static_cast<double>(2 * n - 1);
}

// Answers the query with the DIL merge's results, adding its counters to
// those of the RDIL phase (none when DIL was chosen up front).
void AdoptDilResponse(QueryResponse dil_response, QueryResponse* response) {
  response->results = std::move(dil_response.results);
  QueryStats& stats = response->stats;
  stats.postings_scanned += dil_response.stats.postings_scanned;
  stats.pages_skipped += dil_response.stats.pages_skipped;
  stats.blocks_pruned += dil_response.stats.blocks_pruned;
  stats.docs_skipped += dil_response.stats.docs_skipped;
  stats.pivot_advances += dil_response.stats.pivot_advances;
  stats.block_cache_hits += dil_response.stats.block_cache_hits;
  stats.algorithm = dil_response.stats.algorithm;
  stats.switched_to_dil = true;
  stats.partial = dil_response.stats.partial;
}

}  // namespace

Result<size_t> HdilLongestCommonPrefix(storage::BufferPool* pool,
                                       const index::Lexicon* lexicon,
                                       const index::TermInfo& info,
                                       const dewey::DeweyId& key) {
  if (info.btree_root == storage::kInvalidRef || info.list.entry_count == 0) {
    return static_cast<size_t>(0);
  }
  storage::BtreeReader sparse(pool, info.btree_root);
  XRANK_ASSIGN_OR_RETURN(storage::SeekResult seek, sparse.SeekCeil(key));

  // The Dewey-order neighbours of `key` live on the last list page whose
  // first ID precedes key (pred) or on the following page (ceil); scan both
  // pages of the full list — they are the "leaf level" of this tree.
  std::vector<uint32_t> pages;
  if (seek.has_pred) pages.push_back(static_cast<uint32_t>(seek.pred.value));
  if (seek.has_ceil) pages.push_back(static_cast<uint32_t>(seek.ceil.value));
  size_t best = 0;
  for (uint32_t page : pages) {
    index::PostingListCursor cursor(
        pool, info.list, lexicon->ListFormat(info, /*delta_encode_ids=*/true));
    XRANK_RETURN_NOT_OK(cursor.SeekToPage(page));
    index::Posting posting;
    for (;;) {
      XRANK_ASSIGN_OR_RETURN(bool has, cursor.Next(&posting));
      if (!has) break;
      best = std::max(best, key.CommonPrefixLength(posting.id));
      if (cursor.current_page_index() != page) break;
    }
  }
  return best;
}

Status HdilScanPrefix(
    storage::BufferPool* pool, const index::Lexicon* lexicon,
    const index::TermInfo& info, const dewey::DeweyId& prefix,
    const std::function<bool(const index::Posting&)>& fn) {
  if (info.btree_root == storage::kInvalidRef || info.list.entry_count == 0) {
    return Status::OK();
  }
  storage::BtreeReader sparse(pool, info.btree_root);
  XRANK_ASSIGN_OR_RETURN(storage::SeekResult seek, sparse.SeekCeil(prefix));
  uint32_t start_page;
  if (seek.has_pred) {
    start_page = static_cast<uint32_t>(seek.pred.value);
  } else if (seek.has_ceil) {
    start_page = static_cast<uint32_t>(seek.ceil.value);
  } else {
    return Status::OK();
  }
  index::PostingListCursor cursor(
      pool, info.list, lexicon->ListFormat(info, /*delta_encode_ids=*/true));
  XRANK_RETURN_NOT_OK(cursor.SeekToPage(start_page));
  index::Posting posting;
  for (;;) {
    XRANK_ASSIGN_OR_RETURN(bool has, cursor.Next(&posting));
    if (!has) return Status::OK();
    if (prefix.IsPrefixOf(posting.id)) {
      if (!fn(posting)) return Status::OK();
    } else if (prefix < posting.id) {
      return Status::OK();  // past the subtree
    }
  }
}

HdilQueryProcessor::HdilQueryProcessor(storage::BufferPool* pool,
                                       const index::Lexicon* lexicon,
                                       const ScoringOptions& scoring,
                                       index::BlockCache* block_cache)
    : pool_(pool),
      lexicon_(lexicon),
      scoring_(scoring),
      block_cache_(block_cache) {}

Result<QueryResponse> HdilQueryProcessor::ExecuteDil(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options, QueryDeadline* deadline) {
  DilQueryProcessor dil(pool_, lexicon_, scoring_, /*use_skip_blocks=*/true,
                        block_cache_);
  return dil.Execute(keywords, m, options, deadline);
}

Result<QueryResponse> HdilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  if (scoring_.semantics == QuerySemantics::kDisjunctive) {
    // The threshold algorithm here assumes conjunctive semantics (paper
    // Section 4.3). Disjunctive queries run on the same lists through the
    // DIL processor, which picks a pruned merge (MaxScore / WAND / BMW)
    // or the exhaustive oracle per QueryOptions::algorithm.
    QueryDeadline deadline(options);
    return ExecuteDil(keywords, m, options, &deadline);
  }
  WallTimer timer;
  const storage::CostModel* model = pool_->cost_model();
  CostSnapshot before = TakeSnapshot(model);
  QueryResponse response;
  QueryTrace* trace = options.trace;
  size_t n = keywords.size();
  auto finish = [&]() {
    response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
    FillIoStats(model, before, &response.stats);
    return std::move(response);
  };

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
  QueryDeadline deadline(options);

  // Plan choice. When even RDIL's first round costs at least DIL's whole
  // scan, RDIL cannot win: serve the query with the DIL merge at once.
  // Such a query reports switched_to_dil with zero rounds, and its DIL
  // spans nest under dil_direct instead of dil_fallback.
  const storage::CostModelOptions weights =
      model != nullptr ? model->options() : storage::CostModelOptions{};
  const double dil_cost_estimate = PredictDilCost(infos, weights);
  if (RdilFirstRoundFloor(n, weights) >= dil_cost_estimate) {
    ScopedSpan span(trace, "dil_direct");
    XRANK_ASSIGN_OR_RETURN(QueryResponse dil_response,
                           ExecuteDil(keywords, m, options, &deadline));
    AdoptDilResponse(std::move(dil_response), &response);
    return finish();
  }

  std::vector<index::PostingListCursor> rank_cursors;
  rank_cursors.reserve(n);
  {
    ScopedSpan span(trace, "cursor_open");
    for (size_t k = 0; k < n; ++k) {
      rank_cursors.emplace_back(
          pool_, infos[k]->rank_list,
          lexicon_->ListFormat(*infos[k], /*delta_encode_ids=*/false));
      rank_cursors.back().set_block_cache(block_cache_);
    }
  }
  std::vector<QueryTrace::TermStats> term_stats(trace != nullptr ? n : 0);

  TopKAccumulator accumulator(m);
  if (options.shared_threshold != nullptr) {
    accumulator.AttachShared(options.shared_threshold);
  }

  auto verify = [&](const dewey::DeweyId& lcp) -> Status {
    struct Hit {
      size_t keyword;
      index::Posting posting;
    };
    std::vector<Hit> hits;
    for (size_t k = 0; k < n; ++k) {
      size_t before_scan = hits.size();
      XRANK_RETURN_NOT_OK(HdilScanPrefix(
          pool_, lexicon_, *infos[k], lcp,
          [&](const index::Posting& posting) {
            hits.push_back(Hit{k, posting});
            return true;
          }));
      if (trace != nullptr) {
        term_stats[k].postings_read += hits.size() - before_scan;
      }
    }
    response.stats.postings_scanned += hits.size();
    std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
      if (a.posting.id != b.posting.id) return a.posting.id < b.posting.id;
      return a.keyword < b.keyword;
    });
    DeweyStackMerger merger(n, scoring_, /*min_result_depth=*/lcp.depth(),
                            [&](const CandidateResult& candidate) {
                              accumulator.Add(candidate.id,
                                              candidate.overall_rank);
                            });
    for (const Hit& hit : hits) merger.Add(hit.keyword, hit.posting);
    merger.Flush();
    accumulator.MarkSeen(lcp);
    return Status::OK();
  };

  // --- RDIL mode over the rank-ordered prefix lists ---
  ScopedSpan merge_span(trace, "merge");
  std::vector<double> last_rank(n, std::numeric_limits<double>::infinity());
  size_t next_list = 0;
  bool switch_to_dil = false;
  bool done = false;
  bool expired = false;

  while (!done && !switch_to_dil) {
    Status tick = deadline.Check();
    if (!tick.ok()) {
      if (!options.allow_partial_results) return tick;
      expired = true;  // serve RDIL's accumulator; never start the rescan
      break;
    }
    size_t k = next_list;
    next_list = (next_list + 1) % n;

    index::Posting entry;
    XRANK_ASSIGN_OR_RETURN(bool has, rank_cursors[k].Next(&entry));
    if (!has) {
      // A prefix that holds the keyword's whole list has had every entry's
      // lcp verified, and every answer contains an occurrence of this
      // keyword whose lcp is that answer or lies below it: the accumulator
      // already holds the exact top-m.
      if (infos[k]->rank_list.entry_count == infos[k]->list.entry_count) {
        done = true;
        break;
      }
      // A partial prefix only covers the top of its list: once it runs dry
      // the threshold cannot drop further, so fall back to DIL (Section
      // 4.4.2's low-correlation case).
      switch_to_dil = true;
      break;
    }
    ++response.stats.postings_scanned;
    ++response.stats.rounds;
    if (trace != nullptr) ++term_stats[k].postings_read;
    last_rank[k] = entry.elem_rank;

    size_t lcp_len = entry.id.depth();
    for (size_t j = 0; j < n && lcp_len > 0; ++j) {
      if (j == k) continue;
      XRANK_ASSIGN_OR_RETURN(size_t cpl,
                             HdilLongestCommonPrefix(pool_, lexicon_,
                                                     *infos[j], entry.id));
      ++response.stats.btree_probes;
      if (trace != nullptr) ++term_stats[j].btree_probes;
      lcp_len = std::min(lcp_len, cpl);
    }
    if (lcp_len >= 1) {
      dewey::DeweyId lcp = entry.id.Prefix(lcp_len);
      if (!accumulator.Contains(lcp)) {
        XRANK_RETURN_NOT_OK(verify(lcp));
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
      break;
    }

    // Adaptive strategy (Section 4.4.2): estimate RDIL's remaining time as
    // (m - r) * t / r and compare against DIL's predictable full-scan cost,
    // the same estimate the plan choice above used.
    // Rounds are split round-robin over n lists, so the interval between
    // checks scales with n to see the same per-list progress.
    // The time t is measured in deterministic cost-model units, the same
    // units DIL's budget is predicted in (the paper's implementation used
    // wall-clock time).
    uint64_t interval = std::max<uint64_t>(8, kCheckInterval * n / 2);
    if (bounded && response.stats.rounds % interval == 0) {
      double r = static_cast<double>(accumulator.CountAtLeast(threshold));
      if (r == 0.0) {
        // The paper's estimator diverges at r = 0: no result has cleared
        // the threshold after a full check interval, the signature of
        // uncorrelated keywords — switch immediately.
        switch_to_dil = true;
      } else if (model != nullptr) {
        double t = model->TotalCost() - before.cost;
        double estimate = (static_cast<double>(m) - r) * t / r;
        if (estimate > dil_cost_estimate) switch_to_dil = true;
      }
    }
  }

  merge_span.End();
  // The per-term stats of the TA phase are recorded whether or not the
  // query falls back: the fallback's DIL cursors append their own rows.
  if (trace != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      term_stats[k].term = keywords[k];
      term_stats[k].codec = std::string(lexicon_->codec_name());
      term_stats[k].block_cache_hits = rank_cursors[k].block_cache_hits();
      trace->AddTermStats(std::move(term_stats[k]));
    }
  }
  for (const index::PostingListCursor& cursor : rank_cursors) {
    response.stats.block_cache_hits += cursor.block_cache_hits();
  }
  if (switch_to_dil) {
    // The fallback rescans under the SAME deadline object, so the overall
    // budget is honored even when the switch happens late. Its spans nest
    // under dil_fallback in the trace.
    ScopedSpan span(trace, "dil_fallback");
    XRANK_ASSIGN_OR_RETURN(QueryResponse dil_response,
                           ExecuteDil(keywords, m, options, &deadline));
    AdoptDilResponse(std::move(dil_response), &response);
  } else {
    ScopedSpan span(trace, "rank");
    response.results = accumulator.TakeTop();
    response.stats.partial = expired;
  }
  return finish();
}

}  // namespace xrank::query
