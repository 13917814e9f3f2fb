#include "query/dil_query.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/timer.h"
#include "index/block_cache.h"
#include "query/dewey_stack.h"
#include "query/disjunctive_merge.h"
#include "query/posting_cursor.h"
#include "query/result_heap.h"
#include "query/scored_cursor.h"
#include "query/trace.h"

namespace xrank::query {

namespace {

// Snapshot/diff helper shared by all processors.
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

}  // namespace

DilQueryProcessor::DilQueryProcessor(storage::BufferPool* pool,
                                     const index::Lexicon* lexicon,
                                     const ScoringOptions& scoring,
                                     bool use_skip_blocks,
                                     index::BlockCache* block_cache,
                                     bool use_block_max_pruning)
    : pool_(pool),
      lexicon_(lexicon),
      scoring_(scoring),
      use_skip_blocks_(use_skip_blocks),
      block_cache_(block_cache),
      use_block_max_pruning_(use_block_max_pruning) {}

Result<QueryResponse> DilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options) {
  QueryDeadline deadline(options);
  return Execute(keywords, m, options, &deadline);
}

Result<QueryResponse> DilQueryProcessor::Execute(
    const std::vector<std::string>& keywords, size_t m,
    const QueryOptions& options, QueryDeadline* deadline) {
  if (keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  WallTimer timer;
  CostSnapshot before = TakeSnapshot(pool_->cost_model());
  QueryResponse response;
  QueryTrace* trace = options.trace;

  const bool conjunctive = scoring_.semantics == QuerySemantics::kConjunctive;
  // Disjunctive / mixed merge strategy. Pruned algorithms need the skip
  // descriptors (targeted SkipToDocument advances and page-level bounds);
  // a processor built without them — the oracle configuration — always
  // merges exhaustively. Conjunctive queries default (kAuto) to the PR-5
  // DAAT path below; an explicit pruned-algorithm request routes them
  // through the disjunctive machinery instead (its per-document bounds are
  // sound for both semantics — "mixed mode").
  MergeAlgorithm algorithm = MergeAlgorithm::kExhaustive;
  if (use_skip_blocks_ && use_block_max_pruning_ &&
      !(conjunctive && options.algorithm == MergeAlgorithm::kAuto)) {
    algorithm =
        ResolveMergeAlgorithm(options.algorithm, scoring_, keywords.size());
  }
  const bool pruned_disjunctive = algorithm != MergeAlgorithm::kExhaustive;
  // The PR-5 conjunctive DAAT path (frontier alignment + run-widening
  // block-max pruning): the kAuto default for conjunctive queries, and the
  // fallback when a pruned algorithm was requested but cannot run (this
  // processor lacks pruning, or the scoring function has no sound bound) —
  // the request degrades to the next-fastest exact path, never silently to
  // the exhaustive merge. Only an explicit kExhaustive forces the oracle.
  const bool skipping = use_skip_blocks_ && conjunctive &&
                        !pruned_disjunctive &&
                        options.algorithm != MergeAlgorithm::kExhaustive;
  // Block-max pruning additionally needs the scoring function to be
  // dominated by the per-page rank maxima (max aggregation, decay <= 1).
  const bool pruning =
      skipping && use_block_max_pruning_ && SupportsBlockMaxPruning(scoring_);

  // A keyword absent from the collection empties the conjunction; under
  // disjunctive semantics it contributes an empty list and the union runs
  // over the terms this index has seen. The keyword keeps its scoring slot
  // either way, so an element's keyword-rank vector — and its aggregated
  // score — is bitwise what an index holding every term would compute (the
  // shard router's parity contract relies on this: a term missing from one
  // shard's lexicon is usually present in another's).
  std::vector<const index::TermInfo*> infos;  // present terms only
  std::vector<size_t> slots;                  // their original keyword slots
  infos.reserve(keywords.size());
  slots.reserve(keywords.size());
  {
    ScopedSpan span(trace, "lexicon");
    for (size_t k = 0; k < keywords.size(); ++k) {
      const index::TermInfo* info = lexicon_->Find(keywords[k]);
      if (info == nullptr) {
        if (conjunctive) {
          response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
          return response;
        }
        continue;
      }
      infos.push_back(info);
      slots.push_back(k);
    }
  }
  if (infos.empty()) {
    response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
    return response;
  }
  std::vector<PostingCursor> cursors;
  cursors.reserve(infos.size());
  {
    ScopedSpan span(trace, "cursor_open");
    for (const index::TermInfo* info : infos) {
      cursors.emplace_back(pool_, lexicon_, info, skipping || pruned_disjunctive,
                           block_cache_);
      cursors.back().set_deadline(deadline);
    }
  }

  TopKAccumulator accumulator(m);
  if (options.shared_threshold != nullptr) {
    accumulator.AttachShared(options.shared_threshold);
  }
  DeweyStackMerger merger(keywords.size(), scoring_, /*min_result_depth=*/1,
                          &accumulator);

  // Each cursor's current posting, in place in its pinned page.
  std::vector<const index::Posting*> current(cursors.size(), nullptr);
  std::vector<bool> live(cursors.size(), false);
  std::vector<PostingCursor::RankBound> bounds(cursors.size());
  PruningCounters counters;
  uint64_t& blocks_pruned = counters.blocks_pruned;

  response.stats.algorithm =
      skipping ? "daat" : MergeAlgorithmName(algorithm);
  if (trace != nullptr) {
    trace->AddAnnotation("merge", response.stats.algorithm);
  }

  // The merge runs inside a lambda so a DeadlineExceeded from any depth —
  // the per-iteration checks here or the skip scan inside PostingCursor —
  // unwinds to one place where the partial-results decision is made.
  ScopedSpan merge_span(trace, "merge");
  Status merge_status = [&]() -> Status {
    if (pruned_disjunctive) {
      std::vector<ScoredCursor> scored;
      scored.reserve(cursors.size());
      for (size_t k = 0; k < cursors.size(); ++k) {
        scored.emplace_back(&cursors[k], slots[k],
                            TermScoreBound(*infos[k], scoring_));
        XRANK_RETURN_NOT_OK(scored.back().Init());
      }
      switch (algorithm) {
        case MergeAlgorithm::kMaxScore:
          return MaxScoreMerge(&scored, scoring_, &merger, &accumulator,
                               deadline, &counters);
        case MergeAlgorithm::kWand:
        case MergeAlgorithm::kBlockMaxWand:
          return WandMerge(&scored, scoring_,
                           algorithm == MergeAlgorithm::kBlockMaxWand, &merger,
                           &accumulator, deadline, &counters);
        default:
          return Status::Internal("unresolved merge algorithm");
      }
    }

    for (size_t k = 0; k < cursors.size(); ++k) {
      XRANK_ASSIGN_OR_RETURN(bool has, cursors[k].Next(&current[k]));
      live[k] = has;
    }

    if (skipping) {
      // Document-at-a-time merge. The frontier is the largest current
      // document id across the cursors: no earlier document can hold all
      // the keywords, so the lagging cursors leap to it through the skip
      // blocks. Once every cursor stands on the frontier document, its
      // postings are fed in global Dewey order — exactly the subsequence of
      // the exhaustive merge that can produce results — and one exhausted
      // cursor ends the query.
      for (;;) {
        XRANK_RETURN_NOT_OK(deadline->Check());
        bool any_dead = false;
        uint32_t target = 0;
        for (size_t k = 0; k < cursors.size(); ++k) {
          if (!live[k]) {
            any_dead = true;
            break;
          }
          target = std::max(target, current[k]->id.document_id());
        }
        if (any_dead) break;

        bool aligned = true;
        for (size_t k = 0; k < cursors.size(); ++k) {
          if (current[k]->id.document_id() >= target) continue;
          XRANK_ASSIGN_OR_RETURN(
              bool has, cursors[k].SkipToDocument(target, &current[k]));
          live[k] = has;
          ++counters.pivot_advances;
          if (!has || current[k]->id.document_id() > target) aligned = false;
        }
        if (!aligned) continue;  // frontier moved — recompute it

        // Block-max pruning: every cursor stands on the frontier document.
        // Bound what any document in the runs ahead can score — Σ over
        // terms of the run's page maxima (keyword ranks are per-posting
        // maxima scaled by decay/proximity factors <= 1) — and when even
        // that cannot reach the current m-th result (strictly: ties are
        // never pruned, preserving tie-breaks by id), leap past the run
        // without decoding it. The runs are extended greedily, widest-
        // binding cursor first, while the bound stays under the threshold.
        if (pruning) {
          const double theta = accumulator.KthRank();
          if (std::isfinite(theta)) {
            bool bounded = true;
            double ub = 0.0;
            for (size_t k = 0; k < cursors.size(); ++k) {
              bounds[k] = cursors[k].DocumentRankBound(target);
              if (!bounds[k].valid) {
                bounded = false;  // a list without descriptors: no bound
                break;
              }
              ub += bounds[k].bound;
            }
            if (bounded && ub < theta) {
              ++counters.docs_skipped;
              constexpr uint32_t kNoDoc = std::numeric_limits<uint32_t>::max();
              for (;;) {
                XRANK_RETURN_NOT_OK(deadline->Check());
                // The cursor whose run ends first bounds how far everyone
                // can jump; try to widen exactly that run.
                size_t binding = 0;
                for (size_t k = 1; k < cursors.size(); ++k) {
                  if (bounds[k].next_doc < bounds[binding].next_doc) {
                    binding = k;
                  }
                }
                if (bounds[binding].next_doc == kNoDoc) break;
                double widened = std::max(
                    bounds[binding].bound,
                    cursors[binding].NextPageRank(bounds[binding]));
                if (ub - bounds[binding].bound + widened >= theta) break;
                ub += widened - bounds[binding].bound;
                cursors[binding].ExtendBound(&bounds[binding]);
              }
              uint32_t prune_to = kNoDoc;
              for (const PostingCursor::RankBound& bound : bounds) {
                prune_to = std::min(prune_to, bound.next_doc);
              }
              if (prune_to == kNoDoc) {
                // Every run extends to the end of its list: nothing left
                // can beat the top-m. Charge the never-read tails and stop.
                for (const PostingCursor& cursor : cursors) {
                  uint32_t last = cursor.extent().page_count;
                  if (last > cursor.current_page_index() + 1) {
                    blocks_pruned += last - cursor.current_page_index() - 1;
                  }
                }
                break;
              }
              uint64_t skipped_before = 0;
              for (const PostingCursor& cursor : cursors) {
                skipped_before += cursor.pages_skipped();
              }
              for (size_t k = 0; k < cursors.size(); ++k) {
                XRANK_ASSIGN_OR_RETURN(
                    bool has, cursors[k].SkipToDocument(prune_to, &current[k]));
                live[k] = has;
                ++counters.pivot_advances;
              }
              uint64_t skipped_after = 0;
              for (const PostingCursor& cursor : cursors) {
                skipped_after += cursor.pages_skipped();
              }
              blocks_pruned += skipped_after - skipped_before;
              continue;  // re-align on the new frontier
            }
          }
        }

        for (;;) {
          size_t smallest = cursors.size();
          for (size_t k = 0; k < cursors.size(); ++k) {
            if (!live[k] || current[k]->id.document_id() != target) continue;
            if (smallest == cursors.size() ||
                current[k]->id < current[smallest]->id) {
              smallest = k;
            }
          }
          if (smallest == cursors.size()) break;  // document fully merged
          merger.Add(slots[smallest], *current[smallest]);
          XRANK_ASSIGN_OR_RETURN(bool has,
                                 cursors[smallest].Next(&current[smallest]));
          live[smallest] = has;
        }
      }
    } else {
      // Exhaustive n-way merge by Dewey ID (Figure 5 lines 6-9): repeatedly
      // consume the cursor holding the smallest next ID.
      for (;;) {
        XRANK_RETURN_NOT_OK(deadline->Check());
        size_t smallest = cursors.size();
        for (size_t k = 0; k < cursors.size(); ++k) {
          if (!live[k]) continue;
          if (smallest == cursors.size() ||
              current[k]->id < current[smallest]->id) {
            smallest = k;
          }
        }
        if (smallest == cursors.size()) break;  // all lists exhausted
        merger.Add(slots[smallest], *current[smallest]);
        XRANK_ASSIGN_OR_RETURN(bool has,
                               cursors[smallest].Next(&current[smallest]));
        live[smallest] = has;
      }
    }
    return Status::OK();
  }();
  merge_span.End();
  if (!merge_status.ok()) {
    if (merge_status.code() != StatusCode::kDeadlineExceeded ||
        !options.allow_partial_results) {
      return merge_status;
    }
    response.stats.partial = true;  // serve the top-k gathered so far
  }
  {
    ScopedSpan span(trace, "rank");
    merger.Flush();
    response.results = accumulator.TakeTop();
  }
  response.stats.postings_scanned = merger.postings_consumed();
  response.stats.blocks_pruned = blocks_pruned;
  response.stats.docs_skipped = counters.docs_skipped;
  response.stats.pivot_advances = counters.pivot_advances;
  for (size_t k = 0; k < cursors.size(); ++k) {
    response.stats.pages_skipped += cursors[k].pages_skipped();
    response.stats.block_cache_hits += cursors[k].block_cache_hits();
    if (trace != nullptr) {
      QueryTrace::TermStats term;
      term.term = keywords[slots[k]];
      term.codec = std::string(lexicon_->codec_name());
      term.postings_read = cursors[k].postings_read();
      term.pages_skipped = cursors[k].pages_skipped();
      term.block_cache_hits = cursors[k].block_cache_hits();
      trace->AddTermStats(std::move(term));
    }
  }
  response.stats.wall_ms = timer.ElapsedSeconds() * 1e3;
  FillIoStats(pool_->cost_model(), before, &response.stats);
  return response;
}

}  // namespace xrank::query
