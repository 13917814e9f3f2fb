// Randomized parity of the DIL merge path (DeweyStackMerger feeding the
// bounded TopKAccumulator) against a test-local reference with the
// original semantics: a Dewey-stack merge whose frames are built fresh
// and that keeps EVERY candidate, sorted once at the end. The corpora are
// deep (XMark-like nesting of 10+ levels), the ElemRanks are planted from
// three exactly representable values so that equal ranks, and therefore
// ties at the m-th result, are common, and the comparison is bitwise on
// ids and ranks for both semantics, every merge algorithm, several m and
// both proximity modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/vocabulary.h"
#include "graph/builder.h"
#include "index/dil_index.h"
#include "index/index_builder.h"
#include "query/dil_query.h"
#include "query/posting_cursor.h"
#include "query/proximity.h"
#include "query/result_heap.h"
#include "query/scoring.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/page_file.h"
#include "xml/node.h"

namespace xrank {
namespace {

using dewey::DeweyId;
using query::MergeAlgorithm;
using query::ProximityMode;
using query::QuerySemantics;
using query::RankedResult;
using query::ScoringOptions;

constexpr size_t kVocabulary = 6;

// A deep document: a spine of 10-13 nested elements, each with up to two
// shallow side subtrees, and words from a tiny vocabulary so keywords
// co-occur at many depths.
xml::Document DeepDocument(Random* rng, datagen::Vocabulary* vocab,
                           size_t index) {
  const char* tags[] = {"site", "regions", "item", "description",
                        "parlist", "listitem", "text", "keyword"};
  std::function<void(xml::Node*)> add_text = [&](xml::Node* node) {
    if (!rng->Bernoulli(0.6)) return;
    std::string text;
    size_t words = 1 + rng->Uniform(3);
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) text.push_back(' ');
      text += vocab->Word(rng->Uniform(kVocabulary));
    }
    node->AddChild(xml::Node::MakeText(std::move(text)));
  };
  std::function<std::unique_ptr<xml::Node>(size_t)> side =
      [&](size_t levels) {
        auto node = xml::Node::MakeElement(tags[rng->Uniform(8)]);
        add_text(node.get());
        if (levels > 0 && rng->Bernoulli(0.5)) {
          node->AddChild(side(levels - 1));
        }
        return node;
      };
  const size_t depth = 10 + rng->Uniform(4);
  auto root = xml::Node::MakeElement("site");
  xml::Node* at = root.get();
  for (size_t level = 1; level < depth; ++level) {
    add_text(at);
    size_t sides = rng->Uniform(3);
    for (size_t s = 0; s < sides; ++s) at->AddChild(side(1));
    at = at->AddChild(xml::Node::MakeElement(tags[level % 8]));
  }
  add_text(at);
  xml::Document doc;
  doc.uri = "deep" + std::to_string(index) + ".xml";
  doc.root = std::move(root);
  return doc;
}

struct DeepIndex {
  index::BuiltIndex built;
  std::unique_ptr<storage::CostModel> cost_model;
  std::unique_ptr<storage::BufferPool> pool;
};

std::unique_ptr<DeepIndex> BuildDeepIndex(uint64_t seed, size_t docs) {
  Random rng(seed);
  datagen::Vocabulary vocab(kVocabulary);
  graph::GraphBuilder builder;
  for (size_t d = 0; d < docs; ++d) {
    Status status = builder.AddDocument(DeepDocument(&rng, &vocab, d));
    EXPECT_TRUE(status.ok()) << status;
  }
  auto graph = std::move(builder).Finalize();
  EXPECT_TRUE(graph.ok()) << graph.status();
  if (!graph.ok()) return nullptr;
  // Planted ranks: three exactly representable values.
  const double kRanks[] = {0.125, 0.25, 0.5};
  std::vector<double> ranks(graph->node_count());
  for (double& rank : ranks) rank = kRanks[rng.Uniform(3)];
  auto extracted = index::ExtractPostings(*graph, ranks, {});
  EXPECT_TRUE(extracted.ok()) << extracted.status();
  if (!extracted.ok()) return nullptr;
  auto built = index::BuildDilIndex(extracted->dewey_postings,
                                    storage::PageFile::CreateInMemory());
  EXPECT_TRUE(built.ok()) << built.status();
  if (!built.ok()) return nullptr;
  auto out = std::make_unique<DeepIndex>();
  out->built = std::move(built).value();
  out->cost_model = std::make_unique<storage::CostModel>();
  out->pool = std::make_unique<storage::BufferPool>(
      out->built.file.get(), 1024, out->cost_model.get());
  return out;
}

// The reference: Figure 5 with a fresh frame per element and every
// candidate kept, ranked with the same arithmetic in the same order.
class ReferenceMerge {
 public:
  ReferenceMerge(size_t n, const ScoringOptions& scoring)
      : n_(n), scoring_(scoring) {}

  void Add(size_t k, const index::Posting& posting) {
    const DeweyId& id = posting.id;
    size_t lcp = 0;
    while (lcp < path_.size() && lcp < id.depth() &&
           path_[lcp] == id.component(lcp)) {
      ++lcp;
    }
    while (stack_.size() > lcp) Pop();
    for (size_t i = lcp; i < id.depth(); ++i) {
      stack_.push_back(Frame{std::vector<std::vector<uint32_t>>(n_),
                             std::vector<double>(n_, 0.0), false});
      path_.push_back(id.component(i));
    }
    Frame& top = stack_.back();
    top.ranks[k] = query::AggregateRank(scoring_.aggregation, top.ranks[k],
                                        posting.elem_rank);
    top.positions[k].insert(top.positions[k].end(), posting.positions.begin(),
                            posting.positions.end());
  }

  // Every candidate, sorted by rank descending then id, cut to m.
  std::vector<RankedResult> Top(size_t m) {
    while (!stack_.empty()) Pop();
    std::vector<RankedResult> all;
    for (const auto& [id, rank] : best_) all.push_back(RankedResult{id, rank});
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.rank != b.rank) return a.rank > b.rank;
      return a.id < b.id;
    });
    // A tie across the cut: the planted ranks are doing their job.
    if (all.size() > m && m > 0 && all[m - 1].rank == all[m].rank) {
      ++ties_at_cut_;
    }
    if (all.size() > m) all.resize(m);
    return all;
  }

  size_t ties_at_cut() const { return ties_at_cut_; }

 private:
  struct Frame {
    std::vector<std::vector<uint32_t>> positions;
    std::vector<double> ranks;
    bool contains_all;
  };

  void Pop() {
    Frame frame = std::move(stack_.back());
    stack_.pop_back();
    std::vector<std::vector<uint32_t>> present_lists;
    for (const auto& list : frame.positions) {
      if (!list.empty()) present_lists.push_back(list);
    }
    const size_t present = present_lists.size();
    const bool qualifies = scoring_.semantics == QuerySemantics::kConjunctive
                               ? present == n_
                               : present > 0;
    if (qualifies) {
      frame.contains_all = true;
      double proximity = query::ProximityFromWindow(
          scoring_.proximity, query::MinimalWindowSize(present_lists),
          present);
      double rank = query::CombineRanks(frame.ranks, proximity);
      auto [it, inserted] = best_.emplace(DeweyId(path_), rank);
      if (!inserted) it->second = std::max(it->second, rank);
    } else if (!frame.contains_all && !stack_.empty()) {
      Frame& parent = stack_.back();
      for (size_t k = 0; k < n_; ++k) {
        if (frame.ranks[k] > 0.0) {
          parent.ranks[k] =
              query::AggregateRank(scoring_.aggregation, parent.ranks[k],
                                   frame.ranks[k] * scoring_.decay);
        }
        parent.positions[k].insert(parent.positions[k].end(),
                                   frame.positions[k].begin(),
                                   frame.positions[k].end());
      }
    }
    if (frame.contains_all && !stack_.empty()) {
      stack_.back().contains_all = true;
    }
    path_.pop_back();
  }

  size_t n_;
  ScoringOptions scoring_;
  std::vector<Frame> stack_;
  std::vector<uint32_t> path_;
  std::map<DeweyId, double> best_;
  size_t ties_at_cut_ = 0;
};

// Decodes every posting of `keywords` from the index and merges them in
// global (id, keyword) order — the exhaustive merge's feed order.
std::vector<std::pair<size_t, index::Posting>> AllPostings(
    DeepIndex* index, const std::vector<std::string>& keywords) {
  std::vector<std::pair<size_t, index::Posting>> all;
  for (size_t k = 0; k < keywords.size(); ++k) {
    const index::TermInfo* info = index->built.lexicon.Find(keywords[k]);
    if (info == nullptr) continue;
    query::PostingCursor cursor(index->pool.get(), &index->built.lexicon,
                                info, /*use_skip_blocks=*/false);
    const index::Posting* posting = nullptr;
    for (;;) {
      auto has = cursor.Next(&posting);
      EXPECT_TRUE(has.ok()) << has.status();
      if (!has.ok() || !*has) break;
      all.emplace_back(k, *posting);
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second.id != b.second.id) return a.second.id < b.second.id;
    return a.first < b.first;
  });
  return all;
}

class DeepMergeParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeepMergeParityTest, BoundedTopKMatchesKeepEverythingReference) {
  auto index = BuildDeepIndex(GetParam() * 101 + 5, 40);
  ASSERT_NE(index, nullptr);
  datagen::Vocabulary vocab(kVocabulary);
  Random rng(GetParam() * 7 + 1);
  size_t ties = 0;
  size_t compared = 0;
  size_t max_depth = 0;

  for (QuerySemantics semantics :
       {QuerySemantics::kConjunctive, QuerySemantics::kDisjunctive}) {
    for (ProximityMode proximity :
         {ProximityMode::kReciprocalWindow, ProximityMode::kAlwaysOne}) {
      ScoringOptions scoring;
      scoring.semantics = semantics;
      scoring.proximity = proximity;
      query::DilQueryProcessor processor(index->pool.get(),
                                         &index->built.lexicon, scoring);
      for (int trial = 0; trial < 3; ++trial) {
        const size_t nk = 1 + rng.Uniform(3);
        std::set<std::string> chosen;
        while (chosen.size() < nk) {
          chosen.insert(vocab.Word(rng.Uniform(kVocabulary)));
        }
        const std::vector<std::string> keywords(chosen.begin(), chosen.end());
        const auto postings = AllPostings(index.get(), keywords);
        for (const auto& entry : postings) {
          max_depth = std::max(max_depth, entry.second.id.depth());
        }
        for (size_t m : {1u, 10u, 50u}) {
          ReferenceMerge reference(keywords.size(), scoring);
          for (const auto& [k, posting] : postings) reference.Add(k, posting);
          const std::vector<RankedResult> expected = reference.Top(m);
          ties += reference.ties_at_cut();
          for (MergeAlgorithm algorithm :
               {MergeAlgorithm::kAuto, MergeAlgorithm::kMaxScore,
                MergeAlgorithm::kBlockMaxWand, MergeAlgorithm::kExhaustive}) {
            query::QueryOptions options;
            options.algorithm = algorithm;
            auto got = processor.Execute(keywords, m, options);
            ASSERT_TRUE(got.ok()) << got.status();
            const bool conj = semantics == QuerySemantics::kConjunctive;
            const std::string label =
                std::string(query::MergeAlgorithmName(algorithm)) +
                (conj ? " conj" : " disj") +
                (proximity == ProximityMode::kAlwaysOne ? " p=1" : " window") +
                " m=" + std::to_string(m) + " kw=" + keywords[0] + "+" +
                std::to_string(nk - 1);
            ASSERT_EQ(got->results.size(), expected.size()) << label;
            for (size_t i = 0; i < expected.size(); ++i) {
              EXPECT_EQ(got->results[i].id, expected[i].id)
                  << label << " i=" << i;
              EXPECT_EQ(got->results[i].rank, expected[i].rank)
                  << label << " i=" << i;
            }
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 2u * 2u * 3u * 3u * 4u);
  EXPECT_GE(max_depth, 10u);
  // The planted ranks must actually put ties at the m-th result.
  EXPECT_GT(ties, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepMergeParityTest,
                         ::testing::Values(1u, 2u, 3u));

// The merger skips building a candidate below the accumulator's LOCAL m-th
// rank, never below the router's shared θ: a floor raised by other shards
// may prune pages, but must not drop this shard's own candidates. The
// exhaustive merge prunes nothing, so under it a raised floor must leave
// the response unchanged.
TEST(DeepMergeSharedThresholdTest, SharedFloorKeepsLocalTopM) {
  auto index = BuildDeepIndex(17, 40);
  ASSERT_NE(index, nullptr);
  datagen::Vocabulary vocab(kVocabulary);
  ScoringOptions scoring;
  scoring.semantics = QuerySemantics::kDisjunctive;
  query::DilQueryProcessor processor(index->pool.get(), &index->built.lexicon,
                                     scoring);
  const std::vector<std::string> keywords = {vocab.Word(0), vocab.Word(1)};
  query::QueryOptions options;
  options.algorithm = MergeAlgorithm::kExhaustive;
  auto alone = processor.Execute(keywords, 50, options);
  ASSERT_TRUE(alone.ok()) << alone.status();
  ASSERT_EQ(alone->results.size(), 50u);
  // The floor must sit above some of the local top-m to mean anything.
  ASSERT_GT(alone->results.front().rank, alone->results.back().rank);

  query::SharedTopKThreshold shared;
  shared.Raise(alone->results.front().rank);
  options.shared_threshold = &shared;
  auto joined = processor.Execute(keywords, 50, options);
  ASSERT_TRUE(joined.ok()) << joined.status();
  ASSERT_EQ(joined->results.size(), alone->results.size());
  for (size_t i = 0; i < alone->results.size(); ++i) {
    EXPECT_EQ(joined->results[i].id, alone->results[i].id) << i;
    EXPECT_EQ(joined->results[i].rank, alone->results[i].rank) << i;
  }
}

}  // namespace
}  // namespace xrank
