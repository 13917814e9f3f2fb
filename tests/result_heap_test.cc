// Unit tests for the bounded top-m accumulator (query/result_heap.h): the
// admission rule and its tie handling, repeated ids, seen-tracking, the
// capped TA count, and θ publication to a shared threshold.

#include "query/result_heap.h"

#include <gtest/gtest.h>

#include <cmath>

namespace xrank::query {
namespace {

using dewey::DeweyId;

TEST(TopKAccumulatorTest, TieAtMthRankIsBrokenBySmallerId) {
  TopKAccumulator accumulator(2);
  accumulator.Add(DeweyId{3}, 1.0);
  accumulator.Add(DeweyId{5}, 2.0);
  // Equal to the m-th rank with a smaller id: displaces 3.
  accumulator.Add(DeweyId{2}, 1.0);
  // Equal to the m-th rank with a larger id: stays out.
  accumulator.Add(DeweyId{4}, 1.0);
  auto top = accumulator.TakeTop();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, DeweyId({5}));
  EXPECT_EQ(top[0].rank, 2.0);
  EXPECT_EQ(top[1].id, DeweyId({2}));
  EXPECT_EQ(top[1].rank, 1.0);
  EXPECT_EQ(accumulator.KthRank(), 1.0);
}

TEST(TopKAccumulatorTest, EvictedIdReturnsWithHigherRank) {
  TopKAccumulator accumulator(2);
  accumulator.Add(DeweyId{1, 4}, 1.0);
  accumulator.Add(DeweyId{2}, 2.0);
  accumulator.Add(DeweyId{3}, 3.0);  // evicts 1.4
  accumulator.Add(DeweyId{1, 4}, 5.0);
  auto top = accumulator.TakeTop();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, DeweyId({1, 4}));
  EXPECT_EQ(top[0].rank, 5.0);
  EXPECT_EQ(top[1].id, DeweyId({3}));
  // A kept id offered again keeps its higher rank, and takes one slot.
  accumulator.Add(DeweyId{1, 4}, 4.0);
  accumulator.Add(DeweyId{3}, 3.5);
  top = accumulator.TakeTop();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, DeweyId({1, 4}));
  EXPECT_EQ(top[0].rank, 5.0);
  EXPECT_EQ(top[1].id, DeweyId({3}));
  EXPECT_EQ(top[1].rank, 3.5);
}

TEST(TopKAccumulatorTest, SeenTrackingCoversEveryAddedId) {
  TopKAccumulator accumulator(1, /*track_seen=*/true);
  accumulator.Add(DeweyId{1}, 2.0);
  accumulator.Add(DeweyId{2}, 1.0);  // not admitted, but evaluated
  EXPECT_TRUE(accumulator.Contains(DeweyId{1}));
  EXPECT_TRUE(accumulator.Contains(DeweyId{2}));
  EXPECT_FALSE(accumulator.Contains(DeweyId{3}));
  accumulator.MarkSeen(DeweyId{3});
  EXPECT_TRUE(accumulator.Contains(DeweyId{3}));
  auto top = accumulator.TakeTop();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, DeweyId({1}));
}

TEST(TopKAccumulatorTest, CountAtLeastIsCappedAtM) {
  TopKAccumulator accumulator(3);
  for (uint32_t i = 0; i < 5; ++i) {
    accumulator.Add(DeweyId{i}, 1.0 + i);
  }
  EXPECT_EQ(accumulator.CountAtLeast(0.0), 3u);
  EXPECT_EQ(accumulator.CountAtLeast(4.0), 2u);
  EXPECT_EQ(accumulator.CountAtLeast(5.0), 1u);
  EXPECT_EQ(accumulator.CountAtLeast(6.0), 0u);
  TopKAccumulator empty(0);
  empty.Add(DeweyId{1}, 1.0);
  EXPECT_EQ(empty.CountAtLeast(0.0), 0u);
  EXPECT_TRUE(std::isinf(empty.KthRank()));
  EXPECT_TRUE(empty.TakeTop().empty());
}

TEST(TopKAccumulatorTest, PublishesEveryChangeOfTheLocalMthRank) {
  SharedTopKThreshold shared;
  TopKAccumulator accumulator(2);
  accumulator.AttachShared(&shared);
  accumulator.Add(DeweyId{1}, 1.0);
  EXPECT_TRUE(std::isinf(shared.Get()));  // not full: nothing to publish
  accumulator.Add(DeweyId{2}, 2.0);
  EXPECT_EQ(shared.Get(), 1.0);
  EXPECT_EQ(shared.raises(), 1u);
  accumulator.Add(DeweyId{3}, 3.0);  // m-th: 1.0 -> 2.0
  EXPECT_EQ(shared.Get(), 2.0);
  EXPECT_EQ(shared.raises(), 2u);
  accumulator.Add(DeweyId{4}, 0.5);  // rejected: no change
  accumulator.Add(DeweyId{0}, 2.0);  // tie displaces id 2: m-th still 2.0
  EXPECT_EQ(shared.raises(), 2u);
  accumulator.Add(DeweyId{0}, 4.0);  // the m-th entry rises: m-th -> 3.0
  EXPECT_EQ(shared.Get(), 3.0);
  EXPECT_EQ(shared.raises(), 3u);
  EXPECT_EQ(accumulator.LocalKthRank(), 3.0);
  // KthRank folds in a higher floor raised elsewhere; the local m-th
  // rank, which gates candidate construction, does not.
  shared.Raise(7.0);
  EXPECT_EQ(accumulator.KthRank(), 7.0);
  EXPECT_EQ(accumulator.LocalKthRank(), 3.0);
}

}  // namespace
}  // namespace xrank::query
