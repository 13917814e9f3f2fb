#include "query/proximity.h"

#include <algorithm>

namespace xrank::query {

uint32_t MinimalWindowSize(
    const std::vector<std::vector<uint32_t>>& position_lists) {
  if (position_lists.empty()) return 0;
  for (const auto& list : position_lists) {
    if (list.empty()) return 0;
  }
  WindowScratch scratch;
  return MinimalWindowSizeOfPresent(position_lists, &scratch);
}

uint32_t MinimalWindowSizeOfPresent(
    std::span<const std::vector<uint32_t>> position_lists,
    WindowScratch* scratch) {
  size_t present = 0;
  size_t total = 0;
  for (const auto& list : position_lists) {
    if (list.empty()) continue;
    ++present;
    total += list.size();
  }
  if (present == 0) return 0;
  if (present == 1) return 1;  // any single position is a window
  // Merge all positions into (position, list) events and slide a window
  // that keeps at least one event per non-empty list.
  auto& events = scratch->events;
  events.clear();
  events.reserve(total);
  for (uint32_t k = 0; k < position_lists.size(); ++k) {
    for (uint32_t pos : position_lists[k]) events.emplace_back(pos, k);
  }
  std::sort(events.begin(), events.end());

  auto& counts = scratch->counts;
  counts.assign(position_lists.size(), 0);
  size_t covered = 0;
  size_t left = 0;
  uint32_t best = UINT32_MAX;
  for (size_t right = 0; right < events.size(); ++right) {
    if (counts[events[right].second]++ == 0) ++covered;
    while (covered == present) {
      best = std::min(best, events[right].first - events[left].first + 1);
      if (--counts[events[left].second] == 0) --covered;
      ++left;
    }
  }
  return best == UINT32_MAX ? 0 : best;
}

double ProximityFromWindow(ProximityMode mode, uint32_t window,
                           size_t num_keywords) {
  if (mode == ProximityMode::kAlwaysOne) return 1.0;
  if (window == 0) return 0.0;
  // n adjacent keywords occupy a window of exactly n words; normalize so
  // that the tightest possible packing scores 1.
  double tightest = static_cast<double>(std::max<size_t>(num_keywords, 1));
  return std::min(1.0, tightest / static_cast<double>(window));
}

}  // namespace xrank::query
