#ifndef XRANK_QUERY_HDIL_QUERY_H_
#define XRANK_QUERY_HDIL_QUERY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/lexicon.h"
#include "query/deadline.h"
#include "query/query.h"
#include "storage/buffer_pool.h"

namespace xrank::query {

// HDIL evaluation (paper Section 4.4): starts in RDIL mode over the small
// rank-ordered prefix lists, probing the sparse B+-trees whose leaf level is
// the full Dewey-ordered list; monitors progress and switches to a full DIL
// scan when RDIL's estimated remaining time exceeds DIL's predicted cost, or
// when a rank prefix is exhausted (the prefix no longer bounds unseen
// ranks).
class HdilQueryProcessor {
 public:
  // `block_cache` (optional, borrowed) serves decoded posting pages to the
  // rank-prefix cursors and the DIL fallback; the fallback also inherits
  // block-max pruning against its top-k heap.
  HdilQueryProcessor(storage::BufferPool* pool,
                     const index::Lexicon* lexicon,
                     const ScoringOptions& scoring,
                     index::BlockCache* block_cache = nullptr);

  // `options` bounds the whole evaluation: one deadline covers both the
  // RDIL phase and a potential DIL fallback rescan.
  Result<QueryResponse> Execute(const std::vector<std::string>& keywords,
                                size_t m, const QueryOptions& options = {});

 private:
  Result<QueryResponse> ExecuteDil(const std::vector<std::string>& keywords,
                                   size_t m, const QueryOptions& options,
                                   QueryDeadline* deadline);

  storage::BufferPool* pool_;
  const index::Lexicon* lexicon_;
  ScoringOptions scoring_;
  index::BlockCache* block_cache_;
};

// --- HDIL probe primitives (exposed for testing) ---

// The deepest prefix of `key` shared with any posting ID in the term's full
// list, located through the sparse B+-tree and the list pages themselves
// (which act as the B+-tree leaf level). `lexicon` supplies the posting
// codec the list pages were written with.
Result<size_t> HdilLongestCommonPrefix(storage::BufferPool* pool,
                                       const index::Lexicon* lexicon,
                                       const index::TermInfo& info,
                                       const dewey::DeweyId& key);

// Scans all postings of the term whose ID has `prefix` as a Dewey prefix,
// in ID order. Returning false from fn stops the scan.
Status HdilScanPrefix(
    storage::BufferPool* pool, const index::Lexicon* lexicon,
    const index::TermInfo& info, const dewey::DeweyId& prefix,
    const std::function<bool(const index::Posting&)>& fn);

}  // namespace xrank::query

#endif  // XRANK_QUERY_HDIL_QUERY_H_
