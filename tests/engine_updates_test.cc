// Tests for document-granularity updates (paper Section 4.5): tombstone
// deletion with immediate query filtering, and compaction that rebuilds the
// physical indexes without the deleted documents.

#include <gtest/gtest.h>

#include <map>

#include "core/engine.h"
#include "xml/parser.h"

namespace xrank {
namespace {

using core::EngineOptions;
using core::XRankEngine;
using index::IndexKind;

std::vector<xml::Document> SmallCollection() {
  std::vector<xml::Document> docs;
  const char* sources[] = {
      "<a><t>shared alpha one</t></a>",
      "<a><t>shared alpha two</t></a>",
      "<a><t>shared alpha three</t></a>",
  };
  const char* uris[] = {"d1.xml", "d2.xml", "d3.xml"};
  for (int i = 0; i < 3; ++i) {
    auto doc = xml::ParseDocument(sources[i], uris[i]);
    EXPECT_TRUE(doc.ok()) << doc.status();
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

EngineOptions AllIndexes() {
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  return options;
}

size_t CountDocResults(const core::EngineResponse& response,
                       const std::string& uri) {
  size_t count = 0;
  for (const auto& result : response.results) {
    if (result.document_uri == uri) ++count;
  }
  return count;
}

TEST(EngineUpdatesTest, DeleteFiltersResultsImmediately) {
  auto engine = XRankEngine::Build(SmallCollection(), AllIndexes());
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    auto before = (*engine)->Query("shared alpha", 20, kind);
    ASSERT_TRUE(before.ok());
    EXPECT_GT(CountDocResults(*before, "d2.xml"), 0u);
  }

  ASSERT_TRUE((*engine)->DeleteDocument("d2.xml").ok());
  EXPECT_EQ((*engine)->deleted_document_count(), 1u);

  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    auto after = (*engine)->Query("shared alpha", 20, kind);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(CountDocResults(*after, "d2.xml"), 0u)
        << index::IndexKindName(kind);
    EXPECT_GT(CountDocResults(*after, "d1.xml"), 0u);
    EXPECT_GT(CountDocResults(*after, "d3.xml"), 0u);
  }
}

TEST(EngineUpdatesTest, DeleteUnknownUriFails) {
  auto engine = XRankEngine::Build(SmallCollection(), AllIndexes());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->DeleteDocument("nope.xml").ok());
}

TEST(EngineUpdatesTest, CompactionShrinksIndexesAndPreservesResults) {
  auto engine = XRankEngine::Build(SmallCollection(), AllIndexes());
  ASSERT_TRUE(engine.ok());
  uint64_t entries_before =
      (*engine)->index_stats(IndexKind::kDil).entry_count;

  ASSERT_TRUE((*engine)->DeleteDocument("d2.xml").ok());
  // Capture each structure's tombstone-filtered results.
  std::map<IndexKind, core::EngineResponse> filtered;
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    auto response = (*engine)->Query("shared alpha", 20, kind);
    ASSERT_TRUE(response.ok());
    filtered.emplace(kind, std::move(response).value());
  }

  ASSERT_TRUE((*engine)->CompactDeletions().ok());
  uint64_t entries_after =
      (*engine)->index_stats(IndexKind::kDil).entry_count;
  EXPECT_LT(entries_after, entries_before);

  // Same results through the rebuilt indexes, for every structure.
  for (auto& [kind, expected] : filtered) {
    auto compacted = (*engine)->Query("shared alpha", 20, kind);
    ASSERT_TRUE(compacted.ok()) << compacted.status();
    ASSERT_EQ(compacted->results.size(), expected.results.size())
        << index::IndexKindName(kind);
    for (size_t i = 0; i < compacted->results.size(); ++i) {
      EXPECT_EQ(compacted->results[i].id, expected.results[i].id);
      EXPECT_NEAR(compacted->results[i].rank, expected.results[i].rank,
                  1e-9);
    }
    EXPECT_EQ(CountDocResults(*compacted, "d2.xml"), 0u);
  }
}

TEST(EngineUpdatesTest, CompactWithoutDeletionsIsNoOp) {
  auto engine = XRankEngine::Build(SmallCollection(), AllIndexes());
  ASSERT_TRUE(engine.ok());
  uint64_t entries_before =
      (*engine)->index_stats(IndexKind::kDil).entry_count;
  ASSERT_TRUE((*engine)->CompactDeletions().ok());
  EXPECT_EQ((*engine)->index_stats(IndexKind::kDil).entry_count,
            entries_before);
}

TEST(EngineUpdatesTest, DeleteAllDocumentsYieldsEmptyResults) {
  auto engine = XRankEngine::Build(SmallCollection(), AllIndexes());
  ASSERT_TRUE(engine.ok());
  for (const char* uri : {"d1.xml", "d2.xml", "d3.xml"}) {
    ASSERT_TRUE((*engine)->DeleteDocument(uri).ok());
  }
  auto response = (*engine)->Query("shared", 10, IndexKind::kDil);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->results.empty());
  ASSERT_TRUE((*engine)->CompactDeletions().ok());
  auto after = (*engine)->Query("shared", 10, IndexKind::kHdil);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->results.empty());
}

TEST(EngineUpdatesTest, ResultCacheServesRepeatedQueries) {
  auto engine = XRankEngine::Build(SmallCollection(), AllIndexes());
  ASSERT_TRUE(engine.ok()) << engine.status();

  auto first = (*engine)->Query("shared alpha", 20, IndexKind::kDil);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->stats.result_cache_hit);

  auto second = (*engine)->Query("shared alpha", 20, IndexKind::kDil);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->stats.result_cache_hit);
  ASSERT_EQ(second->results.size(), first->results.size());
  for (size_t i = 0; i < second->results.size(); ++i) {
    EXPECT_EQ(second->results[i].id, first->results[i].id);
    EXPECT_NEAR(second->results[i].rank, first->results[i].rank, 1e-12);
    EXPECT_EQ(second->results[i].document_uri,
              first->results[i].document_uri);
  }

  // Different m, kind, or terms are distinct cache entries.
  auto other_m = (*engine)->Query("shared alpha", 5, IndexKind::kDil);
  ASSERT_TRUE(other_m.ok());
  EXPECT_FALSE(other_m->stats.result_cache_hit);
  auto other_kind = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(other_kind.ok());
  EXPECT_FALSE(other_kind->stats.result_cache_hit);
  auto other_terms = (*engine)->Query("shared", 20, IndexKind::kDil);
  ASSERT_TRUE(other_terms.ok());
  EXPECT_FALSE(other_terms->stats.result_cache_hit);
}

TEST(EngineUpdatesTest, ResultCacheCanBeDisabled) {
  EngineOptions options = AllIndexes();
  options.result_cache_entries = 0;
  auto engine = XRankEngine::Build(SmallCollection(), options);
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < 2; ++i) {
    auto response = (*engine)->Query("shared alpha", 20, IndexKind::kDil);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->stats.result_cache_hit);
  }
}

TEST(EngineUpdatesTest, DeleteAndCompactionInvalidateResultCache) {
  auto engine = XRankEngine::Build(SmallCollection(), AllIndexes());
  ASSERT_TRUE(engine.ok());

  auto warm = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(warm.ok());
  auto cached = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cached->stats.result_cache_hit);
  EXPECT_GT(CountDocResults(*cached, "d2.xml"), 0u);

  // Deletion must not leave stale entries behind: the next query re-executes
  // and reflects the tombstone.
  ASSERT_TRUE((*engine)->DeleteDocument("d2.xml").ok());
  auto after_delete = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(after_delete.ok());
  EXPECT_FALSE(after_delete->stats.result_cache_hit);
  EXPECT_EQ(CountDocResults(*after_delete, "d2.xml"), 0u);

  // The re-executed (filtered) response is cached again.
  auto recached = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(recached.ok());
  EXPECT_TRUE(recached->stats.result_cache_hit);
  EXPECT_EQ(CountDocResults(*recached, "d2.xml"), 0u);

  // Compaction rebuilds the physical indexes but answers are unchanged (the
  // tombstone filter already hid the deleted documents), so cached
  // responses stay warm — and still identical.
  ASSERT_TRUE((*engine)->CompactDeletions().ok());
  auto after_compact = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(after_compact.ok());
  EXPECT_TRUE(after_compact->stats.result_cache_hit);
  EXPECT_EQ(CountDocResults(*after_compact, "d2.xml"), 0u);
  ASSERT_EQ(after_compact->results.size(), recached->results.size());
  for (size_t i = 0; i < after_compact->results.size(); ++i) {
    EXPECT_EQ(after_compact->results[i].id, recached->results[i].id);
    EXPECT_NEAR(after_compact->results[i].rank, recached->results[i].rank,
                1e-9);
  }
}

}  // namespace
}  // namespace xrank
