// Tests for crash-safe live index updates: WAL-backed AddDocument with
// recovery replay, snapshot-isolated queries over base + segments + delta,
// background flush/compaction with failpoint-injected faults at every
// commit window, backpressure, and cache warmth across flushes.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "index/manifest.h"
#include "storage/wal.h"
#include "xml/parser.h"

namespace xrank {
namespace {

using core::EngineOptions;
using core::EngineResponse;
using core::XRankEngine;
using fail::Action;
using fail::FailPoints;
using fail::FailPointSpec;
using fail::ScopedFailPoint;
using index::IndexKind;

// Every kind the engine serves.
constexpr IndexKind kAllKinds[] = {IndexKind::kDil, IndexKind::kHdil};

std::vector<xml::Document> BaseCollection() {
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

// XML body for the i-th live-added document; all contain "shared live".
std::string LiveXml(int i) {
  return "<a><t>shared live fresh" + std::to_string(i) + "</t></a>";
}
std::string LiveUri(int i) { return "live" + std::to_string(i) + ".xml"; }

// In-memory engine options with inline (deterministic) maintenance.
EngineOptions InlineOptions() {
  EngineOptions options;
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  options.background_maintenance = false;
  // Keep automatic flushing out of the way; tests flush explicitly.
  options.max_delta_documents = 64;
  options.flush_delta_documents = 64;
  options.compact_segment_count = 0;
  return options;
}

// A unique directory under the test temp root, wiped of any files a
// previous run left behind (index files, segments, WAL, MANIFEST).
std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/lu_" + name;
  ::mkdir(dir.c_str(), 0755);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      std::string file = entry->d_name;
      if (file == "." || file == "..") continue;
      std::remove((dir + "/" + file).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

EngineOptions DiskOptions(const std::string& dir) {
  EngineOptions options = InlineOptions();
  options.indexes = {IndexKind::kDil, IndexKind::kHdil};
  options.disk_dir = dir;
  return options;
}

size_t CountDocResults(const EngineResponse& response,
                       const std::string& uri) {
  size_t count = 0;
  for (const auto& result : response.results) {
    if (result.document_uri == uri) ++count;
  }
  return count;
}

void ExpectSameResults(const EngineResponse& actual,
                       const EngineResponse& expected, const char* label) {
  ASSERT_EQ(actual.results.size(), expected.results.size()) << label;
  for (size_t i = 0; i < actual.results.size(); ++i) {
    EXPECT_EQ(actual.results[i].id, expected.results[i].id) << label;
    EXPECT_NEAR(actual.results[i].rank, expected.results[i].rank, 1e-12)
        << label;
    EXPECT_EQ(actual.results[i].document_uri,
              expected.results[i].document_uri)
        << label;
  }
}

class LiveUpdateTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::Instance().DisarmAll(); }
};

// --- visibility and basic semantics ---

TEST_F(LiveUpdateTest, AddedDocumentVisibleImmediatelyAcrossAllKinds) {
  auto engine = XRankEngine::Build(BaseCollection(), InlineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());

  for (IndexKind kind : kAllKinds) {
    auto response = (*engine)->Query("shared", 20, kind);
    ASSERT_TRUE(response.ok())
        << index::IndexKindName(kind) << ": " << response.status();
    EXPECT_GT(CountDocResults(*response, LiveUri(1)), 0u)
        << index::IndexKindName(kind);
    EXPECT_GT(CountDocResults(*response, "d1.xml"), 0u)
        << index::IndexKindName(kind);
  }
  // Terms unique to the new document resolve too.
  auto fresh = (*engine)->Query("fresh1", 10, IndexKind::kDil);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(CountDocResults(*fresh, LiveUri(1)), 0u);
}

TEST_F(LiveUpdateTest, MalformedDocumentRejectedBeforeLogging) {
  auto engine = XRankEngine::Build(BaseCollection(), InlineOptions());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->AddDocument("bad.xml", "<a><unclosed>").ok());
  EXPECT_EQ((*engine)->update_counters().wal_appends, 0u);
}

TEST_F(LiveUpdateTest, DuplicateUriRejectedUntilDeleted) {
  auto engine = XRankEngine::Build(BaseCollection(), InlineOptions());
  ASSERT_TRUE(engine.ok());
  // Collides with a base document.
  EXPECT_FALSE((*engine)->AddDocument("d1.xml", LiveXml(1)).ok());
  // Collides with a live document.
  ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());
  EXPECT_FALSE((*engine)->AddDocument(LiveUri(1), LiveXml(2)).ok());
  // A deleted URI is free again.
  ASSERT_TRUE((*engine)->DeleteDocument(LiveUri(1)).ok());
  EXPECT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(3)).ok());
}

TEST_F(LiveUpdateTest, DeleteLiveDocumentFiltersImmediately) {
  auto engine = XRankEngine::Build(BaseCollection(), InlineOptions());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());
  ASSERT_TRUE((*engine)->AddDocument(LiveUri(2), LiveXml(2)).ok());
  ASSERT_TRUE((*engine)->DeleteDocument(LiveUri(1)).ok());
  EXPECT_EQ((*engine)->deleted_document_count(), 1u);
  for (IndexKind kind : kAllKinds) {
    auto response = (*engine)->Query("shared", 20, kind);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(CountDocResults(*response, LiveUri(1)), 0u)
        << index::IndexKindName(kind);
    EXPECT_GT(CountDocResults(*response, LiveUri(2)), 0u)
        << index::IndexKindName(kind);
  }
}

// --- flush / compaction result invariance (snapshot regrouping) ---

TEST_F(LiveUpdateTest, FlushAndCompactionPreserveResults) {
  auto engine = XRankEngine::Build(BaseCollection(), InlineOptions());
  ASSERT_TRUE(engine.ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(i), LiveXml(i)).ok());
  }
  std::map<IndexKind, EngineResponse> before;
  for (IndexKind kind : kAllKinds) {
    auto response = (*engine)->Query("shared", 20, kind);
    ASSERT_TRUE(response.ok());
    before.emplace(kind, std::move(response).value());
  }

  // Delta -> segment 1.
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->update_counters().segment_count, 1u);
  EXPECT_EQ((*engine)->update_counters().delta_documents, 0u);
  for (IndexKind kind : kAllKinds) {
    auto response = (*engine)->Query("shared", 20, kind);
    ASSERT_TRUE(response.ok());
    ExpectSameResults(*response, before.at(kind), "after flush");
  }

  // More adds -> segment 2, then merge both into one.
  for (int i = 5; i <= 6; ++i) {
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(i), LiveXml(i)).ok());
  }
  std::map<IndexKind, EngineResponse> with_six;
  for (IndexKind kind : kAllKinds) {
    auto response = (*engine)->Query("shared", 20, kind);
    ASSERT_TRUE(response.ok());
    with_six.emplace(kind, std::move(response).value());
  }
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_EQ((*engine)->update_counters().segment_count, 2u);
  ASSERT_TRUE((*engine)->CompactSegments().ok());
  EXPECT_EQ((*engine)->update_counters().segment_count, 1u);
  for (IndexKind kind : kAllKinds) {
    auto response = (*engine)->Query("shared", 20, kind);
    ASSERT_TRUE(response.ok());
    ExpectSameResults(*response, with_six.at(kind), "after compaction");
  }
}

TEST_F(LiveUpdateTest, CompactionDropsTombstonedLiveDocuments) {
  auto engine = XRankEngine::Build(BaseCollection(), InlineOptions());
  ASSERT_TRUE(engine.ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(i), LiveXml(i)).ok());
  }
  ASSERT_TRUE((*engine)->Flush().ok());
  ASSERT_TRUE((*engine)->DeleteDocument(LiveUri(2)).ok());
  ASSERT_TRUE((*engine)->CompactSegments().ok());
  // The tombstoned live document is physically gone, and its tombstone
  // with it.
  EXPECT_EQ((*engine)->deleted_document_count(), 0u);
  EXPECT_EQ((*engine)->update_counters().added_documents, 2u);
  auto response = (*engine)->Query("shared", 20, IndexKind::kDil);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(CountDocResults(*response, LiveUri(2)), 0u);
  EXPECT_GT(CountDocResults(*response, LiveUri(1)), 0u);
  EXPECT_GT(CountDocResults(*response, LiveUri(3)), 0u);
  // The freed URI is usable again.
  EXPECT_TRUE((*engine)->AddDocument(LiveUri(2), LiveXml(9)).ok());
}

// --- crash-recovery (WAL replay on Open) ---

TEST_F(LiveUpdateTest, ReopenReplaysUnflushedAdds) {
  std::string dir = FreshDir("replay");
  std::map<IndexKind, EngineResponse> before;
  {
    auto engine = XRankEngine::Build(BaseCollection(), DiskOptions(dir));
    ASSERT_TRUE(engine.ok()) << engine.status();
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE((*engine)->AddDocument(LiveUri(i), LiveXml(i)).ok());
    }
    for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
      auto response = (*engine)->Query("shared", 20, kind);
      ASSERT_TRUE(response.ok());
      before.emplace(kind, std::move(response).value());
    }
    // Engine destroyed without Flush: the adds exist only in the WAL.
  }
  auto reopened = XRankEngine::Open(BaseCollection(), DiskOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->update_counters().wal_replayed_records, 3u);
  EXPECT_EQ((*reopened)->update_counters().added_documents, 3u);
  for (IndexKind kind : {IndexKind::kDil, IndexKind::kHdil}) {
    auto response = (*reopened)->Query("shared", 20, kind);
    ASSERT_TRUE(response.ok());
    ExpectSameResults(*response, before.at(kind), "after reopen");
  }
}

TEST_F(LiveUpdateTest, ReopenServesFlushedSegmentsAndReplaysTheRest) {
  std::string dir = FreshDir("segments");
  EngineResponse before;
  {
    auto engine = XRankEngine::Build(BaseCollection(), DiskOptions(dir));
    ASSERT_TRUE(engine.ok());
    for (int i = 1; i <= 2; ++i) {
      ASSERT_TRUE((*engine)->AddDocument(LiveUri(i), LiveXml(i)).ok());
    }
    ASSERT_TRUE((*engine)->Flush().ok());
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(3), LiveXml(3)).ok());
    auto response = (*engine)->Query("shared", 20, IndexKind::kDil);
    ASSERT_TRUE(response.ok());
    before = std::move(response).value();
  }
  auto reopened = XRankEngine::Open(BaseCollection(), DiskOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // The flushed segment serves from disk; only the last add replays.
  EXPECT_EQ((*reopened)->update_counters().segment_count, 1u);
  EXPECT_EQ((*reopened)->update_counters().delta_documents, 1u);
  auto response = (*reopened)->Query("shared", 20, IndexKind::kDil);
  ASSERT_TRUE(response.ok());
  ExpectSameResults(*response, before, "after reopen with segment");
}

TEST_F(LiveUpdateTest, DeletesOfLiveAndBaseDocumentsSurviveReopen) {
  std::string dir = FreshDir("tombstones");
  {
    auto engine = XRankEngine::Build(BaseCollection(), DiskOptions(dir));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(2), LiveXml(2)).ok());
    ASSERT_TRUE((*engine)->DeleteDocument("d2.xml").ok());     // base doc
    ASSERT_TRUE((*engine)->DeleteDocument(LiveUri(1)).ok());   // delta doc
  }
  auto reopened = XRankEngine::Open(BaseCollection(), DiskOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->deleted_document_count(), 2u);
  auto response = (*reopened)->Query("shared", 20, IndexKind::kDil);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(CountDocResults(*response, "d2.xml"), 0u);
  EXPECT_EQ(CountDocResults(*response, LiveUri(1)), 0u);
  EXPECT_GT(CountDocResults(*response, LiveUri(2)), 0u);
}

TEST_F(LiveUpdateTest, TornWalTailIsTruncatedOnReopen) {
  std::string dir = FreshDir("torntail");
  {
    auto engine = XRankEngine::Build(BaseCollection(), DiskOptions(dir));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());
  }
  // Simulate a crash mid-append: a valid frame prefix with no payload.
  {
    std::FILE* f =
        std::fopen((dir + "/" + storage::kWalFileName).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    uint32_t magic = storage::kLogRecordMagic;
    uint32_t length = 4096;  // claims more bytes than exist
    std::fwrite(&magic, sizeof(magic), 1, f);
    std::fwrite(&length, sizeof(length), 1, f);
    std::fclose(f);
  }
  auto reopened = XRankEngine::Open(BaseCollection(), DiskOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GT((*reopened)->update_counters().wal_dropped_bytes, 0u);
  EXPECT_EQ((*reopened)->update_counters().wal_replayed_records, 1u);
  auto response = (*reopened)->Query("fresh1", 10, IndexKind::kDil);
  ASSERT_TRUE(response.ok());
  EXPECT_GT(CountDocResults(*response, LiveUri(1)), 0u);
  // The truncated log accepts appends again.
  EXPECT_TRUE((*reopened)->AddDocument(LiveUri(2), LiveXml(2)).ok());
}

TEST_F(LiveUpdateTest, FailedWalAppendIsNotAcknowledgedAndHeals) {
  std::string dir = FreshDir("walheal");
  auto engine = XRankEngine::Build(BaseCollection(), DiskOptions(dir));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());
  {
    FailPointSpec spec;
    spec.action = Action::kTornWrite;
    spec.max_triggers = 1;
    ScopedFailPoint fp("wal.torn_append", spec);
    EXPECT_FALSE((*engine)->AddDocument(LiveUri(2), LiveXml(2)).ok());
  }
  // The torn frame was cut back out: the log accepts the next append and
  // replays cleanly, with no trace of the unacknowledged document.
  EXPECT_TRUE((*engine)->AddDocument(LiveUri(3), LiveXml(3)).ok());
  engine->reset();
  auto reopened = XRankEngine::Open(BaseCollection(), DiskOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->update_counters().wal_dropped_bytes, 0u);
  auto response = (*reopened)->Query("shared", 20, IndexKind::kDil);
  ASSERT_TRUE(response.ok());
  EXPECT_GT(CountDocResults(*response, LiveUri(1)), 0u);
  EXPECT_EQ(CountDocResults(*response, LiveUri(2)), 0u);
  EXPECT_GT(CountDocResults(*response, LiveUri(3)), 0u);
}

// --- fault injection at every flush/compaction commit window ---

// After an injected error at any window, the engine keeps serving, a
// retried flush succeeds, and a reopen sees every acknowledged add.
TEST_F(LiveUpdateTest, FlushCommitWindowFaultsAreRecoverable) {
  for (const char* point :
       {"segment_flush.before_rename", "segment_flush.before_manifest",
        "wal.rewrite_rename"}) {
    std::string dir = FreshDir(std::string("flushfault_") + point);
    auto engine = XRankEngine::Build(BaseCollection(), DiskOptions(dir));
    ASSERT_TRUE(engine.ok()) << point;
    for (int i = 1; i <= 2; ++i) {
      ASSERT_TRUE((*engine)->AddDocument(LiveUri(i), LiveXml(i)).ok())
          << point;
    }
    {
      FailPointSpec spec;
      spec.max_triggers = 1;
      ScopedFailPoint fp(point, spec);
      EXPECT_FALSE((*engine)->Flush().ok()) << point;
    }
    // Still serving (from WAL-backed delta or the committed segment).
    auto during = (*engine)->Query("shared", 20, IndexKind::kDil);
    ASSERT_TRUE(during.ok()) << point;
    EXPECT_GT(CountDocResults(*during, LiveUri(1)), 0u) << point;
    // Retry succeeds and is idempotent.
    ASSERT_TRUE((*engine)->Flush().ok()) << point;
    engine->reset();
    auto reopened = XRankEngine::Open(BaseCollection(), DiskOptions(dir));
    ASSERT_TRUE(reopened.ok()) << point << ": " << reopened.status();
    auto response = (*reopened)->Query("shared", 20, IndexKind::kDil);
    ASSERT_TRUE(response.ok()) << point;
    EXPECT_GT(CountDocResults(*response, LiveUri(1)), 0u) << point;
    EXPECT_GT(CountDocResults(*response, LiveUri(2)), 0u) << point;
  }
}

TEST_F(LiveUpdateTest, CompactionCommitWindowFaultsAreRecoverable) {
  for (const char* point :
       {"segment_compact.before_rename", "segment_compact.before_manifest",
        "wal.rewrite_rename"}) {
    std::string dir = FreshDir("compactfault");
    auto engine = XRankEngine::Build(BaseCollection(), DiskOptions(dir));
    ASSERT_TRUE(engine.ok()) << point;
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(2), LiveXml(2)).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    {
      FailPointSpec spec;
      spec.max_triggers = 1;
      ScopedFailPoint fp(point, spec);
      EXPECT_FALSE((*engine)->CompactSegments().ok()) << point;
    }
    auto during = (*engine)->Query("shared", 20, IndexKind::kDil);
    ASSERT_TRUE(during.ok()) << point;
    EXPECT_GT(CountDocResults(*during, LiveUri(1)), 0u) << point;
    EXPECT_GT(CountDocResults(*during, LiveUri(2)), 0u) << point;
    ASSERT_TRUE((*engine)->CompactSegments().ok()) << point;
    EXPECT_EQ((*engine)->update_counters().segment_count, 1u) << point;
    engine->reset();
    auto reopened = XRankEngine::Open(BaseCollection(), DiskOptions(dir));
    ASSERT_TRUE(reopened.ok()) << point << ": " << reopened.status();
    auto response = (*reopened)->Query("shared", 20, IndexKind::kDil);
    ASSERT_TRUE(response.ok()) << point;
    EXPECT_GT(CountDocResults(*response, LiveUri(1)), 0u) << point;
    EXPECT_GT(CountDocResults(*response, LiveUri(2)), 0u) << point;
  }
}

// Satellite: CompactDeletions' crash windows. An injected fault between the
// per-kind index rebuilds must leave the committed base index serving, and
// a retry must complete the compaction.
TEST_F(LiveUpdateTest, CompactDeletionsRebuildFaultIsRecoverable) {
  std::string dir = FreshDir("compactdel");
  auto engine = XRankEngine::Build(BaseCollection(), DiskOptions(dir));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->DeleteDocument("d2.xml").ok());
  auto filtered = (*engine)->Query("shared alpha", 20, IndexKind::kDil);
  ASSERT_TRUE(filtered.ok());

  for (uint64_t skip : {0u, 1u}) {  // fault before the 1st / 2nd rebuild
    FailPointSpec spec;
    spec.skip = skip;
    spec.max_triggers = 1;
    ScopedFailPoint fp("compact.rebuild", spec);
    EXPECT_FALSE((*engine)->CompactDeletions().ok());
    auto during = (*engine)->Query("shared alpha", 20, IndexKind::kDil);
    ASSERT_TRUE(during.ok());
    ExpectSameResults(*during, *filtered, "during failed compaction");
  }
  // Commit-protocol windows after the rebuilds.
  for (const char* point :
       {"index_commit.before_rename", "index_commit.before_manifest"}) {
    FailPointSpec spec;
    spec.max_triggers = 1;
    ScopedFailPoint fp(point, spec);
    EXPECT_FALSE((*engine)->CompactDeletions().ok()) << point;
    auto during = (*engine)->Query("shared alpha", 20, IndexKind::kDil);
    ASSERT_TRUE(during.ok()) << point;
    ExpectSameResults(*during, *filtered, point);
  }
  ASSERT_TRUE((*engine)->CompactDeletions().ok());
  auto after = (*engine)->Query("shared alpha", 20, IndexKind::kDil);
  ASSERT_TRUE(after.ok());
  ExpectSameResults(*after, *filtered, "after retried compaction");
  engine->reset();
  auto reopened = XRankEngine::Open(BaseCollection(), DiskOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->deleted_document_count(), 1u);
}

// --- result-cache warmth across flush ---

TEST_F(LiveUpdateTest, ResultCacheStaysWarmAcrossFlushAndCompaction) {
  auto engine = XRankEngine::Build(BaseCollection(), InlineOptions());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());

  auto warm = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm->stats.result_cache_hit);
  auto hit = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->stats.result_cache_hit);

  // A flush regroups identical content: the cached entry must survive.
  ASSERT_TRUE((*engine)->Flush().ok());
  auto after_flush = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(after_flush.ok());
  EXPECT_TRUE(after_flush->stats.result_cache_hit);
  ExpectSameResults(*after_flush, *warm, "cached across flush");

  // Merge compaction with nothing dropped also preserves content.
  ASSERT_TRUE((*engine)->AddDocument(LiveUri(2), LiveXml(2)).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  auto remiss = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(remiss.ok());
  EXPECT_FALSE(remiss->stats.result_cache_hit);  // the add invalidated
  ASSERT_TRUE((*engine)->CompactSegments().ok());
  auto after_compact = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(after_compact.ok());
  EXPECT_TRUE(after_compact->stats.result_cache_hit);

  // An add is a content change: the next lookup misses by key.
  ASSERT_TRUE((*engine)->AddDocument(LiveUri(3), LiveXml(3)).ok());
  auto after_add = (*engine)->Query("shared alpha", 20, IndexKind::kHdil);
  ASSERT_TRUE(after_add.ok());
  EXPECT_FALSE(after_add->stats.result_cache_hit);
}

// --- backpressure ---

TEST_F(LiveUpdateTest, BackpressureSurfacesInCountersAndFailureUnblocks) {
  std::string dir = FreshDir("backpressure");
  EngineOptions options = DiskOptions(dir);
  options.background_maintenance = true;
  options.max_delta_documents = 2;
  options.flush_delta_documents = 2;
  auto engine = XRankEngine::Build(BaseCollection(), options);
  ASSERT_TRUE(engine.ok());

  {
    // Make every background flush fail, so the delta stays pinned at the
    // bound no matter how often maintenance retries.
    FailPointSpec spec;
    ScopedFailPoint fp("segment_flush.before_rename", spec);
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(1), LiveXml(1)).ok());
    ASSERT_TRUE((*engine)->AddDocument(LiveUri(2), LiveXml(2)).ok());
    EXPECT_FALSE((*engine)->WaitForMaintenance().ok());
    // The delta is full and maintenance has failed: the blocked producer
    // is woken with the sticky failure instead of hanging forever.
    EXPECT_FALSE((*engine)->AddDocument(LiveUri(3), LiveXml(3)).ok());
    auto counters = (*engine)->update_counters();
    EXPECT_GE(counters.backpressure_waits, 1u);
  }

  // Failpoint disarmed: an explicit flush drains the delta and the
  // producer gets through.
  ASSERT_TRUE((*engine)->Flush().ok());
  EXPECT_TRUE((*engine)->AddDocument(LiveUri(3), LiveXml(3)).ok());
  ASSERT_TRUE((*engine)->WaitForMaintenance().ok());
}

// --- snapshot isolation under concurrency ---

TEST_F(LiveUpdateTest, QueriesNeverObservePartialSwapsDuringMaintenance) {
  EngineOptions options = InlineOptions();
  options.cold_cache_per_query = false;  // concurrent queries share pools
  options.result_cache_entries = 0;      // force real execution every time
  auto engine = XRankEngine::Build(BaseCollection(), options);
  ASSERT_TRUE(engine.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = (*engine)->Query("shared", 20, IndexKind::kDil);
        if (!response.ok()) {
          failed.store(true);
          return;
        }
        // The base collection is never mutated: every snapshot must hold
        // at least the three base documents.
        if (response->results.empty()) {
          failed.store(true);
          return;
        }
        queries_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 1; round <= 10 && !failed.load(); ++round) {
    ASSERT_TRUE(
        (*engine)->AddDocument(LiveUri(round), LiveXml(round)).ok());
    ASSERT_TRUE((*engine)->Flush().ok());
    if (round % 3 == 0) {
      ASSERT_TRUE((*engine)->CompactSegments().ok());
    }
  }
  // Keep the readers running until they have demonstrably overlapped the
  // maintenance above (bounded: give up after ~2 s).
  for (int spin = 0; spin < 2000 && queries_ok.load() < 50 && !failed.load();
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(queries_ok.load(), 0u);
  auto response = (*engine)->Query("shared", 40, IndexKind::kDil);
  ASSERT_TRUE(response.ok());
  for (int round = 1; round <= 10; ++round) {
    EXPECT_GT(CountDocResults(*response, LiveUri(round)), 0u) << round;
  }
}

}  // namespace
}  // namespace xrank
