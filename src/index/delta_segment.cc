#include "index/delta_segment.h"

#include <utility>

#include "index/dil_index.h"
#include "xml/parser.h"

namespace xrank::index {

namespace {

// Parses every source body. Local document i is sources[i]; the record's
// uri becomes the document uri (graph-level link resolution and result
// decoration both read it).
Result<std::vector<xml::Document>> ParseSources(
    const std::vector<storage::LogRecord>& sources) {
  std::vector<xml::Document> documents;
  documents.reserve(sources.size());
  for (const storage::LogRecord& record : sources) {
    if (record.type != storage::LogRecord::Type::kAddDocument) {
      return Status::InvalidArgument(
          "segment sources must be AddDocument records");
    }
    XRANK_ASSIGN_OR_RETURN(xml::Document doc,
                           xml::ParseDocument(record.body, record.uri));
    documents.push_back(std::move(doc));
  }
  return documents;
}

// The shared build steps of BuildLiveSegment and OpenLiveSegment: graph,
// per-document ranks, and the alignment check between the two. Fills in
// everything except the physical index and the pool.
Status BuildSegmentState(const std::vector<xml::Document>& documents,
                         const LiveSegmentOptions& options,
                         LiveSegment* segment) {
  // Per-document ElemRank: every document is ranked over its own graph in
  // isolation (see the header for why). Node ids within a single-document
  // graph are assigned by the same traversal as within the combined graph,
  // so the concatenation below lines up node-for-node.
  std::vector<std::vector<double>> per_doc_ranks;
  per_doc_ranks.reserve(documents.size());
  for (const xml::Document& doc : documents) {
    graph::GraphBuilder solo_builder(options.graph);
    XRANK_RETURN_NOT_OK(solo_builder.AddDocument(doc));
    XRANK_ASSIGN_OR_RETURN(graph::XmlGraph solo,
                           std::move(solo_builder).Finalize());
    XRANK_ASSIGN_OR_RETURN(rank::ElemRankResult ranked,
                           rank::ComputeElemRank(solo, options.elem_rank));
    per_doc_ranks.push_back(std::move(ranked.ranks));
  }

  graph::GraphBuilder builder(options.graph);
  for (const xml::Document& doc : documents) {
    XRANK_RETURN_NOT_OK(builder.AddDocument(doc));
  }
  XRANK_ASSIGN_OR_RETURN(segment->graph, std::move(builder).Finalize());

  // Concatenate the per-document vectors, verifying the combined graph's
  // numbering as we go: document d's nodes must occupy one contiguous run
  // whose length equals d's single-document node count. A mismatch means
  // the builder's numbering contract changed and the ranks below would be
  // attached to the wrong elements — corrupt silently — so refuse loudly.
  segment->elem_ranks.clear();
  segment->elem_ranks.reserve(segment->graph.node_count());
  graph::NodeId next = 0;
  for (size_t d = 0; d < documents.size(); ++d) {
    const std::vector<double>& ranks = per_doc_ranks[d];
    for (size_t i = 0; i < ranks.size(); ++i, ++next) {
      if (next >= segment->graph.node_count() ||
          segment->graph.node(next).document != d) {
        return Status::Internal(
            "segment graph node numbering does not align with per-document "
            "rank vectors (document " +
            std::to_string(d) + ", node " + std::to_string(next) + ")");
      }
      segment->elem_ranks.push_back(ranks[i]);
    }
  }
  if (next != segment->graph.node_count()) {
    return Status::Internal(
        "segment graph has " + std::to_string(segment->graph.node_count()) +
        " nodes but per-document graphs total " + std::to_string(next));
  }
  return Status::OK();
}

Status CheckSeqOrder(const std::vector<storage::LogRecord>& sources) {
  for (size_t i = 1; i < sources.size(); ++i) {
    if (sources[i].seq <= sources[i - 1].seq) {
      return Status::InvalidArgument(
          "segment source records out of seq order");
    }
  }
  return Status::OK();
}

void AttachPool(LiveSegment* segment, const LiveSegmentOptions& options) {
  segment->cost_model = std::make_unique<storage::CostModel>(options.cost);
  segment->pool = std::make_unique<storage::BufferPool>(
      segment->built.file.get(), options.buffer_pool_pages,
      segment->cost_model.get(), options.buffer_pool_shards);
}

}  // namespace

std::optional<uint32_t> LiveSegment::FindUri(std::string_view uri) const {
  for (uint32_t i = 0; i < sources.size(); ++i) {
    if (sources[i].uri == uri) return i;
  }
  return std::nullopt;
}

Result<std::shared_ptr<LiveSegment>> BuildLiveSegment(
    std::vector<storage::LogRecord> sources, uint32_t doc_base,
    const LiveSegmentOptions& options,
    std::unique_ptr<storage::PageFile> file) {
  if (sources.empty()) {
    return Status::InvalidArgument("cannot build an empty segment");
  }
  XRANK_RETURN_NOT_OK(CheckSeqOrder(sources));
  auto segment = std::make_shared<LiveSegment>();
  segment->doc_base = doc_base;
  segment->first_seq = sources.front().seq;
  segment->last_seq = sources.back().seq;
  segment->sources = std::move(sources);

  XRANK_ASSIGN_OR_RETURN(std::vector<xml::Document> documents,
                         ParseSources(segment->sources));
  XRANK_RETURN_NOT_OK(BuildSegmentState(documents, options, segment.get()));

  ExtractionOptions extraction = options.extraction;
  extraction.exclude_documents.clear();
  XRANK_ASSIGN_OR_RETURN(
      ExtractionResult extracted,
      ExtractPostings(segment->graph, segment->elem_ranks, extraction));
  XRANK_ASSIGN_OR_RETURN(segment->built,
                         BuildDilIndex(extracted.dewey_postings,
                                       std::move(file), options.build));
  AttachPool(segment.get(), options);
  return segment;
}

Result<std::shared_ptr<LiveSegment>> OpenLiveSegment(
    const std::string& dir, const SegmentManifestEntry& entry,
    const LiveSegmentOptions& options, bool verify) {
  if (verify) {
    XRANK_RETURN_NOT_OK(VerifySegmentEntry(dir, entry));
  }
  std::string docs_path = dir + "/" + entry.docs_file;
  // A committed docs file is never appended to after its MANIFEST commit,
  // so any damage — including a "torn tail" — is real corruption.
  XRANK_ASSIGN_OR_RETURN(storage::LogReadResult read,
                         storage::ReadLogFile(docs_path,
                                              /*allow_torn_tail=*/false));
  if (read.records.size() != entry.doc_count) {
    return Status::Corruption(
        "'" + docs_path + "' holds " + std::to_string(read.records.size()) +
        " documents, MANIFEST expects " + std::to_string(entry.doc_count));
  }
  XRANK_RETURN_NOT_OK(CheckSeqOrder(read.records));
  if (read.records.front().seq != entry.first_seq ||
      read.records.back().seq != entry.last_seq) {
    return Status::Corruption("'" + docs_path +
                              "' seq range does not match MANIFEST");
  }

  auto segment = std::make_shared<LiveSegment>();
  segment->doc_base = entry.doc_base;
  segment->first_seq = entry.first_seq;
  segment->last_seq = entry.last_seq;
  segment->sources = std::move(read.records);

  XRANK_ASSIGN_OR_RETURN(std::vector<xml::Document> documents,
                         ParseSources(segment->sources));
  XRANK_RETURN_NOT_OK(BuildSegmentState(documents, options, segment.get()));

  std::string index_path = dir + "/" + entry.index.file;
  XRANK_ASSIGN_OR_RETURN(std::unique_ptr<storage::PageFile> file,
                         storage::PageFile::OpenOnDisk(index_path));
  if (file->page_count() != entry.index.page_count) {
    return Status::Corruption(
        "'" + index_path + "' has " + std::to_string(file->page_count()) +
        " pages, MANIFEST expects " +
        std::to_string(entry.index.page_count));
  }
  XRANK_ASSIGN_OR_RETURN(segment->built, OpenIndex(std::move(file)));
  if (segment->built.kind != IndexKind::kDil) {
    return Status::Corruption("'" + index_path + "' is not a DIL index");
  }
  if (!(segment->built.lexicon.format_spec() == entry.index.format)) {
    return Status::Corruption("'" + index_path +
                              "' posting format does not match MANIFEST");
  }
  AttachPool(segment.get(), options);
  return segment;
}

}  // namespace xrank::index
