#include "graph/graph.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace xrank::graph {

namespace {
const std::vector<NodeId> kNoLinks;
}  // namespace

const std::vector<NodeId>& XmlGraph::hyperlinks(NodeId u) const {
  if (u >= hyperlink_adjacency_.size()) return kNoLinks;
  return hyperlink_adjacency_[u];
}

Result<NodeId> XmlGraph::FindByDewey(const dewey::DeweyId& id) const {
  if (id.empty()) return Status::NotFound("empty Dewey ID");
  uint32_t doc = id.component(0);
  if (doc >= documents_.size()) {
    return Status::NotFound("no document " + std::to_string(doc));
  }
  NodeId current = documents_[doc].root;
  for (size_t i = 1; i < id.depth(); ++i) {
    uint32_t position = id.component(i);
    const NodeData& data = nodes_[current];
    if (position >= data.element_children.size()) {
      return Status::NotFound("no element " + id.ToString());
    }
    current = data.element_children[position];
  }
  return current;
}

std::string XmlGraph::DirectText(NodeId id) const {
  std::string out;
  for (NodeId value : nodes_[id].value_children) {
    if (!out.empty()) out.push_back(' ');
    out += nodes_[value].text;
  }
  return out;
}

std::string XmlGraph::DeepText(NodeId id, size_t max_bytes) const {
  const NodeData& data = nodes_[id];
  if (data.kind == Kind::kValue) return data.text.substr(0, max_bytes);
  // Interleave is lost in the graph form (values and elements are kept in
  // separate child vectors); emit values first, then element subtrees. The
  // indexer does not rely on this function for positions.
  std::string out = DirectText(id);
  for (NodeId child : data.element_children) {
    if (out.size() >= max_bytes) break;
    // A child's prefix long enough to fill the budget; at least one byte,
    // so an empty subtree (which adds no separator) is told apart.
    const size_t separator = out.empty() ? 0 : 1;
    std::string piece = DeepText(
        child, std::max<size_t>(1, max_bytes - out.size() - separator));
    if (piece.empty()) continue;
    if (!out.empty()) out.push_back(' ');
    out += piece;
  }
  if (out.size() > max_bytes) out.resize(max_bytes);
  return out;
}

uint32_t XmlGraph::InternName(std::string_view tag) {
  auto it = name_index_.find(std::string(tag));
  if (it != name_index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(tag);
  name_index_.emplace(names_.back(), id);
  return id;
}

NodeId XmlGraph::AddElement(uint32_t name_id, NodeId parent,
                            uint32_t document) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  NodeData data;
  data.kind = Kind::kElement;
  data.name_id = name_id;
  data.parent = parent;
  data.document = document;
  nodes_.push_back(std::move(data));
  if (parent != kInvalidNode) {
    nodes_[parent].element_children.push_back(id);
  }
  ++element_count_;
  return id;
}

NodeId XmlGraph::AddValue(std::string text, NodeId parent, uint32_t document) {
  XRANK_DCHECK(parent != kInvalidNode, "value node needs a parent");
  NodeId id = static_cast<NodeId>(nodes_.size());
  NodeData data;
  data.kind = Kind::kValue;
  data.parent = parent;
  data.document = document;
  data.text = std::move(text);
  nodes_.push_back(std::move(data));
  nodes_[parent].value_children.push_back(id);
  return id;
}

uint32_t XmlGraph::AddDocument(std::string uri) {
  uint32_t doc = static_cast<uint32_t>(documents_.size());
  DocumentInfo info;
  info.uri = std::move(uri);
  documents_.push_back(std::move(info));
  return doc;
}

void XmlGraph::SetDocumentRoot(uint32_t doc, NodeId root) {
  documents_[doc].root = root;
}

void XmlGraph::AddHyperlink(NodeId from, NodeId to) {
  hyperlink_edges_.emplace_back(from, to);
}

void XmlGraph::AssignDeweyIds(NodeId element, const dewey::DeweyId& id) {
  nodes_[element].dewey_id = id;
  const std::vector<NodeId>& children = nodes_[element].element_children;
  for (size_t i = 0; i < children.size(); ++i) {
    AssignDeweyIds(children[i], id.Child(static_cast<uint32_t>(i)));
  }
}

void XmlGraph::FinalizeStructure() {
  for (uint32_t doc = 0; doc < documents_.size(); ++doc) {
    NodeId root = documents_[doc].root;
    XRANK_CHECK(root != kInvalidNode, "document %u has no root", doc);
    AssignDeweyIds(root, dewey::DeweyId({doc}));
  }
  // N_de: elements per document, one pass.
  for (DocumentInfo& info : documents_) info.element_count = 0;
  for (const NodeData& data : nodes_) {
    if (data.kind == Kind::kElement) ++documents_[data.document].element_count;
  }
  hyperlink_adjacency_.assign(nodes_.size(), {});
  for (const auto& [from, to] : hyperlink_edges_) {
    hyperlink_adjacency_[from].push_back(to);
  }
  total_hyperlinks_ = hyperlink_edges_.size();
  hyperlink_edges_.clear();
  hyperlink_edges_.shrink_to_fit();
}

}  // namespace xrank::graph
