#ifndef XRANK_GRAPH_GRAPH_H_
#define XRANK_GRAPH_GRAPH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dewey/dewey_id.h"

namespace xrank::graph {

// Index of a node within an XmlGraph.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

// The hyperlinked XML graph G = (N, CE, HE) of paper Section 2.1.
// N = elements ∪ values; CE = containment edges (implicit in the tree
// layout); HE = hyperlink edges (resolved IDREFs and XLinks).
//
// Element nodes carry a Dewey ID whose first component is the document
// index; value nodes carry the text and inherit their parent's context.
// Attributes of the source XML appear here as ordinary sub-elements with a
// single value child (paper convention, Section 2.1).
class XmlGraph {
 public:
  enum class Kind : uint8_t { kElement, kValue };

  struct NodeData {
    Kind kind = Kind::kElement;
    uint32_t name_id = 0;       // interned tag name (elements only)
    NodeId parent = kInvalidNode;
    uint32_t document = 0;      // index into documents()
    // Element children in sibling-position order; the i-th entry has Dewey
    // component i appended to this element's Dewey ID.
    std::vector<NodeId> element_children;
    // Value (text) children.
    std::vector<NodeId> value_children;
    std::string text;           // value nodes only
    dewey::DeweyId dewey_id;    // element nodes only
  };

  struct DocumentInfo {
    std::string uri;
    NodeId root = kInvalidNode;
    uint32_t element_count = 0;  // N_de(v) for every v in this document
  };

  XmlGraph() = default;
  XmlGraph(XmlGraph&&) = default;
  XmlGraph& operator=(XmlGraph&&) = default;
  XmlGraph(const XmlGraph&) = delete;
  XmlGraph& operator=(const XmlGraph&) = delete;

  size_t node_count() const { return nodes_.size(); }
  const NodeData& node(NodeId id) const { return nodes_[id]; }
  bool is_element(NodeId id) const {
    return nodes_[id].kind == Kind::kElement;
  }

  // Total number of element nodes (N_e in the ElemRank formulas).
  size_t element_count() const { return element_count_; }

  const std::vector<DocumentInfo>& documents() const { return documents_; }
  size_t document_count() const { return documents_.size(); }

  // Outgoing hyperlink targets of u (HE edges); empty for most nodes.
  const std::vector<NodeId>& hyperlinks(NodeId u) const;
  size_t total_hyperlink_count() const { return total_hyperlinks_; }

  // Tag name of an element node.
  std::string_view name(NodeId id) const {
    return names_[nodes_[id].name_id];
  }

  // Looks up an element by Dewey ID; NotFound if no such element.
  Result<NodeId> FindByDewey(const dewey::DeweyId& id) const;

  // Concatenated text of all value children of `id` (its direct text).
  std::string DirectText(NodeId id) const;

  // Concatenated text of the whole subtree under `id`, document order —
  // or its first `max_bytes` bytes: the walk stops once that many are
  // gathered, so a short prefix of a huge subtree stays cheap.
  std::string DeepText(NodeId id,
                       size_t max_bytes = std::string::npos) const;

  // --- mutation interface used by GraphBuilder ---
  uint32_t InternName(std::string_view tag);
  NodeId AddElement(uint32_t name_id, NodeId parent, uint32_t document);
  NodeId AddValue(std::string text, NodeId parent, uint32_t document);
  uint32_t AddDocument(std::string uri);
  void SetDocumentRoot(uint32_t doc, NodeId root);
  void AddHyperlink(NodeId from, NodeId to);
  // Assigns Dewey IDs and per-document element counts; call once after all
  // nodes are added.
  void FinalizeStructure();

 private:
  void AssignDeweyIds(NodeId element, const dewey::DeweyId& id);

  std::vector<NodeData> nodes_;
  std::vector<DocumentInfo> documents_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_index_;
  std::vector<std::pair<NodeId, NodeId>> hyperlink_edges_;  // staging
  // Resolved adjacency, indexed by node; built in FinalizeStructure.
  std::vector<std::vector<NodeId>> hyperlink_adjacency_;
  size_t element_count_ = 0;
  size_t total_hyperlinks_ = 0;
};

}  // namespace xrank::graph

#endif  // XRANK_GRAPH_GRAPH_H_
