#include "rank/elem_rank.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/thread_pool.h"

namespace xrank::rank {

namespace {

using graph::kInvalidNode;
using graph::NodeId;
using graph::XmlGraph;

// Precomputed per-element structural facts shared by all formula variants.
struct ElementFacts {
  std::vector<NodeId> elements;        // all element node ids
  std::vector<uint32_t> out_links;     // N_h(u)
  std::vector<uint32_t> child_count;   // N_c(u), element children only
  std::vector<uint8_t> has_parent;     // document roots have none
  std::vector<double> jump_weight;     // random-jump distribution over nodes

  // Pull-style CSR over the constant edge coefficients: for destination v,
  // entries [in_begin[v], in_begin[v+1]) hold (source, weight) pairs, and
  // dst[v] = Σ weight · src[source] + jump_mass · jump_weight[v]. The
  // coefficients are fixed across iterations because they depend only on
  // the graph structure and the navigation probabilities, never on ranks.
  std::vector<uint32_t> in_begin;      // node_count + 1
  std::vector<NodeId> in_src;
  std::vector<double> in_weight;
  // Per-source dangling coefficient: dangling = Σ dangling_coeff[u] · src[u].
  std::vector<double> dangling_coeff;
};

ElementFacts CollectFacts(const XmlGraph& graph, Formula formula) {
  ElementFacts facts;
  size_t n = graph.node_count();
  facts.out_links.assign(n, 0);
  facts.child_count.assign(n, 0);
  facts.has_parent.assign(n, 0);
  facts.jump_weight.assign(n, 0.0);
  double nd = static_cast<double>(graph.document_count());
  for (NodeId u = 0; u < n; ++u) {
    if (!graph.is_element(u)) continue;
    facts.elements.push_back(u);
    const auto& data = graph.node(u);
    facts.out_links[u] = static_cast<uint32_t>(graph.hyperlinks(u).size());
    facts.child_count[u] =
        static_cast<uint32_t>(data.element_children.size());
    facts.has_parent[u] = data.parent != kInvalidNode ? 1 : 0;
    if (formula == Formula::kFinal) {
      // (1 - d1 - d2 - d3) mass is spread as 1/(N_d · N_de(v)): uniform over
      // documents, then uniform within the document (paper final formula).
      double nde =
          static_cast<double>(graph.documents()[data.document].element_count);
      facts.jump_weight[u] = 1.0 / (nd * nde);
    } else {
      facts.jump_weight[u] = 1.0;  // normalized below
    }
  }
  if (formula != Formula::kFinal && !facts.elements.empty()) {
    double uniform = 1.0 / static_cast<double>(facts.elements.size());
    for (NodeId u : facts.elements) facts.jump_weight[u] = uniform;
  }
  return facts;
}

// Flattens the per-node edge shares of the push loop into the pull CSR.
// Edges are staged in the push loop's emission order (hyperlinks, children,
// parent, ascending u) and placed with a stable counting sort, so each
// destination accumulates its sources in the same order the push-style
// iteration adds them.
void BuildPullCsr(const XmlGraph& graph, const ElemRankOptions& options,
                  double navigation, ElementFacts* facts) {
  size_t n = graph.node_count();
  struct Edge {
    NodeId dst;
    NodeId src;
    double weight;
  };
  std::vector<Edge> edges;
  facts->dangling_coeff.assign(n, 0.0);

  for (NodeId u : facts->elements) {
    const auto& data = graph.node(u);
    const auto& links = graph.hyperlinks(u);
    uint32_t nh = facts->out_links[u];
    uint32_t nc = facts->child_count[u];
    bool parent = facts->has_parent[u] != 0;
    double& dangling = facts->dangling_coeff[u];

    switch (options.formula) {
      case Formula::kPageRankAdaptation: {
        uint32_t out = nh + nc;
        if (out == 0) {
          dangling = navigation;
          break;
        }
        double share = navigation / out;
        for (NodeId v : links) edges.push_back({v, u, share});
        for (NodeId v : data.element_children) edges.push_back({v, u, share});
        break;
      }
      case Formula::kBidirectional: {
        double share = navigation / (nh + nc + 1);
        for (NodeId v : links) edges.push_back({v, u, share});
        for (NodeId v : data.element_children) edges.push_back({v, u, share});
        if (parent) {
          edges.push_back({data.parent, u, share});
        } else {
          dangling += share;
        }
        if (nh == 0 && nc == 0 && !parent) {
          dangling += navigation - share;
        }
        break;
      }
      case Formula::kDiscriminated: {
        if (nh > 0) {
          double share = options.d1 / nh;
          for (NodeId v : links) edges.push_back({v, u, share});
        } else {
          dangling += options.d1;
        }
        double share = options.d2 / (nc + 1);
        for (NodeId v : data.element_children) edges.push_back({v, u, share});
        if (parent) {
          edges.push_back({data.parent, u, share});
        } else {
          dangling += share;
        }
        break;
      }
      case Formula::kFinal: {
        double available = 0.0;
        if (nh > 0) available += options.d1;
        if (nc > 0) available += options.d2;
        if (parent) available += options.d3;
        if (available == 0.0) {
          dangling = navigation;
          break;
        }
        double scale = navigation / available;
        if (nh > 0) {
          double share = options.d1 * scale / nh;
          for (NodeId v : links) edges.push_back({v, u, share});
        }
        if (nc > 0) {
          double share = options.d2 * scale / nc;
          for (NodeId v : data.element_children) edges.push_back({v, u, share});
        }
        if (parent) {
          edges.push_back({data.parent, u, options.d3 * scale});
        }
        break;
      }
    }
  }

  facts->in_begin.assign(n + 1, 0);
  for (const Edge& edge : edges) ++facts->in_begin[edge.dst + 1];
  for (size_t v = 0; v < n; ++v) facts->in_begin[v + 1] += facts->in_begin[v];
  facts->in_src.resize(edges.size());
  facts->in_weight.resize(edges.size());
  std::vector<uint32_t> cursor(facts->in_begin.begin(),
                               facts->in_begin.end() - 1);
  for (const Edge& edge : edges) {
    uint32_t pos = cursor[edge.dst]++;
    facts->in_src[pos] = edge.src;
    facts->in_weight[pos] = edge.weight;
  }
}

// One push-style iteration — the exact sequential reference path
// (num_threads == 1). `navigation` is the total probability of following
// edges (d for the early variants, d1+d2+d3 for the final one); mass that
// cannot be pushed anywhere (dangling) is redistributed through the jump
// distribution, preserving Σ ranks = 1.
void Iterate(const XmlGraph& graph, const ElemRankOptions& options,
             double navigation, const ElementFacts& facts,
             const std::vector<double>& src, std::vector<double>* dst) {
  double base = 1.0 - navigation;

  std::fill(dst->begin(), dst->end(), 0.0);
  double dangling = 0.0;

  for (NodeId u : facts.elements) {
    double rank = src[u];
    if (rank == 0.0) continue;
    const auto& data = graph.node(u);
    const auto& links = graph.hyperlinks(u);
    uint32_t nh = facts.out_links[u];
    uint32_t nc = facts.child_count[u];
    bool parent = facts.has_parent[u] != 0;

    switch (options.formula) {
      case Formula::kPageRankAdaptation: {
        // All edges directed forward; out-degree = N_h + N_c.
        uint32_t out = nh + nc;
        if (out == 0) {
          dangling += navigation * rank;
          break;
        }
        double share = navigation * rank / out;
        for (NodeId v : links) (*dst)[v] += share;
        for (NodeId v : data.element_children) (*dst)[v] += share;
        break;
      }
      case Formula::kBidirectional: {
        // E = HE ∪ CE ∪ CE⁻¹, uniform weight 1/(N_h + N_c + 1). The paper's
        // formula uses the +1 denominator unconditionally; when a root has
        // no parent the reverse-containment share becomes dangling mass.
        double share = navigation * rank / (nh + nc + 1);
        for (NodeId v : links) (*dst)[v] += share;
        for (NodeId v : data.element_children) (*dst)[v] += share;
        if (parent) {
          (*dst)[data.parent] += share;
        } else {
          dangling += share;
        }
        if (nh == 0 && nc == 0 && !parent) {
          // Isolated single element: everything dangles.
          dangling += navigation * rank - share;
        }
        break;
      }
      case Formula::kDiscriminated: {
        // d1 over hyperlinks, d2 over containment (forward + reverse,
        // denominator N_c + 1).
        double rank_d1 = options.d1 * rank;
        if (nh > 0) {
          double share = rank_d1 / nh;
          for (NodeId v : links) (*dst)[v] += share;
        } else {
          dangling += rank_d1;
        }
        double share = options.d2 * rank / (nc + 1);
        for (NodeId v : data.element_children) (*dst)[v] += share;
        if (parent) {
          (*dst)[data.parent] += share;
        } else {
          dangling += share;
        }
        break;
      }
      case Formula::kFinal: {
        // Proportional re-split of d1+d2+d3 among available alternatives
        // (paper Section 3.1, last paragraph).
        double available = 0.0;
        if (nh > 0) available += options.d1;
        if (nc > 0) available += options.d2;
        if (parent) available += options.d3;
        if (available == 0.0) {
          dangling += navigation * rank;
          break;
        }
        double scale = navigation / available;
        if (nh > 0) {
          double share = options.d1 * scale * rank / nh;
          for (NodeId v : links) (*dst)[v] += share;
        }
        if (nc > 0) {
          double share = options.d2 * scale * rank / nc;
          for (NodeId v : data.element_children) (*dst)[v] += share;
        }
        if (parent) {
          (*dst)[data.parent] += options.d3 * scale * rank;
        }
        break;
      }
    }
  }

  // Random-jump mass plus redistributed dangling mass.
  double jump_mass = base + dangling;
  for (NodeId u : facts.elements) {
    (*dst)[u] += jump_mass * facts.jump_weight[u];
  }
}

// Chunk size for the parallel passes. Fixed (independent of the thread
// count) so per-chunk partial reductions combine identically however many
// workers the pool has.
constexpr size_t kPullGrain = 4096;

// One pull-style iteration over the CSR: every destination node is computed
// wholly inside one chunk (no write sharing, no atomics); the dangling and
// L∞-delta reductions go through per-chunk partials combined in chunk
// order. Returns the L∞ delta against `src`.
double IteratePull(ThreadPool* pool, const ElementFacts& facts, double base,
                   const std::vector<double>& src, std::vector<double>* dst) {
  size_t n = src.size();
  size_t chunk_count = ThreadPool::NumChunks(0, n, kPullGrain);

  // Pass 1: dangling mass.
  std::vector<double> dangling_partial(chunk_count, 0.0);
  pool->ParallelFor(0, n, kPullGrain,
                    [&](size_t chunk_begin, size_t chunk_end, size_t chunk) {
                      double sum = 0.0;
                      for (size_t u = chunk_begin; u < chunk_end; ++u) {
                        sum += facts.dangling_coeff[u] * src[u];
                      }
                      dangling_partial[chunk] = sum;
                    });
  double dangling = 0.0;
  for (double partial : dangling_partial) dangling += partial;
  double jump_mass = base + dangling;

  // Pass 2: pull each destination's incoming mass and fold in the jump
  // mass; value nodes have no in-edges and zero jump weight, so they stay
  // at exactly 0.
  std::vector<double> delta_partial(chunk_count, 0.0);
  pool->ParallelFor(
      0, n, kPullGrain,
      [&](size_t chunk_begin, size_t chunk_end, size_t chunk) {
        double delta = 0.0;
        for (size_t v = chunk_begin; v < chunk_end; ++v) {
          double sum = 0.0;
          for (uint32_t k = facts.in_begin[v]; k < facts.in_begin[v + 1];
               ++k) {
            sum += facts.in_weight[k] * src[facts.in_src[k]];
          }
          sum += jump_mass * facts.jump_weight[v];
          (*dst)[v] = sum;
          delta = std::max(delta, std::fabs(sum - src[v]));
        }
        delta_partial[chunk] = delta;
      });
  double delta = 0.0;
  for (double partial : delta_partial) delta = std::max(delta, partial);
  return delta;
}

}  // namespace

Result<ElemRankResult> ComputeElemRank(const XmlGraph& graph,
                                       const ElemRankOptions& options) {
  if (graph.element_count() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  double navigation = 0.0;
  switch (options.formula) {
    case Formula::kPageRankAdaptation:
    case Formula::kBidirectional:
      navigation = options.d;
      break;
    case Formula::kDiscriminated:
      navigation = options.d1 + options.d2;
      break;
    case Formula::kFinal:
      navigation = options.d1 + options.d2 + options.d3;
      break;
  }
  if (navigation <= 0.0 || navigation >= 1.0) {
    return Status::InvalidArgument(
        "navigation probability must be in (0,1); got " +
        std::to_string(navigation));
  }
  if (options.d1 < 0 || options.d2 < 0 || options.d3 < 0) {
    return Status::InvalidArgument("negative navigation probability");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }

  ElementFacts facts = CollectFacts(graph, options.formula);
  bool legacy = options.num_threads == 1;
  std::unique_ptr<ThreadPool> pool;
  if (!legacy) {
    BuildPullCsr(graph, options, navigation, &facts);
    // A graph that fits in one chunk (each single-document graph a live
    // segment ranks, for one) has no work to share: rank it on the calling
    // thread instead of starting workers. The ranks are the same for every
    // thread count.
    bool one_chunk =
        ThreadPool::NumChunks(0, graph.node_count(), kPullGrain) <= 1;
    pool = std::make_unique<ThreadPool>(one_chunk ? 1 : options.num_threads);
  }

  size_t n = graph.node_count();
  std::vector<double> current(n, 0.0);
  std::vector<double> next(n, 0.0);
  double uniform = 1.0 / static_cast<double>(facts.elements.size());
  for (NodeId u : facts.elements) current[u] = uniform;

  ElemRankResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double delta;
    if (legacy) {
      Iterate(graph, options, navigation, facts, current, &next);
      delta = 0.0;
      for (NodeId u : facts.elements) {
        delta = std::max(delta, std::fabs(next[u] - current[u]));
      }
    } else {
      delta = IteratePull(pool.get(), facts, 1.0 - navigation, current, &next);
    }
    current.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.convergence_threshold) {
      result.converged = true;
      break;
    }
  }
  result.ranks = std::move(current);
  return result;
}

}  // namespace xrank::rank
