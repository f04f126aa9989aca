// Arena-native graph observables: the paper's Section 4.2 measurements
// computed straight from the flat view storage, with no edge-list or
// UndirectedGraph materialization.
//
// The exact pipeline (graph::UndirectedGraph::from_network + graph::metrics)
// builds an explicit edge vector of N·c pairs, canonicalizes both
// orientations and sorts them — ~3×10⁷ pairs per snapshot at 10⁶ nodes,
// which confines the science to networks two orders of magnitude smaller
// than the engines can run. GraphCensus replaces that per-snapshot graph
// object with a reusable measurement pass over the packed descriptor array:
//
//   rebuild(network) —
//     pass 1  walks every live slot's descriptors once, counting live
//             out-degree (self and dead links skipped, exactly the edges
//             from_network keeps) and per-target in-degree;
//     pass 2  fills an implicit in-edge CSR into persistent buffers (the
//             count/fill idiom); iterating sources in ascending address
//             order makes every in-list arrive sorted for free;
//     pass 3  undirected-union degree per node as
//                out + in − |out ∩ in|
//             (the mutual-edge correction: stamp the node's in-list with a
//             fresh epoch, then count view targets carrying the stamp),
//             streamed into the degree histogram and the three degree
//             summaries;
//     pass 4  connected components by union-find over view slots (path
//             halving + union by size).
//
//   Sampled estimators then run on demand over the implicit adjacency — a
//   node's undirected neighbourhood is its view span unioned with its
//   in-list — reusing the epoch stamps, so no per-call clearing of N-sized
//   arrays:
//     clustering   stamps the neighbourhood N(v), counts the directed
//                  edges u→w with u, w ∈ N(v) by walking each u's view,
//                  and halves the hits whose reverse edge also exists —
//                  O(Σ_u |view(u)|) per node instead of a test per pair;
//     path length  a multi-source bit-parallel BFS (MS-BFS, Then et al.,
//                  VLDB 2014): sources run in batches of 16, one bit each
//                  in per-slot seen/front/next masks, and every level is
//                  one ascending sweep of the live list, so the view and
//                  in-CSR reads stream instead of hopping per source. The
//                  distance total is an exact integer, so converting it
//                  once to double equals the exact module's running sum.
//
// Equivalence contract (pinned by tests/obs_test.cpp):
//   - degree histogram, component count/largest/size multiset: bit-equal
//     to graph::metrics on the exact snapshot graph;
//   - degree_stats(): bit-equal to graph::degree_summary (same accumulation
//     order: live addresses ascending are exactly the exact graph's
//     re-indexed vertices ascending);
//   - clustering_sampled / path_length_sampled: given the same Rng state,
//     bit-equal to the graph::metrics sampled estimators (same draw
//     sequence; clustering sums the same per-node coefficients in pick
//     order, path length sums exact integers), hence trivially inside any
//     error bound the exact module satisfies.
//
// Allocation discipline: every buffer is a persistent member sized on the
// first rebuild (the warm-up); subsequent rebuilds of a same-sized network
// allocate nothing — the in-CSR is reserved at its hard ceiling of
// n·view_capacity entries, and the degree-indexed buffers carry 2x
// headroom over the warm-up snapshot's max degree, so re-allocating one
// takes a doubling of the max degree (a protocol regime change, not
// steady-state drift). bench/scale_metrics verifies the
// zero-steady-state-allocation claim with a whole-process operator-new
// counter.
//
// Lifetime: rebuild() stores a pointer to the network; the census (and any
// estimator call) is valid until the network is mutated or destroyed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/sim/network.hpp"

namespace pss::obs {

/// Degree distribution moments; field-for-field the exact module's
/// graph::DegreeSummary (duplicated so pss_obs does not depend on
/// pss_graph — the whole point is to never build its graph).
struct DegreeStats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0;
  double variance = 0;  ///< population variance
};

/// Connectivity summary from the union-find pass.
struct ComponentStats {
  std::size_t count = 0;    ///< number of connected components
  std::size_t largest = 0;  ///< size of the largest component
  /// Live nodes outside the largest component (paper Figure 6 metric).
  std::size_t outside_largest = 0;
};

/// Result of a sampled path-length measurement (mirrors
/// graph::PathLengthResult).
struct PathLengthEstimate {
  double average = 0;             ///< mean distance over reachable ordered pairs
  double reachable_fraction = 1;  ///< reachable ordered pairs / sampled pairs
  std::uint32_t diameter = 0;     ///< max finite distance seen from the sources
};

class GraphCensus {
 public:
  GraphCensus() = default;

  /// Recomputes every streamed observable for the network's current state.
  /// O(N + E) with E = live->live view entries; allocation-free after the
  /// first call on a same-sized network.
  void rebuild(const sim::Network& network);

  // --- Streamed observables (valid after rebuild) --------------------------

  std::size_t live_count() const { return live_list_.size(); }

  /// Live addresses ascending — index i here is vertex i of the exact
  /// snapshot graph, which is what makes the bit-equality contract hold.
  std::span<const NodeId> live_list() const { return live_list_; }

  /// Directed live->live non-self view entries.
  std::uint64_t directed_edge_count() const { return directed_edges_; }

  /// Live nodes' view entries pointing at dead (or never-allocated)
  /// addresses — bit-equal to Network::count_dead_links() on the same
  /// state, streamed out of pass 1 instead of a second O(N·c) walk (the
  /// paper's Figure 7 "overall dead links" metric).
  std::uint64_t dead_link_count() const { return dead_links_; }

  /// Live nodes' view entries pointing at live nodes of a different
  /// partition group — bit-equal to Network::count_cross_partition_links()
  /// (the Section 8 split-memory metric). Zero while unpartitioned.
  std::uint64_t cross_partition_link_count() const { return cross_links_; }

  /// Edges of the undirected union overlay (mutual pairs collapse to one).
  std::uint64_t undirected_edge_count() const { return undirected_edges_; }

  /// Per-node degrees (0 for dead nodes).
  std::uint32_t out_degree(NodeId id) const { return out_deg_[id]; }
  std::uint32_t in_degree(NodeId id) const {
    return static_cast<std::uint32_t>(in_off_[id + 1] - in_off_[id]);
  }
  std::uint32_t undirected_degree(NodeId id) const { return und_deg_[id]; }

  /// counts[d] = live nodes with undirected-union degree d; size is
  /// max degree + 1 — bit-equal to graph::degree_histogram on the exact
  /// snapshot graph.
  std::span<const std::uint64_t> degree_histogram() const { return hist_; }

  /// Union-degree summary — bit-equal to graph::degree_summary.
  const DegreeStats& degree_stats() const { return und_stats_; }
  const DegreeStats& in_degree_stats() const { return in_stats_; }
  const DegreeStats& out_degree_stats() const { return out_stats_; }

  const ComponentStats& components() const { return components_; }

  /// Component sizes, descending — same multiset as
  /// graph::connected_components().sizes on the exact snapshot graph.
  std::span<const std::size_t> component_sizes() const { return comp_sizes_; }

  // --- Sampled estimators (run on demand over the implicit adjacency) ------

  /// Clustering coefficient over `sample` uniformly drawn live nodes
  /// (exact mean of local coefficients when sample >= live_count). Given
  /// the same Rng state, bit-equal to
  /// graph::clustering_coefficient_sampled on the exact snapshot graph.
  double clustering_sampled(std::size_t sample, Rng& rng);

  /// Path length via BFS from `sources` uniformly drawn live nodes (every
  /// node when sources >= live_count). Given the same Rng state, bit-equal
  /// to graph::average_path_length_sampled on the exact snapshot graph.
  PathLengthEstimate path_length_sampled(std::size_t sources, Rng& rng);

  /// Bytes resident in the census's persistent buffers.
  std::size_t storage_bytes() const;

 private:
  /// One slot's MS-BFS state: bit b belongs to the batch's b-th source.
  struct BfsMasks {
    std::uint16_t seen = 0;   ///< sources that have reached this slot
    std::uint16_t front = 0;  ///< sources expanding from it this level
    std::uint16_t next = 0;   ///< sources reaching it at the next level
  };
  static constexpr std::size_t kBfsBatch = 16;  ///< bits in a mask

  std::uint32_t find_root(std::uint32_t x);
  void unite(std::uint32_t a, std::uint32_t b);
  bool has_directed_edge(NodeId from, NodeId to) const;
  double local_clustering(NodeId id);
  /// A fresh stamp value; stamps equal to it mark this epoch's members.
  std::uint32_t next_epoch();

  std::span<const NodeId> in_list(NodeId id) const {
    return {in_nbr_.data() + in_off_[id], in_nbr_.data() + in_off_[id + 1]};
  }

  const sim::Network* net_ = nullptr;
  std::uint64_t directed_edges_ = 0;
  std::uint64_t undirected_edges_ = 0;
  std::uint64_t dead_links_ = 0;
  std::uint64_t cross_links_ = 0;
  DegreeStats und_stats_, in_stats_, out_stats_;
  ComponentStats components_;

  std::vector<NodeId> live_list_;        ///< live addresses, ascending
  std::vector<std::uint32_t> out_deg_;   ///< live out-degree per address
  std::vector<std::uint32_t> und_deg_;   ///< union degree per address
  std::vector<std::size_t> in_off_;      ///< in-CSR offsets (size N+1)
  std::vector<NodeId> in_nbr_;           ///< in-CSR entries, sorted per list
  std::vector<std::uint64_t> hist_;      ///< union-degree histogram
  std::vector<std::uint32_t> parent_;    ///< union-find parent per address
  std::vector<std::uint32_t> comp_size_; ///< union-find size at roots
  std::vector<std::size_t> comp_sizes_;  ///< component sizes, descending

  // Epoch stamps (pass 3, clustering): a fresh epoch clears them in O(1).
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<BfsMasks> bfs_;  ///< path-length BFS state per address

  // Sampling scratch (reuses capacity across estimator calls).
  std::vector<std::size_t> picks_;
  std::vector<std::size_t> pick_scratch_;
  std::vector<NodeId> nbr_union_;  ///< one node's undirected neighbourhood
};

}  // namespace pss::obs
