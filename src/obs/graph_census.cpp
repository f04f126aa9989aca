#include "pss/obs/graph_census.hpp"

#include <algorithm>
#include <bit>

#include "pss/common/check.hpp"

namespace pss::obs {

namespace {

/// Mirrors graph::degree_summary's accumulation exactly — same casts, same
/// live-ascending (= exact-graph vertex-ascending) order — so the returned
/// doubles are bit-equal, not merely close.
template <typename DegreeFn>
DegreeStats summarize_degrees(std::span<const NodeId> live, DegreeFn degree) {
  DegreeStats s;
  const std::size_t n = live.size();
  if (n == 0) return s;
  s.min = degree(live[0]);
  s.max = degree(live[0]);
  double sum = 0, sum_sq = 0;
  for (const NodeId id : live) {
    const std::size_t d = degree(id);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    sum += static_cast<double>(d);
    sum_sq += static_cast<double>(d) * static_cast<double>(d);
  }
  s.mean = sum / static_cast<double>(n);
  s.variance = sum_sq / static_cast<double>(n) - s.mean * s.mean;
  if (s.variance < 0) s.variance = 0;  // numeric noise
  return s;
}

}  // namespace

void GraphCensus::rebuild(const sim::Network& network) {
  net_ = &network;
  const std::size_t n = network.size();
  const std::size_t c = network.options().view_size;

  // Live list (ascending): index i is vertex i of the exact snapshot graph.
  live_list_.reserve(n);
  live_list_.clear();
  for (NodeId id = 0; id < n; ++id) {
    if (network.is_live(id)) live_list_.push_back(id);
  }

  // Pass 1 — one walk over the packed descriptors: live out-degrees and
  // in-degree counts (the "count" half of the CSR build). The edge filter
  // is exactly UndirectedGraph::from_network's: both endpoints live, no
  // self-loops, out-of-range addresses dropped. The entries the filter
  // discards are themselves paper observables, so they are tallied as they
  // stream past instead of re-walked: dead links (Figure 7's self-healing
  // metric — dead or out-of-range targets, self-loops excluded) and
  // cross-partition links (Section 8 — live targets in another group).
  // Both tallies match Network::count_dead_links /
  // count_cross_partition_links bit for bit (pinned by tests/obs_test.cpp);
  // the separate O(N·c) walks those helpers make are no longer needed when
  // a census was just rebuilt.
  out_deg_.assign(n, 0);
  in_off_.assign(n + 1, 0);
  directed_edges_ = 0;
  dead_links_ = 0;
  cross_links_ = 0;
  const bool partitioned = network.partitioned();
  for (const NodeId v : live_list_) {
    const std::uint32_t gv = partitioned ? network.partition_group(v) : 0;
    std::uint32_t out = 0;
    for (const NodeDescriptor& d : network.view_span(v)) {
      const NodeId w = d.address;
      if (w >= n || !network.is_live(w)) {
        ++dead_links_;
        continue;
      }
      if (w == v) continue;
      if (partitioned && network.partition_group(w) != gv) ++cross_links_;
      ++out;
      ++in_off_[w + 1];
    }
    out_deg_[v] = out;
    directed_edges_ += out;
  }
  for (std::size_t i = 1; i <= n; ++i) in_off_[i] += in_off_[i - 1];

  // Pass 2 — fill. Sources are visited in ascending address order, so
  // every in-list comes out sorted without a sort. in_off_[w] serves as
  // w's fill cursor, ending at the next list's start; one shift restores
  // the offsets.
  if (in_nbr_.capacity() < directed_edges_) {
    // First-rebuild warm-up: reserve the hard ceiling (every live view full
    // of live targets) so steady state never grows this buffer again.
    in_nbr_.reserve(std::max<std::size_t>(directed_edges_, n * c));
  }
  in_nbr_.resize(directed_edges_);
  for (const NodeId v : live_list_) {
    for (const NodeDescriptor& d : network.view_span(v)) {
      const NodeId w = d.address;
      if (w == v || w >= n || !network.is_live(w)) continue;
      in_nbr_[in_off_[w]++] = v;
    }
  }
  for (std::size_t i = n; i > 0; --i) in_off_[i] = in_off_[i - 1];
  in_off_[0] = 0;

  // Epoch stamps: sized once; a fresh epoch makes each use's reset O(1).
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    epoch_ = 0;
  }

  // Pass 3 — undirected-union degrees: out + in − mutual, where mutual
  // counts targets w of v that also point at v. v's in-list is stamped
  // with a fresh epoch, so each view target costs one stamp compare; a
  // stamped target is an in-list member, hence live and not v itself.
  und_deg_.assign(n, 0);
  std::size_t max_deg = 0;
  std::uint64_t und_sum = 0;
  for (const NodeId v : live_list_) {
    const std::uint32_t epoch = next_epoch();
    for (const NodeId s : in_list(v)) stamp_[s] = epoch;
    std::uint32_t mutual = 0;
    for (const NodeDescriptor& d : network.view_span(v)) {
      const NodeId w = d.address;
      if (w < n && stamp_[w] == epoch) ++mutual;
    }
    const std::uint32_t und = out_deg_[v] + in_degree(v) - mutual;
    und_deg_[v] = und;
    und_sum += und;
    max_deg = std::max<std::size_t>(max_deg, und);
  }
  undirected_edges_ = und_sum / 2;

  const std::size_t hist_size = max_deg + 1;
  if (hist_.capacity() < hist_size) {
    // Reserve 2x ahead of need (floor 512): after the warm-up snapshot,
    // another allocation requires the max union degree to outgrow double
    // its warm-up value — a protocol regime change, not the steady-state
    // drift a converged overlay exhibits.
    hist_.reserve(std::max<std::size_t>(512, 2 * hist_size));
  }
  hist_.assign(hist_size, 0);
  for (const NodeId v : live_list_) ++hist_[und_deg_[v]];

  und_stats_ = summarize_degrees(
      live_list_, [this](NodeId id) { return std::size_t{und_deg_[id]}; });
  in_stats_ = summarize_degrees(
      live_list_, [this](NodeId id) { return std::size_t{in_degree(id)}; });
  out_stats_ = summarize_degrees(
      live_list_, [this](NodeId id) { return std::size_t{out_deg_[id]}; });

  // Pass 4 — connected components by union-find over view slots.
  parent_.resize(n);
  comp_size_.resize(n);
  for (const NodeId v : live_list_) {
    parent_[v] = v;
    comp_size_[v] = 1;
  }
  for (const NodeId v : live_list_) {
    for (const NodeDescriptor& d : network.view_span(v)) {
      const NodeId w = d.address;
      if (w == v || w >= n || !network.is_live(w)) continue;
      unite(v, w);
    }
  }
  comp_sizes_.reserve(n);
  comp_sizes_.clear();
  for (const NodeId v : live_list_) {
    if (find_root(v) == v) comp_sizes_.push_back(comp_size_[v]);
  }
  std::sort(comp_sizes_.rbegin(), comp_sizes_.rend());
  components_.count = comp_sizes_.size();
  components_.largest = comp_sizes_.empty() ? 0 : comp_sizes_.front();
  components_.outside_largest = live_list_.size() - components_.largest;

  // Clustering scratch: a node's neighbourhood has und <= max_deg members;
  // as with the histogram, reserve 2x ahead of need so ordinary max-degree
  // drift never re-allocates.
  if (nbr_union_.capacity() < max_deg) {
    nbr_union_.reserve(std::max<std::size_t>(512, 2 * max_deg));
  }

  // BFS masks: zero at rest, since a finished BFS leaves every front/next
  // mask empty and each batch clears `seen` itself.
  if (bfs_.size() < n) bfs_.assign(n, BfsMasks{});
}

std::uint32_t GraphCensus::next_epoch() {
  if (++epoch_ == 0) {  // u32 wrap: reset stamps once every 4G epochs
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

std::uint32_t GraphCensus::find_root(std::uint32_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

void GraphCensus::unite(std::uint32_t a, std::uint32_t b) {
  std::uint32_t ra = find_root(a);
  std::uint32_t rb = find_root(b);
  if (ra == rb) return;
  if (comp_size_[ra] < comp_size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  comp_size_[ra] += comp_size_[rb];
}

bool GraphCensus::has_directed_edge(NodeId from, NodeId to) const {
  const std::span<const NodeId> sources = in_list(to);
  return std::binary_search(sources.begin(), sources.end(), from);
}

double GraphCensus::local_clustering(NodeId id) {
  const sim::Network& network = *net_;
  const std::size_t n = network.size();
  // Stamp the undirected neighbourhood N(id) = live view targets ∪ in-list;
  // the stamp also drops a mutual neighbour's second appearance.
  const std::uint32_t epoch = next_epoch();
  nbr_union_.clear();
  const auto add = [&](NodeId w) {
    if (stamp_[w] == epoch) return;
    stamp_[w] = epoch;
    nbr_union_.push_back(w);
  };
  for (const NodeDescriptor& d : network.view_span(id)) {
    const NodeId w = d.address;
    if (w == id || w >= n || !network.is_live(w)) continue;
    add(w);
  }
  for (const NodeId w : in_list(id)) add(w);
  const std::size_t d = nbr_union_.size();
  PSS_DCHECK(d == und_deg_[id]);
  if (d < 2) return 0;
  // Every linked pair {u, w} ⊂ N(id) is hit once per direction its edge
  // exists in, so links = hits − mutual_hits / 2. A stamped target is a
  // live neighbour; views are duplicate-free, so no edge is hit twice.
  std::size_t hits = 0, mutual_hits = 0;
  for (const NodeId u : nbr_union_) {
    for (const NodeDescriptor& x : network.view_span(u)) {
      const NodeId w = x.address;
      if (w == u || w >= n || stamp_[w] != epoch) continue;
      ++hits;
      if (has_directed_edge(w, u)) ++mutual_hits;
    }
  }
  const std::size_t links = hits - mutual_hits / 2;
  return 2.0 * static_cast<double>(links) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

double GraphCensus::clustering_sampled(std::size_t sample, Rng& rng) {
  PSS_CHECK_MSG(net_ != nullptr, "rebuild() before sampling");
  const std::size_t n = live_list_.size();
  if (n == 0) return 0;
  std::size_t count;
  if (sample >= n) {
    // Exact: every live node, ascending — the exact module's vertex order
    // (consumes no randomness, like the exact graph estimator).
    count = n;
    picks_.resize(n);
    for (std::size_t i = 0; i < n; ++i) picks_[i] = i;
  } else {
    PSS_CHECK_MSG(sample > 0, "sample size must be positive");
    // Same draw sequence as rng.sample_indices (which delegates here), so a
    // cloned Rng reproduces graph::clustering_coefficient_sampled
    // bit-exactly.
    rng.sample_indices_into(n, sample, picks_, pick_scratch_);
    count = sample;
  }
  double sum = 0;
  for (std::size_t i = 0; i < count; ++i) {
    sum += local_clustering(live_list_[picks_[i]]);
  }
  return sum / static_cast<double>(count);
}

PathLengthEstimate GraphCensus::path_length_sampled(std::size_t sources,
                                                    Rng& rng) {
  PSS_CHECK_MSG(net_ != nullptr, "rebuild() before sampling");
  const sim::Network& network = *net_;
  const std::size_t net_n = network.size();
  const std::size_t n = live_list_.size();
  PathLengthEstimate r;
  const bool exhaustive = sources >= n;
  if (!exhaustive) {
    PSS_CHECK_MSG(sources > 0, "source sample must be positive");
  }
  if (n < 2 || sources == 0) return r;
  if (!exhaustive) {
    rng.sample_indices_into(n, sources, picks_, pick_scratch_);
  } else {
    // Every live node, ascending — mirrors graph::average_path_length
    // (which consumes no randomness).
    picks_.resize(n);
    for (std::size_t i = 0; i < n; ++i) picks_[i] = i;
  }
  // Distances are integers and the grand total stays far below 2^53, so
  // the exact module's running double sum never rounds: one conversion of
  // the integer total at the end is bit-equal to it.
  std::uint64_t total = 0;
  std::uint64_t reachable_pairs = 0;
  std::uint32_t diameter = 0;  // max over every batch
  for (std::size_t first = 0; first < picks_.size(); first += kBfsBatch) {
    const std::size_t batch = std::min(kBfsBatch, picks_.size() - first);
    for (const NodeId v : live_list_) bfs_[v].seen = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      BfsMasks& m = bfs_[live_list_[picks_[first + b]]];
      const auto bit = static_cast<std::uint16_t>(1u << b);
      m.seen |= bit;
      m.front |= bit;
    }
    for (std::uint32_t level = 1;; ++level) {
      // Expand every frontier slot in ascending order: the view and
      // in-CSR reads stream, and each source's bit only reaches slots it
      // has not seen.
      for (const NodeId u : live_list_) {
        const std::uint16_t f = bfs_[u].front;
        if (f == 0) continue;
        bfs_[u].front = 0;
        for (const NodeDescriptor& d : network.view_span(u)) {
          const NodeId w = d.address;
          if (w == u || w >= net_n || !network.is_live(w)) continue;
          bfs_[w].next |= static_cast<std::uint16_t>(f & ~bfs_[w].seen);
        }
        for (const NodeId w : in_list(u)) {
          bfs_[w].next |= static_cast<std::uint16_t>(f & ~bfs_[w].seen);
        }
      }
      // Settle the level: each new bit is one source reaching one node at
      // distance `level`.
      std::uint64_t reached = 0;
      for (const NodeId v : live_list_) {
        BfsMasks& m = bfs_[v];
        if (m.next == 0) continue;
        m.seen |= m.next;
        m.front = m.next;
        m.next = 0;
        reached += static_cast<std::uint64_t>(std::popcount(m.front));
      }
      if (reached == 0) break;
      reachable_pairs += reached;
      total += level * reached;
      diameter = std::max(diameter, level);
    }
  }
  const std::uint64_t all_pairs =
      static_cast<std::uint64_t>(picks_.size()) * (n - 1);
  r.average = reachable_pairs > 0 ? static_cast<double>(total) /
                                        static_cast<double>(reachable_pairs)
                                  : 0;
  r.reachable_fraction =
      all_pairs > 0
          ? static_cast<double>(reachable_pairs) / static_cast<double>(all_pairs)
          : 1;
  r.diameter = diameter;
  return r;
}

std::size_t GraphCensus::storage_bytes() const {
  return live_list_.capacity() * sizeof(NodeId) +
         out_deg_.capacity() * sizeof(std::uint32_t) +
         und_deg_.capacity() * sizeof(std::uint32_t) +
         in_off_.capacity() * sizeof(std::size_t) +
         in_nbr_.capacity() * sizeof(NodeId) +
         hist_.capacity() * sizeof(std::uint64_t) +
         parent_.capacity() * sizeof(std::uint32_t) +
         comp_size_.capacity() * sizeof(std::uint32_t) +
         comp_sizes_.capacity() * sizeof(std::size_t) +
         stamp_.capacity() * sizeof(std::uint32_t) +
         bfs_.capacity() * sizeof(BfsMasks) +
         picks_.capacity() * sizeof(std::size_t) +
         pick_scratch_.capacity() * sizeof(std::size_t) +
         nbr_union_.capacity() * sizeof(NodeId);
}

}  // namespace pss::obs
