#pragma once
// The A* shortest-path solver of paper Section V (Algorithm 1). Searches
// from the target state toward the ground-state equivalence class; the
// returned circuit is the adjoint of the discovered arc sequence plus a
// zero-cost disentangling suffix, and provably CNOT-optimal whenever the
// search completes (admissible heuristic + node reopening). The search
// runs as an HDA*-style kernel over SearchOptions::num_threads shards
// (core/astar.cpp); one shard is plain A* on the calling thread.

#include <cstdint>
#include <limits>
#include <memory>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/moves.hpp"
#include "core/slot_state.hpp"
#include "state/quantum_state.hpp"

namespace qsp {

class SearchCache;

/// SearchOptions::cost_bound / BeamOptions::cost_bound value meaning "no
/// bound": the kernels then behave exactly as without the option.
inline constexpr std::int64_t kNoCostBound =
    std::numeric_limits<std::int64_t>::max();

/// Raw child states each A* shard's transposition table holds before it
/// is cleared (core/astar.cpp).
inline constexpr std::size_t kTranspositionTableEntries = std::size_t{1} << 13;

struct SearchOptions {
  HeuristicMode heuristic = HeuristicMode::kComponent;
  CanonicalLevel canonical = CanonicalLevel::kPU2Exact;
  /// Rotation-arc control budget; -1 means unrestricted (n - 1).
  int max_controls = -1;
  /// Abort after generating this many arcs (0 = unlimited).
  std::uint64_t node_budget = 5'000'000;
  /// Abort once this many equivalence classes are stored across all
  /// shards (0 = unlimited). Unlike the wall clock this is a work unit:
  /// at one shard the search stops at the same point on any machine.
  /// SearchStats::budget_exhausted reports the stop. The memory of a
  /// search is its stored classes, so this also caps the search's arena.
  std::uint64_t class_budget = 0;
  /// Abort after this many seconds (0 = unlimited).
  double time_budget_seconds = 0.0;
  /// Rotation-candidate enumeration cap (see MoveGenOptions); searches on
  /// states whose slot total exceeds this lose the optimality certificate.
  std::uint64_t full_candidate_cap = 4096;
  /// Optional coupling constraint: arc costs become routed CNOT costs and
  /// qubit-permutation canonicalization is disabled unless the graph is
  /// complete (relabeling is only free on a symmetric coupling, as the
  /// paper notes). The graph must be connected (searcher constructors
  /// throw otherwise). Route the result with arch/routing.hpp to realize
  /// the reported cost on hardware.
  std::shared_ptr<const CouplingGraph> coupling;
  /// Price the admissible heuristic against the coupling's routed-cost
  /// surface (Steiner-connection bound, core/heuristic.hpp). Turning this
  /// off reproduces the coupling-blind unit-merge bound — still
  /// admissible, so the optimum is unchanged, but the search expands more
  /// nodes on restricted topologies (ablation_coupling quantifies it).
  bool routed_heuristic = true;
  /// Shards of the HDA* search, one thread each: 1 runs the search on the
  /// calling thread and spawns none, 0 uses all hardware threads. Every
  /// shard count keeps the optimality certificate and the optimal cost
  /// (see docs/ARCHITECTURE.md); with more than one shard the returned
  /// circuit and the stats may vary from run to run.
  int num_threads = 1;
  /// Optional cross-request equivalence cache (core/search_cache.hpp).
  /// When set, the search first consults the cache for the target's
  /// canonical class (possibly waiting on another thread's in-flight
  /// search of the same class) and publishes certified-optimal results
  /// back into it. nullptr = no caching (the default; all one-shot paths
  /// are unchanged).
  std::shared_ptr<SearchCache> cache;
  /// Exclusive upper bound on the CNOT cost worth finding: the caller
  /// already holds a circuit of this cost, so only a strictly cheaper
  /// preparation is useful. The search prunes every node with
  /// f = g + h >= cost_bound (sound: h is admissible) and stops with
  /// SearchStats::bounded_out once nothing under the bound remains. A
  /// goal found under the bound is still the certified optimum. A cache
  /// hit is returned as is, whatever its cost.
  std::int64_t cost_bound = kNoCostBound;
};

struct SearchStats {
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_generated = 0;
  std::uint64_t classes_stored = 0;
  /// Queue-pressure signal tracked by micro_core and fig7_runtime: the
  /// sum over shards of each shard's own peak open-list population. At
  /// one shard this is the true peak; with more it is an upper bound on
  /// the instantaneous global peak, since shard peaks need not coincide
  /// in time. The beam keeps no open list and reports 0.
  std::uint64_t sum_shard_peak_open_size = 0;
  /// Lazy-deletion discards: popped entries whose pushed g was already
  /// beaten by a rebind (summed over shards).
  std::uint64_t stale_pops = 0;
  /// Generated children whose raw state their shard's transposition table
  /// already held (A* only; summed over shards). A hit skips
  /// canonicalization, and drops the child where relaxing it would change
  /// nothing; nodes_generated still counts it.
  std::uint64_t transposition_hits = 0;
  /// Allocation-pressure signals from the node arena (core/search_core):
  /// blocks allocated and peak resident bytes (node blocks plus slot-entry
  /// heap storage), summed over shards. Visible in micro_core JSON so
  /// allocator wins show up next to wall time.
  std::uint64_t arena_blocks = 0;
  std::uint64_t arena_bytes_peak = 0;
  double seconds = 0.0;
  /// True if the search ran to completion (goal popped and certified
  /// against every shard's frontier) within budget.
  bool completed = false;
  /// True if the search stopped early because its node, class or
  /// wall-clock budget ran out (A*/HDA*: aborted before certifying; beam:
  /// a level was truncated or skipped on deadline expiry). Distinguishes a
  /// budget-truncated result — which might improve with more budget —
  /// from a genuinely finished descent or an exhausted search space.
  bool budget_exhausted = false;
  /// True if the search ended because nothing under its cost bound
  /// (SearchOptions::cost_bound, BeamOptions::cost_bound) remained: no
  /// preparation cheaper than the bound exists in the kernel's arc set
  /// (A*/HDA*), or none survived the beam's pruning. `found` is false and
  /// `budget_exhausted` stays false: the search finished.
  bool bounded_out = false;
};

struct SynthesisResult {
  bool found = false;
  /// True when the result is provably CNOT-optimal (A* completion). An
  /// A* search whose budget ran out after it popped a goal returns that
  /// goal as an anytime result with `optimal == false`.
  bool optimal = false;
  std::int64_t cnot_cost = -1;
  Circuit circuit{1};
  SearchStats stats;
};

class AStarSynthesizer {
 public:
  explicit AStarSynthesizer(SearchOptions options = {});

  /// Synthesize a preparation circuit for the slot-encoded target.
  SynthesisResult synthesize(const SlotState& target) const;

  /// Convenience: decompose a sparse state into slots first. Throws
  /// std::invalid_argument if the state has no slot decomposition.
  SynthesisResult synthesize(const QuantumState& target) const;

  const SearchOptions& options() const { return options_; }

 private:
  SearchOptions options_;
};

}  // namespace qsp
