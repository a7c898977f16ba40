#pragma once
// Shared substrate for the two search kernels (the sharded HDA* exact
// search and the sharded anytime beam): the node-record arena with the
// canonical-key index and A*'s relax/rebind discipline, the lazy-deletion
// open list, budget/deadline accounting, shard ids and shard counts, the
// coupling-aware canonicalization demotion, and goal-circuit
// reconstruction.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/moves.hpp"
#include "core/slot_state.hpp"
#include "util/timer.hpp"

namespace qsp {

/// Sentinel distance: "no entry" / "queue empty".
inline constexpr std::int64_t kInfiniteCost =
    std::numeric_limits<std::int64_t>::max();

/// One explored node: a raw representative of its equivalence class, the
/// best known arc distance g, the admissible remainder h, and the arc
/// (parent, via) that achieved g. Node ids are searcher-defined: arena
/// offsets within a shard, or (shard, local offset) packed into one id
/// across shards; kNoParent marks the root.
struct SearchNode {
  static constexpr std::int64_t kNoParent = -1;

  SlotState state;
  std::int64_t g = 0;
  std::int64_t h = 0;
  std::int64_t parent = kNoParent;
  Move via;
};

/// Canonical-key map shared by every searcher's class bookkeeping.
template <class V>
using ClassIndex = std::unordered_map<CanonicalKey, V, CanonicalKeyHash>;

/// Resolve a SearchOptions/BeamOptions::num_threads request into a shard
/// count: a positive request is taken as is, 0 (or less) means all
/// hardware threads, and at least 1 is returned either way.
int resolve_num_threads(int requested);

/// The shard owning a canonical class: a hash of its key, so every class
/// has exactly one owner. A single shard owns every key without hashing.
/// CanonicalKeyHash is FNV-1a over whole words, so its low bits depend
/// only on the words' low bits (the slot counts, often all equal); the
/// splitmix64 finalizer spreads every key bit over the bits the modulo
/// reads.
inline int owner_shard(const CanonicalKey& key, int num_shards) {
  if (num_shards == 1) return 0;
  std::uint64_t h = CanonicalKeyHash{}(key);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<int>(h % static_cast<std::uint64_t>(num_shards));
}

/// Global node ids for the sharded kernels (HDA*, beam) pack
/// (shard, arena offset) into one int64 so parent chains may cross
/// shards; SearchNode::kNoParent stays representable (shard -1).
inline constexpr int kShardGidShift = 40;
inline constexpr std::int64_t kShardGidLocalMask =
    (std::int64_t{1} << kShardGidShift) - 1;

inline std::int64_t make_shard_gid(int shard, std::int64_t local) {
  return (static_cast<std::int64_t>(shard) << kShardGidShift) | local;
}
inline int shard_of_gid(std::int64_t gid) {
  return static_cast<int>(gid >> kShardGidShift);
}
inline std::int64_t local_of_gid(std::int64_t gid) {
  return gid & kShardGidLocalMask;
}

/// Qubit relabeling is only free on a symmetric (complete) coupling, so
/// permutation canonicalization must be demoted to U(2) elsewhere.
CanonicalLevel effective_canonical_level(CanonicalLevel requested,
                                         const CouplingGraph* coupling);

/// Move-generation options shared by the searchers: zero-cost arcs are
/// only enumerated when canonicalization does not absorb them.
MoveGenOptions search_move_gen_options(int max_controls,
                                       std::uint64_t full_candidate_cap,
                                       const CouplingGraph* coupling,
                                       CanonicalLevel level);

/// Searchers accept a coupling graph only when routed CNOT costs exist
/// between every qubit pair; a disconnected device would otherwise throw
/// from deep inside move generation. `context` names the thrower.
void validate_search_coupling(const char* context,
                              const CouplingGraph* coupling);

/// The shared h(.) every searcher feeds its open list: the admissible
/// remainder bound of core/heuristic.hpp, priced against the device's
/// routed-cost surface when `coupling` is non-null (pass nullptr for the
/// coupling-blind unit bound, e.g. for the ablation benches).
inline auto search_heuristic(HeuristicMode mode,
                             const CouplingGraph* coupling) {
  return [mode, coupling](const SlotState& state) {
    return heuristic_lower_bound(state, mode, coupling);
  };
}

/// The A* search's budgets: generated arcs, stored classes and the wall
/// clock.
class SearchBudget {
 public:
  SearchBudget(double time_budget_seconds, std::uint64_t node_budget,
               std::uint64_t class_budget)
      : deadline_(time_budget_seconds),
        node_budget_(node_budget),
        class_budget_(class_budget) {}

  bool deadline_expired() const { return deadline_.expired(); }

  /// True once the search must stop: deadline passed, or the
  /// generated-arc or stored-class budget (0 = unlimited) is spent.
  bool exhausted(std::uint64_t nodes_generated,
                 std::uint64_t classes_stored) const {
    return deadline_.expired() ||
           (node_budget_ != 0 && nodes_generated >= node_budget_) ||
           (class_budget_ != 0 && classes_stored >= class_budget_);
  }

 private:
  Deadline deadline_;
  std::uint64_t node_budget_;
  std::uint64_t class_budget_;
};

/// Chunked node storage with stable references: nodes live in
/// fixed-capacity blocks that are never reallocated, so a `SearchNode&`
/// stays valid across appends. That lets the expansion loops hold a
/// reference to the node being expanded instead of copying its SlotState
/// (safe under the relax discipline: a rebind of the expanded node would
/// need g2 < g, and every child has g2 = g + cost >= g). Also tracks
/// allocation pressure: blocks allocated and peak resident bytes (block
/// storage plus slot-entry payload) for SearchStats.
class NodeArena {
 public:
  static constexpr std::size_t kBlockShift = 9;  // 512 nodes per block
  static constexpr std::size_t kBlockNodes = std::size_t{1} << kBlockShift;

  std::int64_t append(SearchNode&& node) {
    if (size_ == blocks_.size() * kBlockNodes) {
      blocks_.emplace_back();
      blocks_.back().reserve(kBlockNodes);  // capacity fixed: refs stable
    }
    payload_bytes_ += payload_bytes(node.state);
    blocks_.back().push_back(std::move(node));
    const auto id = static_cast<std::int64_t>(size_++);
    update_peak();
    return id;
  }

  /// Swap a rebound node's state in place, keeping the byte accounting
  /// truthful (rebinds may shrink or grow the slot payload).
  void replace_state(SearchNode& node, SlotState&& state) {
    payload_bytes_ -= payload_bytes(node.state);
    payload_bytes_ += payload_bytes(state);
    node.state = std::move(state);
    update_peak();
  }

  SearchNode& node(std::int64_t id) {
    const auto i = static_cast<std::size_t>(id);
    return blocks_[i >> kBlockShift][i & (kBlockNodes - 1)];
  }
  const SearchNode& node(std::int64_t id) const {
    const auto i = static_cast<std::size_t>(id);
    return blocks_[i >> kBlockShift][i & (kBlockNodes - 1)];
  }

  std::uint64_t size() const { return size_; }
  std::uint64_t blocks() const { return blocks_.size(); }
  std::uint64_t bytes_peak() const { return bytes_peak_; }

 private:
  static std::uint64_t payload_bytes(const SlotState& state) {
    return state.entries().size() * sizeof(SlotEntry);
  }

  void update_peak() {
    const std::uint64_t bytes =
        blocks_.size() * kBlockNodes * sizeof(SearchNode) + payload_bytes_;
    bytes_peak_ = std::max(bytes_peak_, bytes);
  }

  std::vector<std::vector<SearchNode>> blocks_;
  std::size_t size_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t bytes_peak_ = 0;
};

/// Arena of SearchNodes plus the class index with A*'s relax discipline:
/// a new class appends a record; a cheaper path to a known class rebinds
/// the record in place (implicit reopening keeps optimality under an
/// admissible but possibly inconsistent heuristic). Ids are local arena
/// offsets; `parent` is stored verbatim so callers may use a wider
/// encoding (the sharded kernel stores global ids there).
class ClassedArena {
 public:
  struct Relaxed {
    std::int64_t id = -1;
    bool improved = false;  ///< true => (re)push onto the open list
  };

  /// Seed the arena with the search root (id 0).
  void add_root(CanonicalKey key, SlotState state, std::int64_t h) {
    index_.emplace(std::move(key), 0);
    nodes_.append(SearchNode{std::move(state), 0, h,
                             SearchNode::kNoParent, Move{}});
  }

  /// Relax the arc parent --via--> child with tentative distance g2.
  /// `h_of` is only invoked when the class is new.
  template <class HOf>
  Relaxed relax(CanonicalKey&& key, SlotState&& child, std::int64_t g2,
                std::int64_t parent, const Move& via, HOf&& h_of) {
    auto [it, inserted] = index_.try_emplace(std::move(key), 0);
    if (!inserted) {
      SearchNode& existing = node(it->second);
      if (existing.g <= g2) return {it->second, false};
      nodes_.replace_state(existing, std::move(child));
      existing.g = g2;
      existing.parent = parent;
      existing.via = via;
      return {it->second, true};
    }
    const std::int64_t h = h_of(child);
    const std::int64_t id =
        nodes_.append(SearchNode{std::move(child), g2, h, parent, via});
    it->second = id;
    return {id, true};
  }

  /// References returned here are stable across relax/append (NodeArena).
  SearchNode& node(std::int64_t id) { return nodes_.node(id); }
  const SearchNode& node(std::int64_t id) const { return nodes_.node(id); }
  std::uint64_t size() const { return nodes_.size(); }

  std::uint64_t arena_blocks() const { return nodes_.blocks(); }
  std::uint64_t arena_bytes_peak() const { return nodes_.bytes_peak(); }

 private:
  NodeArena nodes_;
  ClassIndex<std::int64_t> index_;
};

/// Lazy-deletion open list over (f, h, id, g-at-push) entries. Rebinding
/// a class simply pushes a fresh entry; pop_best discards entries whose
/// pushed g no longer matches the record (stale), counting them for
/// SearchStats::stale_pops.
///
/// Implemented as a flat 4-ary implicit min-heap rather than
/// std::priority_queue<tuple>: one contiguous Entry array (no tuple
/// layout), shallower trees, and four children per cache line's worth of
/// entries. Pop order is identical to the old binary heap because the
/// comparator is a total order on the entries it ever holds: (id,
/// g_at_push) pairs are unique (a class is re-pushed only when its g
/// strictly decreases), so ties never reach an arbitrary decision.
class OpenQueue {
 public:
  struct Entry {
    std::int64_t f = 0;
    std::int64_t h = 0;
    std::int64_t id = 0;
    std::int64_t g_at_push = 0;
  };

  void push(std::int64_t f, std::int64_t h, std::int64_t id,
            std::int64_t g_at_push) {
    heap_.push_back(Entry{f, h, id, g_at_push});
    sift_up(heap_.size() - 1);
    peak_ = std::max(peak_, static_cast<std::uint64_t>(heap_.size()));
  }

  /// Pop the best non-stale entry; `g_of(id)` must return the record's
  /// current g so outdated entries can be discarded.
  template <class GOf>
  std::optional<Entry> pop_best(GOf&& g_of, std::uint64_t& stale_pops) {
    while (!heap_.empty()) {
      const Entry best = heap_.front();
      pop_top();
      if (g_of(best.id) != best.g_at_push) {
        ++stale_pops;
        continue;
      }
      return best;
    }
    return std::nullopt;
  }

  /// f of the best entry (stale entries included, which is still a valid
  /// lower bound: a rebind's fresh entry has f no larger than its stale
  /// one), or kInfiniteCost when empty.
  std::int64_t min_f() const {
    return heap_.empty() ? kInfiniteCost : heap_.front().f;
  }

  bool empty() const { return heap_.empty(); }
  std::uint64_t peak_size() const { return peak_; }

 private:
  static bool less(const Entry& a, const Entry& b) {
    if (a.f != b.f) return a.f < b.f;
    if (a.h != b.h) return a.h < b.h;
    if (a.id != b.id) return a.id < b.id;
    return a.g_at_push < b.g_at_push;
  }

  void sift_up(std::size_t i) {
    while (i != 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!less(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void pop_top() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Entry> heap_;
  std::uint64_t peak_ = 0;
};

/// The shared relax-then-push discipline: relax the arc into the arena
/// and, when the class is new or rebound cheaper, (re)enter it into the
/// open list under f = g + h. Both HDA* call sites (mail drain, local
/// expansion) go through this so the g-at-push staleness contract stays
/// in one place. Entries with f >= `bound` (the caller's cost bound,
/// kNoCostBound for none) are recorded but never queued: with an
/// admissible h they cannot lead to a goal cheaper than the bound.
/// Returns the class's arena id.
template <class HOf>
std::int64_t relax_into_open(ClassedArena& arena, OpenQueue& open,
                     CanonicalKey&& key, SlotState&& child, std::int64_t g2,
                     std::int64_t parent, const Move& via, HOf&& h_of,
                     std::int64_t bound) {
  const ClassedArena::Relaxed relaxed =
      arena.relax(std::move(key), std::move(child), g2, parent, via, h_of);
  if (relaxed.improved) {
    const std::int64_t h = arena.node(relaxed.id).h;
    if (g2 + h < bound) open.push(g2 + h, h, relaxed.id, g2);
  }
  return relaxed.id;
}

/// Reconstruct the preparation circuit from a goal node: the forward arc
/// chain maps target -> ... -> separable state; appending the free
/// disentangling gates reaches ground, and the adjoint of the whole
/// prepares the target. `node_at(id)` maps a node id to its record,
/// letting searchers keep their own arena layout (one vector, or one
/// arena per shard).
template <class NodeAt>
Circuit build_goal_circuit(NodeAt&& node_at, std::int64_t goal_id,
                           int num_qubits) {
  std::vector<const Move*> chain;
  for (std::int64_t id = goal_id;;) {
    const SearchNode& node = node_at(id);
    if (node.parent == SearchNode::kNoParent) break;
    chain.push_back(&node.via);
    id = node.parent;
  }
  Circuit forward(num_qubits);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    forward.append((*it)->to_gate());
  }
  for (const Gate& g : free_disentangle_gates(node_at(goal_id).state)) {
    forward.append(g);
  }
  return forward.adjoint();
}

}  // namespace qsp
