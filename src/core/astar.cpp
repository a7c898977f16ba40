#include "core/astar.hpp"

#include <stdexcept>
#include <utility>

#include "core/parallel_astar.hpp"
#include "core/search_cache.hpp"
#include "core/search_core.hpp"
#include "util/timer.hpp"

namespace qsp {

AStarSynthesizer::AStarSynthesizer(SearchOptions options)
    : options_(options) {
  validate_search_coupling("AStarSynthesizer", options_.coupling.get());
}

SynthesisResult AStarSynthesizer::synthesize(const QuantumState& target) const {
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    throw std::invalid_argument(
        "AStarSynthesizer: target has no slot decomposition (negative or "
        "irrational amplitudes); use the workflow solver instead");
  }
  return synthesize(*slot);
}

SynthesisResult AStarSynthesizer::synthesize(const SlotState& target) const {
  // The wall clock starts before the cache probe: time spent blocked on
  // another thread's in-flight search of this class counts against this
  // search's own budget, so a timed-out wait can never double the
  // stage's wall clock.
  const Deadline overall(options_.time_budget_seconds);
  // One probe covers both kernels: consult (and possibly wait on an
  // in-flight search of the same class) before dispatch, publish after.
  ScopedCacheProbe probe(options_.cache.get(), target,
                         options_.coupling.get(), options_.max_controls,
                         options_.time_budget_seconds);
  if (probe.hit()) return probe.result();

  if (options_.num_threads != 1) {
    SearchOptions parallel_options = options_;
    parallel_options.cache = nullptr;  // this probe already owns the claim
    parallel_options.time_budget_seconds = clamp_budget(0.0, overall);
    const SynthesisResult parallel_result =
        ParallelAStarSynthesizer(std::move(parallel_options))
            .synthesize(target);
    probe.publish(parallel_result);
    return parallel_result;
  }

  const Timer timer;
  const SearchBudget budget(clamp_budget(0.0, overall),
                            options_.node_budget);
  SynthesisResult result;

  const CanonicalLevel level =
      effective_canonical_level(options_.canonical, options_.coupling.get());
  const MoveGenOptions move_options = search_move_gen_options(
      options_.max_controls, options_.full_candidate_cap,
      options_.coupling.get(), level);
  // The arc set is exhaustive only while every group stays within the
  // candidate cap; above it the structured fallback may omit arcs, so the
  // result keeps `found` but loses the optimality certificate.
  const bool arcs_exhaustive = target.total() <= options_.full_candidate_cap;

  ClassedArena arena;
  OpenQueue open;
  auto h_of = search_heuristic(
      options_.heuristic,
      options_.routed_heuristic ? options_.coupling.get() : nullptr);
  auto g_of = [&](std::int64_t id) { return arena.node(id).g; };

  // Nothing with f >= bound is ever queued, so the open list running dry
  // is the "cannot beat the bound" stop: its minimum f reached the bound.
  const std::int64_t bound = options_.cost_bound;
  const std::int64_t root_h = h_of(target);
  arena.add_root(canonical_key(target, level), target, root_h);
  if (root_h < bound) open.push(root_h, root_h, 0, 0);

  std::int64_t goal_id = -1;
  while (!budget.exhausted(result.stats.nodes_generated)) {
    const auto top = open.pop_best(g_of, result.stats.stale_pops);
    if (!top.has_value()) break;
    SearchNode& node = arena.node(top->id);
    if (free_reducible(node.state, level)) {
      goal_id = top->id;
      result.stats.completed = true;
      break;
    }
    ++result.stats.nodes_expanded;

    // Safe to expand by reference: NodeArena references are stable across
    // appends, and a relax of this very class cannot rebind it mid-loop
    // (every child has g2 = g + cost >= g, and relax requires g2 < g).
    const SlotState& state = node.state;
    const std::int64_t g = node.g;
    for (const Move& mv : enumerate_moves(state, move_options)) {
      if (budget.deadline_expired()) break;  // child work can dominate a pop
      ++result.stats.nodes_generated;
      SlotState child = apply_move(state, mv);
      const std::int64_t g2 = g + mv.cost;
      CanonicalKey key = canonical_key(child, level);
      relax_into_open(arena, open, std::move(key), std::move(child), g2,
                      top->id, mv, h_of, bound);
    }
  }

  result.stats.classes_stored = arena.size();
  result.stats.sum_shard_peak_open_size = open.peak_size();
  result.stats.arena_blocks = arena.arena_blocks();
  result.stats.arena_bytes_peak = arena.arena_bytes_peak();
  result.stats.seconds = timer.seconds();
  // Exiting without a completed goal pop is either an exhausted search
  // space (open ran dry — not a budget issue) or a budget abort.
  result.stats.budget_exhausted =
      !result.stats.completed &&
      budget.exhausted(result.stats.nodes_generated);
  result.stats.bounded_out = !result.stats.completed &&
                             !result.stats.budget_exhausted &&
                             bound != kNoCostBound;
  if (goal_id >= 0) {
    result.found = true;
    result.optimal = arcs_exhaustive;
    result.cnot_cost = arena.node(goal_id).g;
    result.circuit = build_goal_circuit(
        [&](std::int64_t id) -> const SearchNode& { return arena.node(id); },
        goal_id, target.num_qubits());
  }
  probe.publish(result);
  return result;
}

}  // namespace qsp
