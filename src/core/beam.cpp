#include "core/beam.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/beam_core.hpp"
#include "core/parallel_beam.hpp"
#include "core/search_cache.hpp"
#include "core/search_core.hpp"
#include "util/timer.hpp"

namespace qsp {

BeamSynthesizer::BeamSynthesizer(BeamOptions options) : options_(options) {
  validate_search_coupling("BeamSynthesizer", options_.coupling.get());
}

SynthesisResult BeamSynthesizer::synthesize(const QuantumState& target) const {
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    throw std::invalid_argument(
        "BeamSynthesizer: target has no slot decomposition");
  }
  return synthesize(*slot);
}

SynthesisResult BeamSynthesizer::synthesize(const SlotState& target) const {
  // Consult the equivalence cache: a stored certified-optimal circuit
  // beats any beam descent. The probe is consult-only — beam results
  // never carry the certificate, so claiming in-flight ownership would
  // only make certifying searchers of the same class queue behind a
  // search that cannot populate the cache.
  ScopedCacheProbe probe(options_.cache.get(), target,
                         options_.coupling.get(), options_.max_controls,
                         options_.time_budget_seconds,
                         /*consult_only=*/true);
  if (probe.hit()) return probe.result();

  if (options_.num_threads != 1) {
    BeamOptions parallel_options = options_;
    parallel_options.cache = nullptr;  // this probe already consulted
    return ParallelBeamSynthesizer(parallel_options).synthesize(target);
  }

  const Timer timer;
  const Deadline deadline(options_.time_budget_seconds);
  SynthesisResult result;

  const CanonicalLevel level =
      effective_canonical_level(options_.canonical, options_.coupling.get());
  MoveGenOptions move_options = search_move_gen_options(
      options_.max_controls, options_.full_candidate_cap,
      options_.coupling.get(), level);
  // Unlike A*, the beam never runs uncanonicalized, so zero-cost arcs are
  // always absorbed into the equivalence classes.
  move_options.include_zero_cost = false;

  // Chunked arena: stable references let the expansion loop borrow the
  // parent state instead of copying it, and blocks/bytes feed SearchStats.
  NodeArena nodes;
  // Best g seen per class across all levels, to prevent revisits. The
  // beam keeps every improved node (no rebinding): truncated ancestors
  // must stay intact for path reconstruction.
  ClassIndex<std::int64_t> best_g;

  // The beam carries no optimality certificate, so it always prices the
  // heuristic against the device when a coupling is set.
  auto h_of = search_heuristic(options_.heuristic, options_.coupling.get());

  nodes.append(SearchNode{target, 0, h_of(target),
                          SearchNode::kNoParent, Move{}});
  best_g.emplace(canonical_key(target, level), 0);

  std::vector<std::int64_t> beam{0};
  // Best goal found anywhere, not just inside the beam: the admissible h
  // underestimates the remaining cost, so a finished state (h = 0, large
  // g) often ranks behind unfinished ones and would be truncated away if
  // goals were only recognized within the surviving beam. The caller's
  // cost bound is the initial incumbent cost, with no goal node.
  std::int64_t goal_id = -1;
  std::int64_t goal_g = options_.cost_bound;

  if (free_reducible(target, level) && goal_g > 0) {
    goal_id = 0;
    goal_g = 0;
  }

  ClassIndex<BeamPending> level_map;
  for (int depth = 0;
       goal_id != 0 && depth < options_.max_levels && !beam.empty();
       ++depth) {
    if (deadline.expired()) {
      result.stats.budget_exhausted = true;
      break;
    }
    // The incumbent bound is frozen at level entry so pruning cannot
    // depend on the order goals are discovered within the level — the
    // property that lets the parallel beam (core/parallel_beam.cpp)
    // partition this loop across shards and still match bit for bit.
    const std::int64_t frozen_goal_g = goal_g;
    level_map.clear();
    for (std::size_t pos = 0; pos < beam.size(); ++pos) {
      if (deadline.expired()) {  // wide levels must not overshoot
        result.stats.budget_exhausted = true;
        break;
      }
      const std::int64_t id = beam[pos];
      // Borrowed, not copied: the arena only appends during a level, and
      // NodeArena references are stable across appends.
      const SlotState& state = nodes.node(id).state;
      const std::int64_t g = nodes.node(id).g;
      std::uint64_t move_index = 0;
      for (const Move& mv : enumerate_moves(state, move_options)) {
        const std::uint64_t seq = beam_seq(pos, move_index++);
        ++result.stats.nodes_generated;
        SlotState child = apply_move(state, mv);
        if (!options_.allow_splits &&
            child.cardinality() > state.cardinality()) {
          continue;
        }
        const std::int64_t g2 = g + mv.cost;
        if (g2 >= frozen_goal_g) continue;  // cannot improve the incumbent
        CanonicalKey key = canonical_key(child, level);
        beam_offer(level_map, std::move(key),
                   BeamPending{std::move(child), g2, seq, id, mv});
      }
      ++result.stats.nodes_expanded;
    }

    // Resolve the level's class winners against the cross-level best_g;
    // resolution order is irrelevant (per-class decisions are
    // independent, the goal adoption takes the (g2, seq) minimum).
    std::vector<BeamCandidate> candidates;
    candidates.reserve(level_map.size());
    std::optional<BeamPending> goal_offer;
    while (!level_map.empty()) {
      auto entry = level_map.extract(level_map.begin());
      BeamPending& pending = entry.mapped();
      auto [it, inserted] =
          best_g.try_emplace(std::move(entry.key()), pending.g2);
      if (!inserted) {
        if (it->second <= pending.g2) continue;
        it->second = pending.g2;
      }
      if (free_reducible(pending.state, level)) {
        if (!goal_offer.has_value() ||
            beam_pending_wins(pending, *goal_offer)) {
          goal_offer = std::move(pending);
        }
        continue;  // goals need no further expansion
      }
      const std::int64_t h = h_of(pending.state);
      const int cardinality = pending.state.cardinality();
      const std::int64_t node_id =
          nodes.append(SearchNode{std::move(pending.state), pending.g2, h,
                                  pending.parent, pending.via});
      candidates.push_back(BeamCandidate{
          beam_score(pending.g2, h, cardinality, options_.cardinality_weight),
          h, pending.g2, &it->first, node_id});
    }
    if (goal_offer.has_value() && goal_offer->g2 < goal_g) {
      goal_g = goal_offer->g2;
      goal_id =
          nodes.append(SearchNode{std::move(goal_offer->state), goal_offer->g2,
                                  0, goal_offer->parent, goal_offer->via});
    }

    std::sort(candidates.begin(), candidates.end(), beam_candidate_less);
    if (static_cast<int>(candidates.size()) > options_.beam_width) {
      candidates.resize(static_cast<std::size_t>(options_.beam_width));
    }
    // Keep only states that can still beat the incumbent (h admissible).
    std::erase_if(candidates, [&](const BeamCandidate& c) {
      return c.g + c.h >= goal_g;
    });
    beam.clear();
    beam.reserve(candidates.size());
    for (const BeamCandidate& c : candidates) beam.push_back(c.id);
  }

  result.stats.classes_stored = best_g.size();
  result.stats.arena_blocks = nodes.blocks();
  result.stats.arena_bytes_peak = nodes.bytes_peak();
  result.stats.seconds = timer.seconds();
  result.stats.bounded_out = goal_id < 0 && beam.empty() &&
                             !result.stats.budget_exhausted &&
                             options_.cost_bound != kNoCostBound;
  if (goal_id >= 0) {
    result.found = true;
    result.optimal = false;  // beam search gives no optimality certificate
    result.cnot_cost = nodes.node(goal_id).g;
    result.circuit = build_goal_circuit(
        [&](std::int64_t id) -> const SearchNode& { return nodes.node(id); },
        goal_id, target.num_qubits());
  }
  return result;
}

}  // namespace qsp
