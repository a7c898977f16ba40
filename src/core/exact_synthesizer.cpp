#include "core/exact_synthesizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/search_core.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// True when every arc the beam fallback can take is also an arc of the
/// A* search (same coupling costs and candidate cap, no more rotation
/// controls; the beam only drops arcs beyond that: splits, zero-cost
/// moves) and the beam accepts no costlier goal than A* does. Then an A*
/// search that bounded out has shown the beam cannot find anything under
/// its bound either, and the fallback can be skipped.
bool beam_arcs_within_astar(const ExactSynthesisOptions& options,
                            int num_qubits) {
  const auto controls = [num_qubits](int requested) {
    return requested < 0 ? num_qubits - 1
                         : std::min(requested, num_qubits - 1);
  };
  return options.beam.coupling == options.astar.coupling &&
         options.beam.full_candidate_cap == options.astar.full_candidate_cap &&
         controls(options.beam.max_controls) <=
             controls(options.astar.max_controls) &&
         options.beam.cost_bound <= options.astar.cost_bound;
}

}  // namespace

ExactSynthesizer::ExactSynthesizer(ExactSynthesisOptions options)
    : options_(options) {
  validate_search_coupling("ExactSynthesizer", options_.astar.coupling.get());
  validate_search_coupling("ExactSynthesizer", options_.beam.coupling.get());
}

SynthesisResult ExactSynthesizer::synthesize(const QuantumState& target) const {
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    throw std::invalid_argument(
        "ExactSynthesizer: target has no slot decomposition");
  }
  return synthesize(*slot);
}

SynthesisResult ExactSynthesizer::synthesize(const SlotState& target) const {
  const Deadline deadline(options_.time_budget_seconds);
  SearchOptions astar_options = options_.astar;
  astar_options.time_budget_seconds =
      clamp_budget(astar_options.time_budget_seconds, deadline);
  const AStarSynthesizer astar(astar_options);
  SynthesisResult result = astar.synthesize(target);
  if (result.found || !options_.enable_beam_fallback) return result;
  if (result.stats.bounded_out &&
      beam_arcs_within_astar(options_, target.num_qubits())) {
    return result;
  }

  BeamOptions beam_options = options_.beam;
  beam_options.time_budget_seconds =
      clamp_budget(beam_options.time_budget_seconds, deadline);
  const BeamSynthesizer beam(beam_options);
  SynthesisResult fallback = beam.synthesize(target);
  // Keep the A* statistics visible: the fallback happened because the
  // exact search ran out of budget. That includes budget_exhausted — a
  // fallback result is budget-shaped even when the beam itself finished
  // its descent, so the flag tells callers more budget could improve it.
  // The A* arena is gone before the beam starts, so the tail's peaks are
  // the larger of the two; the counters add up.
  fallback.stats.nodes_expanded += result.stats.nodes_expanded;
  fallback.stats.nodes_generated += result.stats.nodes_generated;
  fallback.stats.classes_stored += result.stats.classes_stored;
  fallback.stats.stale_pops += result.stats.stale_pops;
  fallback.stats.transposition_hits += result.stats.transposition_hits;
  fallback.stats.arena_blocks += result.stats.arena_blocks;
  fallback.stats.arena_bytes_peak = std::max(fallback.stats.arena_bytes_peak,
                                             result.stats.arena_bytes_peak);
  fallback.stats.sum_shard_peak_open_size =
      std::max(fallback.stats.sum_shard_peak_open_size,
               result.stats.sum_shard_peak_open_size);
  fallback.stats.seconds += result.stats.seconds;
  fallback.stats.budget_exhausted |= result.stats.budget_exhausted;
  return fallback;
}

}  // namespace qsp
