#pragma once
// Anytime beam search over the same state-transition graph as the A*
// solver. Used for instances beyond exact reach (e.g. Dicke states with
// n >= 5): returns a valid, verified-by-construction arc path without an
// optimality claim. The descent is level-synchronous and sharded over
// BeamOptions::num_threads workers (core/beam.cpp).

#include "core/astar.hpp"

namespace qsp {

struct BeamOptions {
  int beam_width = 512;
  int max_levels = 96;
  HeuristicMode heuristic = HeuristicMode::kComponent;
  CanonicalLevel canonical = CanonicalLevel::kPU2Greedy;
  /// Rotation-arc control budget; -1 allows the m-flow-style merges with
  /// large distinguishing control sets that spread-out supports need.
  int max_controls = -1;
  /// Rotation-candidate enumeration cap (see MoveGenOptions).
  std::uint64_t full_candidate_cap = 4096;
  /// Admit arcs that increase cardinality (splits). Off by default: they
  /// create enormous equal-cost plateaus that defeat beam descent, and
  /// merge/relabel arcs alone always reach the ground class.
  bool allow_splits = false;
  /// Selection-score weight per remaining distinct index. The admissible
  /// f = g + h cannot charge for cardinality (free merges exist), so the
  /// beam would otherwise drown necessary expensive merges under cheap
  /// lateral CNOT relabels. Only the *selection* uses this estimate; the
  /// incumbent pruning stays admissible.
  double cardinality_weight = 3.0;
  /// Optional coupling constraint (see SearchOptions::coupling).
  std::shared_ptr<const CouplingGraph> coupling;
  double time_budget_seconds = 0.0;
  /// Shards of the level expansion, one thread each: 1 runs the descent
  /// on the calling thread and spawns none, 0 uses all hardware threads.
  /// Results are bit-identical at every thread count (deterministic
  /// (score, h, canonical key) selection).
  int num_threads = 1;
  /// Optional equivalence cache (see SearchOptions::cache). The beam
  /// consults it — a cached certified-optimal circuit beats any beam
  /// descent — but never populates it: beam results carry no certificate.
  std::shared_ptr<SearchCache> cache;
  /// Exclusive upper bound on the CNOT cost worth finding (see
  /// SearchOptions::cost_bound). It seeds the incumbent goal cost, so the
  /// existing `g2 >= incumbent` and `g + h >= incumbent` pruning applies
  /// from the first level; results stay bit-identical across thread
  /// counts under any bound.
  std::int64_t cost_bound = kNoCostBound;
};

class BeamSynthesizer {
 public:
  explicit BeamSynthesizer(BeamOptions options = {});

  SynthesisResult synthesize(const SlotState& target) const;
  SynthesisResult synthesize(const QuantumState& target) const;

  const BeamOptions& options() const { return options_; }

 private:
  BeamOptions options_;
};

}  // namespace qsp
