#pragma once
// The scalable workflow of paper Fig. 5: dispatch on sparsity, reduce with
// the appropriate divide-and-conquer method until the state fits the exact
// synthesis thresholds (n_eff <= 4 active qubits and cardinality <= 16 by
// default), then finish with the exact kernel.

#include <memory>
#include <string>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "circuit/pass_pipeline.hpp"
#include "circuit/target.hpp"
#include "core/exact_synthesizer.hpp"
#include "prep/mflow.hpp"
#include "state/quantum_state.hpp"
#include "util/timer.hpp"

namespace qsp {

struct WorkflowOptions {
  /// Exact tail activates when the compressed state has at most this many
  /// entangled (non-separable) qubits...
  int exact_max_qubits = 4;
  /// ...and at most this cardinality.
  int exact_max_cardinality = 16;
  /// Budgets for the exact tail searches.
  ExactSynthesisOptions exact;
  /// Pair-selection strategy for the sparse path's cardinality reduction;
  /// the workflow defaults to the cost-aware variant.
  MFlowOptions mflow;
  /// Dense path: only attempt the exact tail while the marginal's slot
  /// total stays below this (count-heavy marginals are generic positive
  /// states where the multiplexor stages are already near-optimal).
  std::uint64_t dense_tail_total_cap = 128;
  /// Dense path: for borderline densities (cardinality at most this), run
  /// the sparse path as well and keep the cheaper circuit.
  int dual_path_max_cardinality = 64;
  /// Abort the whole workflow after this many seconds (0 = unlimited).
  /// Enforced *inside* the exact-tail searches, not just between stages:
  /// the remaining time is wired into every kernel search's SearchBudget
  /// (via ExactSynthesisOptions::time_budget_seconds), so a runaway A*
  /// aborts mid-search and the circuit-producing fallbacks still run.
  double time_budget_seconds = 0.0;
  /// Worker threads for the exact tail's kernel searches. 1 keeps
  /// exact.astar.num_threads and exact.beam.num_threads as they are (one
  /// shard each by default, run on the calling thread); any other value
  /// (0 = all hardware threads) overrides both, so the HDA* search
  /// (core/astar.hpp) and the beam fallback (core/beam.hpp) run that many
  /// shards. Beam results are bit-identical at every thread count.
  int num_threads = 1;
  /// Optional target device. When set (and not all-to-all), the workflow
  /// becomes coupling-aware end to end: the exact tail hosts the
  /// entangled core on a connected induced subgraph of the device
  /// (CouplingGraph::connected_superset of the core's wires) and searches
  /// against that subgraph's routed costs, circuits are sized by the
  /// device register, and Solver::prepare routes its final output so
  /// respects_coupling holds on the result. Must be connected (the Solver
  /// constructor throws otherwise) and at least as wide as the target
  /// (prepare throws otherwise).
  std::shared_ptr<const CouplingGraph> coupling;
  /// Cap on the connected host register for the exact tail. The
  /// exact_max_qubits threshold counts *entangled* wires, but on a wide
  /// device the connected superset can pull in many connector wires for
  /// a spread-out core; beyond this cap the tail skips the exact kernel
  /// and uses the cardinality-reduction fallback instead of launching a
  /// search the thresholds never meant to allow.
  int exact_max_host_qubits = 8;
  /// Shared-cache mode: an equivalence cache consulted and populated by
  /// every exact-tail search this solver runs (see
  /// service/equivalence_cache.hpp; SynthesisService injects its cache
  /// here). Repeated requests whose compressed cores land in the same
  /// canonical class pay for one kernel search; concurrent requests for
  /// the same class are deduplicated in flight. nullptr = one-shot
  /// behavior, unchanged.
  std::shared_ptr<SearchCache> cache;
  /// Pass-pipeline level applied to the assembled workflow circuit before
  /// prepare() returns (see circuit/pass_pipeline.hpp). O1 reproduces the
  /// historical peephole cleanup; O2 adds the commutation-aware folds;
  /// O0 returns the raw stitched stages. Per-pass accounting lands in
  /// WorkflowResult::passes. The pipeline preserves the prepared state,
  /// coupling conformance and gate-set membership, so routed outputs stay
  /// routed and verification is unaffected.
  OptLevel opt_level = OptLevel::kO1;
  /// Backend descriptor (circuit/target.hpp). The default CNOT target
  /// reproduces the historical behavior exactly: prepare() returns the
  /// optimized {1-qubit, CNOT} circuit (routed when `coupling` is set)
  /// without legalization. A non-CNOT target arms the pipeline's staged
  /// lowering (PipelineOptions::lower_to_target), so the returned circuit
  /// is fully native for the target — composites lowered, every CNOT
  /// rewritten into the native two-qubit gate on the same wire pair (a
  /// routed circuit therefore stays on device edges). Path/tail selection
  /// still compares CNOT-level costs; legalization multiplies every
  /// competitor by the same per-CNOT factor, so the choice is unchanged.
  Target target = Target::cnot();

  WorkflowOptions() {
    mflow.strategy = MFlowOptions::PairStrategy::kCheapest;
    // Tails are tiny (<= 4 entangled qubits); keep budgets tight so the
    // workflow stays fast even when called thousands of times, and cap
    // the rotation-candidate enumeration: the dense path hands the tail
    // count-heavy marginals where full enumeration explodes.
    exact.astar.node_budget = 400'000;
    exact.astar.time_budget_seconds = 1.0;
    exact.astar.full_candidate_cap = 64;
    exact.beam.beam_width = 128;
    exact.beam.max_controls = 3;
    exact.beam.time_budget_seconds = 0.5;
    exact.beam.full_candidate_cap = 64;
  }
};

struct WorkflowResult {
  bool found = false;
  bool timed_out = false;
  /// True if the state went down the sparse path (n*m < 2^n).
  bool sparse_path = false;
  /// True if the exact kernel produced the tail of the circuit.
  bool used_exact_tail = false;
  /// True if some exact-tail kernel search this workflow ran stopped
  /// early on its node or wall-clock budget
  /// (SearchStats::budget_exhausted): the returned circuit is still
  /// valid, but a larger budget could improve it. Distinct from
  /// `timed_out`, which means the workflow produced no circuit at all.
  bool budget_exhausted = false;
  /// The preparation. With WorkflowOptions::coupling set, the register is
  /// the device register (target qubits first, spare device qubits are
  /// ancillas returning to |0>) and the circuit is routed: only 1-qubit
  /// gates and two-qubit natives on device edges. With a non-CNOT
  /// WorkflowOptions::target the circuit is native for that target.
  Circuit circuit{1};
  /// Name of the backend target the circuit was produced for ("cnot",
  /// "cz", "iswap", "rzz") — bench rows carry it alongside opt_level.
  std::string target = "cnot";
  /// Accounting of the pass pipeline run on `circuit` at
  /// WorkflowOptions::opt_level (empty at O0 / when nothing ran).
  PipelineReport passes;
};

class Solver {
 public:
  explicit Solver(WorkflowOptions options = {});

  /// Prepare `target` from |0...0> (Fig. 5 workflow).
  WorkflowResult prepare(const QuantumState& target) const;

  /// Prepare a state that already fits (or nearly fits) the exact
  /// thresholds: peel separable structure, synthesize the entangled core
  /// exactly, re-embed. Falls back to cardinality reduction when the state
  /// has no slot decomposition. With WorkflowOptions::coupling set, the
  /// core is hosted on a connected induced subgraph of the device (the
  /// core's wires plus shortest-path connectors) and the exact search
  /// runs against that subgraph's routed costs; the returned register is
  /// the device register. The output is *not* routed here — prepare()
  /// routes the assembled workflow circuit once at the end. Exposed for
  /// tests and benches. `budget_exhausted`, when non-null, is OR-ed with
  /// SearchStats::budget_exhausted of the kernel search run here.
  Circuit prepare_via_exact_tail(const QuantumState& reduced,
                                 bool* used_exact = nullptr,
                                 bool* budget_exhausted = nullptr) const;

  const WorkflowOptions& options() const { return options_; }

 private:
  /// Deadline-aware body of prepare_via_exact_tail: the enclosing
  /// workflow deadline's remaining time bounds every kernel search run
  /// here; the search-free cardinality-reduction fallback is never
  /// budgeted, so a circuit is always produced. A budget-truncated
  /// kernel search sets *budget_exhausted (OR semantics across calls).
  /// `cost_bound` is the incumbent bound (SearchOptions::cost_bound) on
  /// the returned circuit's lowered CNOT count: a kernel result is only
  /// useful below it. When the searches bound out, *used_exact stays
  /// false and the reduction fallback's circuit is returned.
  Circuit exact_tail(const QuantumState& reduced, bool* used_exact,
                     bool* budget_exhausted, const Deadline& deadline,
                     std::int64_t cost_bound) const;

  WorkflowOptions options_;
};

}  // namespace qsp
