#include "flow/solver.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "arch/routing.hpp"
#include "circuit/dataflow.hpp"
#include "circuit/lowering.hpp"
#include "core/canonical.hpp"
#include "core/search_core.hpp"
#include "prep/nflow.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// Flip an unobservable global -1 so slot decomposition can proceed.
QuantumState normalize_global_sign(const QuantumState& state) {
  const bool all_negative =
      std::all_of(state.terms().begin(), state.terms().end(),
                  [](const Term& t) { return t.amplitude < 0; });
  if (!all_negative) return state;
  std::vector<Term> terms = state.terms();
  for (Term& t : terms) t.amplitude = -t.amplitude;
  return QuantumState(state.num_qubits(), std::move(terms));
}

}  // namespace

Solver::Solver(WorkflowOptions options) : options_(std::move(options)) {
  validate_search_coupling("Solver", options_.coupling.get());
}

Circuit Solver::prepare_via_exact_tail(const QuantumState& reduced,
                                       bool* used_exact,
                                       bool* budget_exhausted) const {
  return exact_tail(reduced, used_exact, budget_exhausted, Deadline(0.0),
                    kNoCostBound);
}

Circuit Solver::exact_tail(const QuantumState& reduced, bool* used_exact,
                           bool* budget_exhausted, const Deadline& deadline,
                           std::int64_t cost_bound) const {
  if (used_exact != nullptr) *used_exact = false;
  const QuantumState target = normalize_global_sign(reduced);
  const CouplingGraph* device = options_.coupling.get();
  // With a device the register is the device register: connector and
  // spare qubits above the target are ancillas that end in |0>.
  const int width = device != nullptr
                        ? std::max(device->num_qubits(), target.num_qubits())
                        : target.num_qubits();
  const auto widen = [width](Circuit circuit) {
    if (circuit.num_qubits() == width) return circuit;
    Circuit wide(width);
    wide.append(circuit);
    return wide;
  };
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    // Signed or irrational tail: finish with cost-aware cardinality
    // reduction, which handles arbitrary real amplitudes.
    MFlowOptions fallback = options_.mflow;
    fallback.strategy = MFlowOptions::PairStrategy::kCheapest;
    const MFlowResult res = mflow_prepare(target, fallback);
    return widen(res.circuit);
  }

  SlotState peeled = *slot;
  const std::vector<Gate> peel = free_peel_gates(peeled);

  Circuit prep(width);
  if (!peeled.is_ground()) {
    // Extract the entangled core onto a narrow register. Coupling-blind,
    // the register is exactly the non-constant wires; with a device it is
    // the smallest connected induced subgraph hosting those wires, so the
    // exact search sees real routed costs (and may use the connector
    // wires as workspace — they are constant |0> in the peeled state).
    std::vector<int> active;
    for (int q = 0; q < peeled.num_qubits(); ++q) {
      if (!peeled.qubit_constant(q)) active.push_back(q);
    }
    QSP_ASSERT(!active.empty());
    std::vector<int> host = active;
    std::shared_ptr<const CouplingGraph> tail_coupling;
    if (device != nullptr && !device->is_complete()) {
      host = device->connected_superset(active);
      if (static_cast<int>(host.size()) > options_.exact_max_host_qubits) {
        // The core is so spread out that connecting it needs more wires
        // than the exact kernel should search over; reduce instead (the
        // final routing still makes the result conformant).
        MFlowOptions fallback = options_.mflow;
        fallback.strategy = MFlowOptions::PairStrategy::kCheapest;
        return widen(mflow_prepare(target, fallback).circuit);
      }
      tail_coupling =
          std::make_shared<const CouplingGraph>(device->induced(host));
    }
    std::vector<SlotEntry> narrow_entries;
    narrow_entries.reserve(peeled.entries().size());
    for (const SlotEntry& e : peeled.entries()) {
      BasisIndex idx = 0;
      for (std::size_t i = 0; i < host.size(); ++i) {
        if (get_bit(e.index, host[i]) != 0) {
          idx |= BasisIndex{1} << i;
        }
      }
      narrow_entries.push_back(SlotEntry{idx, e.count});
    }
    const SlotState narrow(static_cast<int>(host.size()),
                           std::move(narrow_entries));
    ExactSynthesisOptions exact_options = options_.exact;
    if (options_.num_threads != 1) {
      exact_options.astar.num_threads = options_.num_threads;
      exact_options.beam.num_threads = options_.num_threads;
    }
    if (tail_coupling != nullptr) {
      exact_options.astar.coupling = tail_coupling;
      exact_options.beam.coupling = tail_coupling;
    }
    // Shared-cache mode: every kernel search consults/populates the
    // cross-request equivalence cache. A cache configured directly on
    // the nested search options is left alone.
    if (options_.cache != nullptr) {
      exact_options.astar.cache = options_.cache;
      exact_options.beam.cache = options_.cache;
    }
    // The workflow deadline bounds the searches themselves, not just the
    // stage boundaries: a runaway kernel aborts mid-search and the
    // reduction fallback below still returns a circuit.
    exact_options.time_budget_seconds =
        clamp_budget(exact_options.time_budget_seconds, deadline);
    // The peel gates are X flips and uncontrolled Ry merges, free of
    // CNOTs, so the bound on this circuit's lowered count bounds the
    // kernel's CNOT cost directly.
    exact_options.astar.cost_bound =
        std::min(exact_options.astar.cost_bound, cost_bound);
    exact_options.beam.cost_bound =
        std::min(exact_options.beam.cost_bound, cost_bound);
    const ExactSynthesizer exact(exact_options);
    const SynthesisResult res = exact.synthesize(narrow);
    if (budget_exhausted != nullptr && res.stats.budget_exhausted) {
      *budget_exhausted = true;
    }
    if (!res.found) {
      MFlowOptions fallback = options_.mflow;
      fallback.strategy = MFlowOptions::PairStrategy::kCheapest;
      return widen(mflow_prepare(target, fallback).circuit);
    }
    for (const Gate& g : res.circuit.gates()) {
      prep.append(g.remapped(host));
    }
    if (used_exact != nullptr) *used_exact = true;
  }
  // Undo the peel: peel maps `target` to the peeled form, so its adjoint
  // maps the prepared peeled state back to `target`.
  Circuit peel_circuit(target.num_qubits());
  for (const Gate& g : peel) peel_circuit.append(g);
  prep.append(peel_circuit.adjoint());
  return prep;
}

WorkflowResult Solver::prepare(const QuantumState& target) const {
  const Deadline deadline(options_.time_budget_seconds);
  WorkflowResult result;
  result.target = std::string(options_.target.name());
  const int n = target.num_qubits();
  const CouplingGraph* device = options_.coupling.get();
  if (device != nullptr && device->num_qubits() < n) {
    throw std::invalid_argument(
        "Solver::prepare: device has fewer qubits than the target");
  }
  // Device register width; equals n when no coupling is set.
  const int nw = device != nullptr ? device->num_qubits() : n;
  // Route the assembled workflow circuit onto the device so the result
  // satisfies respects_coupling (two-qubit gates on edges, composites
  // lowered), then run the pass pipeline at the requested -O level. With
  // a non-CNOT target the pipeline also runs the staged lowering, so
  // optimization and legalization share one fixpoint; the native
  // decompositions stay on each CNOT's own wire pair, so routed circuits
  // stay routed.
  const auto routed_onto_device = [&](Circuit circuit) {
    if (device != nullptr) circuit = route_circuit(circuit, *device);
    // Static ancilla certification (QL014): routed circuits use the spare
    // device wires above the logical register as workspace, and the
    // routing contract says every one of them returns to |0>. Routed
    // output is {X, Ry, CNOT} with rotations only on logical wires, so
    // the dataflow engine proves the contract exactly; run the gate here,
    // before the pass pipeline (the pipeline preserves preparation, so
    // certification transfers to the optimized output). Release builds
    // included — this is static analysis, not simulation.
    if (device != nullptr && nw > n) {
      DataflowOptions dataflow;
      dataflow.num_data_wires = n;
      const LintReport report = dataflow_lint(circuit, dataflow);
      if (report.has_errors()) {
        throw std::logic_error(
            "Solver::prepare: routed circuit failed static ancilla "
            "certification:\n" +
            report.to_string());
      }
    }
    PipelineOptions pipeline;
    pipeline.level = options_.opt_level;
    if (!options_.target.is_cnot()) {
      pipeline.lower_to_target = true;
      pipeline.pass.target = options_.target;
      pipeline.pass.elide_zero_rotations = true;
    }
    // Attach the device to the pipeline's target descriptor: the per-pass
    // lint gate then checks that no pass moves a routed two-qubit gate
    // off the device's edge set.
    if (pipeline.pass.target.coupling == nullptr) {
      pipeline.pass.target.coupling = options_.coupling;
    }
    return optimize_circuit(circuit, pipeline, &result.passes);
  };
  // Selection metric for competing tails/paths: lowered CNOT count,
  // measured after routing when a device is set — a tail with fewer
  // logical CNOTs can still lose once its long-range pairs pay 4(d-1).
  const auto selection_cost = [&](const Circuit& circuit,
                                  const LoweringOptions& lowering) {
    if (device == nullptr) {
      return count_cnots_after_lowering(circuit, lowering);
    }
    return lowered_cnot_count(route_circuit(circuit, *device, lowering));
  };
  // Incumbent bound for an exact tail that competes with a circuit of
  // selection cost `cost`: the tail is only kept if it is strictly
  // cheaper, so its searches may stop once nothing cheaper remains. Only
  // coupling-blind: there the selection cost is the plain lowered count,
  // which equals the kernel's CNOT cost and adds over Circuit::append. A
  // routed count is neither, so device runs search unbounded.
  const auto incumbent_bound = [&](std::int64_t cost) {
    return device == nullptr ? cost : kNoCostBound;
  };
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  const auto m = static_cast<std::uint64_t>(target.cardinality());
  result.sparse_path =
      static_cast<std::uint64_t>(n) * m < (std::uint64_t{1} << n);

  auto fits_thresholds = [this](const QuantumState& state) {
    // A slot state has one entry per term, so an over-large support fails
    // the cardinality threshold before any decomposition is tried.
    if (state.cardinality() > options_.exact_max_cardinality) return false;
    const QuantumState normalized = normalize_global_sign(state);
    const auto slot = SlotState::from_state(normalized);
    if (!slot.has_value()) return false;
    const SlotState compressed = compress_free(*slot);
    int active = 0;
    for (int q = 0; q < compressed.num_qubits(); ++q) {
      if (!compressed.qubit_constant(q)) ++active;
    }
    return active <= options_.exact_max_qubits;
  };

  if (fits_thresholds(target)) {
    result.circuit = routed_onto_device(
        exact_tail(target, &result.used_exact_tail,
                   &result.budget_exhausted, deadline, kNoCostBound));
    result.found = true;
    return result;
  }

  // `competitor` is the selection cost the returned circuit must beat
  // (kNoCostBound: none). The unreduction gates are paid either way, so
  // the exact tail's bound is what they leave over.
  auto sparse_prepare = [&](bool* used_exact, std::int64_t competitor)
      -> std::optional<Circuit> {
    MFlowOptions mflow = options_.mflow;
    mflow.time_budget_seconds =
        clamp_budget(mflow.time_budget_seconds, deadline);
    const MFlowReduction reduction =
        mflow_reduce(target, fits_thresholds, mflow);
    if (reduction.timed_out) return std::nullopt;
    Circuit forward(n);
    for (const Gate& g : reduction.forward_gates) forward.append(g);
    const Circuit unreduce = forward.adjoint();
    const std::int64_t tail_bound =
        competitor == kNoCostBound
            ? kNoCostBound
            : competitor - selection_cost(unreduce, elide);
    Circuit circuit = exact_tail(reduction.reduced, used_exact,
                                 &result.budget_exhausted, deadline,
                                 tail_bound);
    circuit.append(unreduce);
    return circuit;
  };

  if (result.sparse_path) {
    // Sparse: cardinality reduction until the compressed state fits.
    auto circuit = sparse_prepare(&result.used_exact_tail, kNoCostBound);
    if (!circuit.has_value()) {
      result.timed_out = true;
      return result;
    }
    result.circuit = routed_onto_device(std::move(*circuit));
    result.found = true;
    return result;
  }

  // Dense: qubit reduction. The multiplexor stages handle qubits
  // exact_max_qubits..n-1; the exact kernel prepares the marginal when it
  // wins over the marginal's own multiplexor stages (the reductions give
  // the tail non-uniform counts, where the exact search is not always the
  // cheaper realization).
  const int t = std::min(options_.exact_max_qubits, n);
  if (t < 1) {
    // Exact tail disabled: plain qubit reduction.
    result.circuit = routed_onto_device(nflow_prepare(target));
    result.found = !deadline.expired();
    result.timed_out = !result.found;
    return result;
  }
  const QuantumState marginal = nflow_marginal(target, t);
  bool used_exact = false;
  Circuit tail = nflow_prepare(marginal);
  // Count-heavy marginals are generic positive states where the stages
  // are already near-optimal: only pay for the exact attempt when the
  // slot total is small enough that it can plausibly win.
  const auto marginal_slots = SlotState::from_state(marginal);
  if (marginal_slots.has_value() &&
      marginal_slots->total() <= options_.dense_tail_total_cap) {
    bool exact_used = false;
    const std::int64_t tail_cost = selection_cost(tail, elide);
    Circuit exact_marginal =
        exact_tail(marginal, &exact_used, &result.budget_exhausted, deadline,
                   incumbent_bound(tail_cost));
    if (exact_used && selection_cost(exact_marginal, elide) < tail_cost) {
      tail = std::move(exact_marginal);
      used_exact = true;
    }
  }
  result.used_exact_tail = used_exact;
  Circuit circuit(nw);
  circuit.append(tail);
  circuit.append(nflow_stages(target, t));

  // Borderline densities: the sparse machinery sometimes wins outright
  // (e.g. symmetric states like Dicke whose n*m is just above 2^n).
  if (target.cardinality() <= options_.dual_path_max_cardinality) {
    bool sparse_exact = false;
    const std::int64_t dense_cost = selection_cost(circuit, elide);
    const auto alt = sparse_prepare(&sparse_exact, incumbent_bound(dense_cost));
    if (alt.has_value() && selection_cost(*alt, elide) < dense_cost) {
      circuit = *alt;
      result.used_exact_tail = sparse_exact;
    }
  }
  if (deadline.expired()) {
    result.timed_out = true;
    return result;
  }
  result.circuit = routed_onto_device(std::move(circuit));
  result.found = true;
  return result;
}

}  // namespace qsp
