// Incumbent cost bound (SearchOptions::cost_bound, BeamOptions::cost_bound):
// A* and the beam at several shard counts under B in
// {opt - 1, opt, opt + 1, none}, and the two
// facts the workflow's bound derivation rests on: a kernel's cnot_cost is
// the lowered CNOT count of its circuit, and that count adds over
// Circuit::append.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/lowering.hpp"
#include "core/astar.hpp"
#include "core/beam.hpp"
#include "core/exact_synthesizer.hpp"
#include "flow/solver.hpp"
#include "pass_test_util.hpp"
#include "prep/mflow.hpp"
#include "prep/nflow.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

/// Seeded 4-qubit uniform states, three for each m in [3, 6], plus
/// Dicke(4,2) and W(4): every one certifies quickly without a budget.
std::vector<QuantumState> bound_corpus() {
  std::vector<QuantumState> corpus;
  Rng rng(1313);
  for (int m = 3; m <= 6; ++m) {
    for (int i = 0; i < 3; ++i) corpus.push_back(make_random_uniform(4, m, rng));
  }
  corpus.push_back(make_dicke(4, 2));
  corpus.push_back(make_w(4));
  return corpus;
}

SearchOptions unbudgeted_astar(int threads = 1) {
  SearchOptions options;
  options.node_budget = 0;
  options.num_threads = threads;
  return options;
}

/// The workflow's beam configuration, without its wall-clock budget so
/// the descent is deterministic.
BeamOptions workflow_beam(int threads = 1) {
  BeamOptions options = WorkflowOptions().exact.beam;
  options.time_budget_seconds = 0.0;
  options.num_threads = threads;
  return options;
}

/// The bounds every kernel is run under for a class of optimum `opt`.
std::vector<std::int64_t> bounds_around(std::int64_t opt) {
  return {opt - 1, opt, opt + 1, kNoCostBound};
}

std::string bound_name(std::int64_t bound) {
  return bound == kNoCostBound ? "none" : std::to_string(bound);
}

std::int64_t elided_cnots(const Circuit& circuit) {
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  return count_cnots_after_lowering(circuit, elide);
}

void expect_bounded_result(const SynthesisResult& res, std::int64_t opt,
                           std::int64_t bound, const std::string& ctx) {
  EXPECT_FALSE(res.stats.budget_exhausted) << ctx;
  if (opt < bound) {
    ASSERT_TRUE(res.found) << ctx;
    EXPECT_EQ(res.cnot_cost, opt) << ctx;
    EXPECT_TRUE(res.optimal) << ctx;
    EXPECT_FALSE(res.stats.bounded_out) << ctx;
    EXPECT_EQ(elided_cnots(res.circuit), res.cnot_cost) << ctx;
  } else {
    EXPECT_FALSE(res.found) << ctx;
    EXPECT_FALSE(res.optimal) << ctx;
    EXPECT_TRUE(res.stats.bounded_out) << ctx;
  }
}

TEST(IncumbentBound, AStarFindsOptimumIffBelowBound) {
  for (const QuantumState& target : bound_corpus()) {
    const SynthesisResult ref =
        AStarSynthesizer(unbudgeted_astar()).synthesize(target);
    ASSERT_TRUE(ref.optimal) << target.to_string();
    for (const std::int64_t bound : bounds_around(ref.cnot_cost)) {
      SearchOptions options = unbudgeted_astar();
      options.cost_bound = bound;
      const SynthesisResult res = AStarSynthesizer(options).synthesize(target);
      const std::string ctx = target.to_string() + " B=" + bound_name(bound);
      expect_bounded_result(res, ref.cnot_cost, bound, ctx);
      if (res.found) verify_preparation_or_throw(res.circuit, target);
      // A bound only removes nodes at or above it: never more work.
      EXPECT_LE(res.stats.nodes_expanded, ref.stats.nodes_expanded) << ctx;
    }
  }
}

TEST(IncumbentBound, HdaStarFindsOptimumIffBelowBound) {
  for (const QuantumState& target : bound_corpus()) {
    const SynthesisResult ref =
        AStarSynthesizer(unbudgeted_astar()).synthesize(target);
    ASSERT_TRUE(ref.optimal) << target.to_string();
    for (const int threads : {2, 4}) {
      for (const std::int64_t bound : bounds_around(ref.cnot_cost)) {
        SearchOptions options = unbudgeted_astar(threads);
        options.cost_bound = bound;
        const SynthesisResult res =
            AStarSynthesizer(options).synthesize(target);
        const std::string ctx = target.to_string() + " B=" +
                                bound_name(bound) +
                                " threads=" + std::to_string(threads);
        expect_bounded_result(res, ref.cnot_cost, bound, ctx);
        if (res.found) verify_preparation_or_throw(res.circuit, target);
      }
    }
  }
}

TEST(IncumbentBound, HdaStarQueuesNothingAtOrAboveTheBound) {
  // Entries with f >= B can never be expanded, so they are not queued
  // either: under B = opt the open lists stay smaller than unbounded. At
  // one shard the peak equals the serial A* kernel's, recorded before the
  // one-shard HDA* search replaced it.
  const std::vector<std::uint64_t> serial_peak_at_opt = {
      1, 1, 1, 8, 10, 8, 24, 23, 32, 57, 36, 96, 6, 11};
  const std::vector<QuantumState> corpus = bound_corpus();
  ASSERT_EQ(corpus.size(), serial_peak_at_opt.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const QuantumState& target = corpus[i];
    const std::int64_t opt =
        AStarSynthesizer(unbudgeted_astar()).synthesize(target).cnot_cost;
    SearchOptions one_shard = unbudgeted_astar();
    one_shard.cost_bound = opt;
    EXPECT_EQ(AStarSynthesizer(one_shard)
                  .synthesize(target)
                  .stats.sum_shard_peak_open_size,
              serial_peak_at_opt[i])
        << target.to_string();
    for (const int threads : {2, 4}) {
      SearchOptions options = unbudgeted_astar(threads);
      const SynthesisResult unbounded =
          AStarSynthesizer(options).synthesize(target);
      options.cost_bound = opt;
      const SynthesisResult bounded =
          AStarSynthesizer(options).synthesize(target);
      EXPECT_TRUE(bounded.stats.bounded_out) << target.to_string();
      EXPECT_LE(bounded.stats.sum_shard_peak_open_size,
                unbounded.stats.sum_shard_peak_open_size)
          << target.to_string() << " threads=" << threads;
    }
  }
}

TEST(IncumbentBound, BeamsAreBitIdenticalAndNeverReachTheBound) {
  for (const QuantumState& target : bound_corpus()) {
    const std::int64_t opt =
        AStarSynthesizer(unbudgeted_astar()).synthesize(target).cnot_cost;
    const SynthesisResult unbounded =
        BeamSynthesizer(workflow_beam()).synthesize(target);
    ASSERT_TRUE(unbounded.found) << target.to_string();
    std::vector<std::int64_t> bounds = bounds_around(opt);
    bounds.push_back(unbounded.cnot_cost);
    for (const std::int64_t bound : bounds) {
      BeamOptions options = workflow_beam();
      options.cost_bound = bound;
      const SynthesisResult ref = BeamSynthesizer(options).synthesize(target);
      const std::string ctx = target.to_string() + " B=" + bound_name(bound);
      EXPECT_FALSE(ref.stats.budget_exhausted) << ctx;
      if (ref.found) {
        EXPECT_LT(ref.cnot_cost, bound) << ctx;
        EXPECT_GE(ref.cnot_cost, opt) << ctx;
        EXPECT_FALSE(ref.stats.bounded_out) << ctx;
        EXPECT_EQ(elided_cnots(ref.circuit), ref.cnot_cost) << ctx;
        verify_preparation_or_throw(ref.circuit, target);
      } else {
        EXPECT_TRUE(ref.stats.bounded_out) << ctx;
      }
      if (bound <= opt) EXPECT_FALSE(ref.found) << ctx;
      if (bound == kNoCostBound) {
        EXPECT_TRUE(ref.circuit == unbounded.circuit) << ctx;
      }
      for (const int threads : {2, 4}) {
        BeamOptions parallel_options = workflow_beam(threads);
        parallel_options.cost_bound = bound;
        const SynthesisResult res =
            BeamSynthesizer(parallel_options).synthesize(target);
        const std::string tctx = ctx + " threads=" + std::to_string(threads);
        ASSERT_EQ(res.found, ref.found) << tctx;
        EXPECT_EQ(res.cnot_cost, ref.cnot_cost) << tctx;
        EXPECT_TRUE(res.circuit == ref.circuit) << tctx;
        EXPECT_EQ(res.stats.nodes_generated, ref.stats.nodes_generated) << tctx;
        EXPECT_EQ(res.stats.nodes_expanded, ref.stats.nodes_expanded) << tctx;
        EXPECT_EQ(res.stats.classes_stored, ref.stats.classes_stored) << tctx;
        EXPECT_EQ(res.stats.bounded_out, ref.stats.bounded_out) << tctx;
        EXPECT_FALSE(res.stats.budget_exhausted) << tctx;
      }
    }
  }
}

TEST(IncumbentBound, NoBoundReproducesPinnedCircuits) {
  // Recorded from the serial kernels before the bound existed: with no
  // bound the one-shard A* and beam circuits are unchanged gate for gate.
  std::uint64_t astar_hash = test::kGateChecksumSeed;
  std::uint64_t beam_hash = test::kGateChecksumSeed;
  for (const QuantumState& target : bound_corpus()) {
    astar_hash = test::gate_sequence_checksum(
        AStarSynthesizer(unbudgeted_astar()).synthesize(target).circuit,
        astar_hash);
    beam_hash = test::gate_sequence_checksum(
        BeamSynthesizer(workflow_beam()).synthesize(target).circuit,
        beam_hash);
  }
  EXPECT_EQ(astar_hash, 0x554da9e5928f8f95ull);
  EXPECT_EQ(beam_hash, 0x4f7032eab5148ba5ull);
}

TEST(IncumbentBound, ExactSynthesizerSkipsBeamOnlyWhenAStarBoundedOut) {
  // Dicke(4,2) needs 6 CNOTs. Under B = 6 A* bounds out without touching
  // its budget, and the beam (a subset of A*'s arcs) is skipped.
  const QuantumState target = make_dicke(4, 2);
  ExactSynthesisOptions options = WorkflowOptions().exact;
  options.astar.time_budget_seconds = 0.0;
  options.beam.time_budget_seconds = 0.0;
  options.astar.cost_bound = 6;
  options.beam.cost_bound = 6;
  const SynthesisResult skipped = ExactSynthesizer(options).synthesize(target);
  EXPECT_FALSE(skipped.found);
  EXPECT_TRUE(skipped.stats.bounded_out);
  EXPECT_FALSE(skipped.stats.budget_exhausted);
  const SynthesisResult astar_only =
      AStarSynthesizer(options.astar).synthesize(target);
  EXPECT_EQ(skipped.stats.nodes_generated, astar_only.stats.nodes_generated);

  // A beam that may take arcs A* never enumerates still runs.
  ExactSynthesisOptions narrow = options;
  narrow.astar.max_controls = 1;
  const SynthesisResult fallback = ExactSynthesizer(narrow).synthesize(target);
  const SynthesisResult narrow_astar =
      AStarSynthesizer(narrow.astar).synthesize(target);
  EXPECT_GT(fallback.stats.nodes_generated,
            narrow_astar.stats.nodes_generated);
  EXPECT_EQ(fallback.stats.classes_stored,
            narrow_astar.stats.classes_stored +
                BeamSynthesizer(narrow.beam).synthesize(target)
                    .stats.classes_stored);
}

TEST(IncumbentBound, KernelCostIsTheElidedLoweredCount) {
  // The workflow compares a kernel result against its competitor by the
  // elided lowered CNOT count and bounds the kernel by that count, so the
  // two must agree on every result the kernels return.
  std::vector<SynthesisResult> results;
  for (const QuantumState& target : bound_corpus()) {
    results.push_back(AStarSynthesizer(unbudgeted_astar()).synthesize(target));
    SearchOptions capped = WorkflowOptions().exact.astar;
    capped.time_budget_seconds = 0.0;
    results.push_back(AStarSynthesizer(capped).synthesize(target));
    results.push_back(BeamSynthesizer(workflow_beam()).synthesize(target));
    results.push_back(BeamSynthesizer(BeamOptions{}).synthesize(target));
  }
  for (const SynthesisResult& res : results) {
    ASSERT_TRUE(res.found);
    EXPECT_EQ(elided_cnots(res.circuit), res.cnot_cost)
        << res.circuit.to_string();
  }
}

TEST(IncumbentBound, ElidedLoweredCountAddsOverAppend) {
  // The dual path bounds its exact tail by the competitor's cost minus
  // the unreduction gates' cost: that needs additivity over append.
  test::CorpusOptions corpus;
  corpus.near_zero_fraction = 0.3;
  const std::vector<Circuit> circuits = test::random_circuit_corpus(corpus);
  int pairs = 0;
  for (const Circuit& a : circuits) {
    for (const Circuit& b : circuits) {
      if (a.num_qubits() != b.num_qubits()) continue;
      Circuit joined = a;
      joined.append(b);
      EXPECT_EQ(elided_cnots(joined), elided_cnots(a) + elided_cnots(b));
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 100);

  // The workflow's own seams: a reduced-state tail + m-flow unreduction,
  // and the dense marginal + n-flow stages.
  Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 5 + trial;
    const QuantumState sparse = make_random_uniform(n, n + 2, rng);
    const auto fits = [](const QuantumState& s) { return s.cardinality() <= 6; };
    const MFlowReduction reduction = mflow_reduce(sparse, fits);
    Circuit forward(n);
    for (const Gate& g : reduction.forward_gates) forward.append(g);
    Circuit circuit = mflow_prepare(reduction.reduced).circuit;
    const Circuit unreduce = forward.adjoint();
    const std::int64_t parts = elided_cnots(circuit) + elided_cnots(unreduce);
    circuit.append(unreduce);
    EXPECT_EQ(elided_cnots(circuit), parts);

    const QuantumState dense = make_random_uniform(n, 1 << (n - 1), rng);
    Circuit marginal(n);
    marginal.append(nflow_prepare(nflow_marginal(dense, 4)));
    const Circuit stages = nflow_stages(dense, 4);
    const std::int64_t dense_parts =
        elided_cnots(marginal) + elided_cnots(stages);
    marginal.append(stages);
    EXPECT_EQ(elided_cnots(marginal), dense_parts);
  }
}

}  // namespace
}  // namespace qsp
