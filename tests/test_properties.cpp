// Parameterized property sweeps across (qubits, cardinality, seed): the
// system-level invariants every component must satisfy on arbitrary
// uniform inputs. These complement the per-module unit tests with broad
// randomized coverage.

#include <gtest/gtest.h>

#include <tuple>

#include "circuit/lowering.hpp"
#include "circuit/pass_pipeline.hpp"
#include "core/astar.hpp"
#include "core/beam.hpp"
#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/moves.hpp"
#include "flow/methods.hpp"
#include "flow/solver.hpp"
#include "sim/statevector.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

using Params = std::tuple<int, int, std::uint64_t>;  // n, m, seed

class UniformStateProperty : public ::testing::TestWithParam<Params> {
 protected:
  QuantumState target() const {
    const auto& [n, m, seed] = GetParam();
    Rng rng(seed);
    return make_random_uniform(n, m, rng);
  }
};

/// Every arc's slot semantics must equal its gate's unitary action.
TEST_P(UniformStateProperty, MoveGateSemanticsAgree) {
  const QuantumState state = target();
  const SlotState slot = *SlotState::from_state(state);
  MoveGenOptions options;
  options.include_zero_cost = true;
  options.max_controls = 2;
  for (const Move& mv : enumerate_moves(slot, options)) {
    const SlotState child = apply_move(slot, mv);
    Statevector sv(slot.to_state());
    sv.apply(mv.to_gate());
    ASSERT_NEAR(std::abs(sv.inner_product(child.to_state())), 1.0, 1e-7)
        << mv.to_string();
  }
}

/// Canonical keys are invariant under the free transforms they quotient.
TEST_P(UniformStateProperty, CanonicalKeyInvariance) {
  const QuantumState state = target();
  const SlotState slot = *SlotState::from_state(state);
  const auto& [n, m, seed] = GetParam();
  Rng rng(seed ^ 0xF00Du);
  const auto key_u2 = canonical_key(slot, CanonicalLevel::kU2);
  for (int trial = 0; trial < 4; ++trial) {
    const BasisIndex mask = static_cast<BasisIndex>(
        rng.next_below(std::uint64_t{1} << n));
    EXPECT_EQ(canonical_key(slot.with_translation(mask),
                            CanonicalLevel::kU2),
              key_u2);
  }
  if (n <= 6) {
    const auto key_pu2 = canonical_key(slot, CanonicalLevel::kPU2Exact);
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) perm[static_cast<std::size_t>(q)] = q;
    rng.shuffle(perm);
    EXPECT_EQ(canonical_key(slot.with_permutation(perm),
                            CanonicalLevel::kPU2Exact),
              key_pu2);
  }
}

/// The exact solver returns verified circuits whose lowered CNOT count
/// equals the reported arc cost and dominates both admissible bounds.
/// Beyond A*'s reach (n > 4) the workflow's beam takes its place, without
/// its wall-clock budget so the descent is deterministic; its circuits
/// carry no certificate.
TEST_P(UniformStateProperty, ExactSynthesisSound) {
  const QuantumState state = target();
  const bool exact_reach = state.num_qubits() <= 4;
  SynthesisResult res;
  if (exact_reach) {
    res = AStarSynthesizer().synthesize(state);
  } else {
    BeamOptions beam = WorkflowOptions().exact.beam;
    beam.time_budget_seconds = 0.0;
    res = BeamSynthesizer(beam).synthesize(state);
  }
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.optimal, exact_reach);
  verify_preparation_or_throw(res.circuit, state);
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost);
  const SlotState slot = *SlotState::from_state(state);
  EXPECT_GE(res.cnot_cost,
            heuristic_lower_bound(slot, HeuristicMode::kComponent));
  EXPECT_GE(res.cnot_cost,
            heuristic_lower_bound(slot, HeuristicMode::kPair));
}

/// The optimizer never changes the prepared state and never adds cost.
TEST_P(UniformStateProperty, OptimizerSoundOnWorkflowCircuits) {
  const QuantumState state = target();
  const MethodRun run = run_method(Method::kOurs, state);
  ASSERT_TRUE(run.ok);
  const Circuit optimized = optimize_circuit(run.circuit);
  EXPECT_LE(optimized.size(), run.circuit.size());
  verify_preparation_or_throw(optimized, state);
}

/// All four methods prepare the same state.
TEST_P(UniformStateProperty, AllMethodsVerify) {
  const QuantumState state = target();
  for (const Method m :
       {Method::kMFlow, Method::kNFlow, Method::kHybrid, Method::kOurs}) {
    const MethodRun run = run_method(m, state);
    ASSERT_TRUE(run.ok) << method_name(m);
    verify_preparation_or_throw(run.circuit, state);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SparseSweep, UniformStateProperty,
    ::testing::Combine(::testing::Values(3, 4, 6, 8),
                       ::testing::Values(3, 5),
                       ::testing::Values(11u, 22u)),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "m" +
             std::to_string(std::get<1>(info.param)) + "s" +
             std::to_string(std::get<2>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    DenseSweep, UniformStateProperty,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Values(4, 8),
                       ::testing::Values(33u, 44u)),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "m" +
             std::to_string(std::get<1>(info.param)) + "s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace qsp
