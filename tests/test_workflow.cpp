#include "flow/solver.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "arch/routing.hpp"
#include "circuit/lowering.hpp"
#include "core/search_cache.hpp"
#include "flow/methods.hpp"
#include "pass_test_util.hpp"
#include "service/equivalence_cache.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

TEST(Workflow, TinyStatesUseExactDirectly) {
  // Unbudgeted kernels: the pinned CNOT count needs the exact tail to
  // complete, and under ctest load the default 1 s / 0.5 s wall budgets
  // can exhaust and divert to a fallback.
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  const Solver solver(options);
  const QuantumState target = make_dicke(4, 2);
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.used_exact_tail);
  verify_preparation_or_throw(res.circuit, target);
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), 6);
}

TEST(Workflow, NumThreadsReachesExactTail) {
  // WorkflowOptions::num_threads must flow into the exact tail's A*
  // kernel without changing the certified result.
  WorkflowOptions options;
  options.num_threads = 4;
  const Solver solver(options);
  const QuantumState target = make_dicke(4, 2);
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.used_exact_tail);
  verify_preparation_or_throw(res.circuit, target);
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), 6);
}

TEST(Workflow, SparseDispatch) {
  Rng rng(401);
  const Solver solver;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 6 + static_cast<int>(rng.next_below(5));
    const QuantumState target = make_random_uniform(n, n, rng);
    const WorkflowResult res = solver.prepare(target);
    ASSERT_TRUE(res.found) << target.to_string();
    EXPECT_TRUE(res.sparse_path);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(Workflow, DenseDispatch) {
  Rng rng(402);
  const Solver solver;
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 5 + static_cast<int>(rng.next_below(3));
    const QuantumState target = make_random_uniform(n, 1 << (n - 1), rng);
    const WorkflowResult res = solver.prepare(target);
    ASSERT_TRUE(res.found);
    EXPECT_FALSE(res.sparse_path);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(Workflow, BeatsOrMatchesBestBaselinePerCategory) {
  Rng rng(403);
  // Sparse: ours vs m-flow.
  double ours_sparse = 0, mflow_sparse = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(9, 9, rng);
    const MethodRun ours = run_method(Method::kOurs, target);
    const MethodRun mflow = run_method(Method::kMFlow, target);
    ASSERT_TRUE(ours.ok && mflow.ok);
    ours_sparse += static_cast<double>(ours.cnots);
    mflow_sparse += static_cast<double>(mflow.cnots);
  }
  EXPECT_LT(ours_sparse, mflow_sparse);

  // Dense: ours vs n-flow.
  double ours_dense = 0, nflow_dense = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const QuantumState target = make_random_uniform(6, 32, rng);
    const MethodRun ours = run_method(Method::kOurs, target);
    const MethodRun nflow = run_method(Method::kNFlow, target);
    ASSERT_TRUE(ours.ok && nflow.ok);
    ours_dense += static_cast<double>(ours.cnots);
    nflow_dense += static_cast<double>(nflow.cnots);
  }
  EXPECT_LE(ours_dense, nflow_dense);
}

TEST(Workflow, HandlesSignedStatesViaFallback) {
  Rng rng(404);
  const Solver solver;
  for (int trial = 0; trial < 5; ++trial) {
    const QuantumState target = make_random_real(7, 7, rng);
    const WorkflowResult res = solver.prepare(target);
    ASSERT_TRUE(res.found);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(Workflow, ExactTailHelperVerifies) {
  Rng rng(405);
  // Generous budgets so the exact kernel always completes regardless of
  // machine load (the default wall-clock budgets can expire when the test
  // suite runs highly parallel).
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.astar.node_budget = 5'000'000;
  const Solver solver(options);
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(4, 8, rng);
    bool used_exact = false;
    const Circuit c = solver.prepare_via_exact_tail(target, &used_exact);
    EXPECT_TRUE(used_exact);
    verify_preparation_or_throw(c, target);
  }
}

TEST(Workflow, ExactTailPeelsSeparableQubits) {
  // 6-qubit state with a 2-qubit entangled core: tail must peel and use
  // the exact kernel despite n > exact_max_qubits.
  const QuantumState target = make_uniform(
      6, {0b000000, 0b000011, 0b110000, 0b110011, 0b001000, 0b001011,
          0b111000, 0b111011});
  // Support = Bell(q0,q1) x |+>(q3) x Bell(q4,q5)... cardinality 8.
  const Solver solver;
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(Workflow, MethodRegistryNamesAndRuns) {
  EXPECT_EQ(method_name(Method::kMFlow), "m-flow");
  EXPECT_EQ(method_name(Method::kNFlow), "n-flow");
  EXPECT_EQ(method_name(Method::kHybrid), "hybrid");
  EXPECT_EQ(method_name(Method::kOurs), "ours");
  Rng rng(406);
  const QuantumState target = make_random_uniform(6, 6, rng);
  for (const Method m :
       {Method::kMFlow, Method::kNFlow, Method::kHybrid, Method::kOurs}) {
    const MethodRun run = run_method(m, target);
    ASSERT_TRUE(run.ok) << method_name(m);
    EXPECT_GE(run.cnots, 0) << method_name(m);
    verify_preparation_or_throw(run.circuit, target);
  }
}

TEST(Workflow, BorderlineDenseDualPathBeatsQubitReduction) {
  // |D^2_6> has n*m = 90 >= 2^6, so the fixed Fig.-5 dispatch would pay
  // the dense 2^6 - 2 = 62 CNOTs; the dual-path refinement runs the
  // sparse machinery too and must come in strictly cheaper.
  const QuantumState target = make_dicke(6, 2);
  const Solver solver;
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  EXPECT_LT(count_cnots_after_lowering(res.circuit, elide), 62);
}

TEST(Workflow, CouplingOutputConformsAndVerifies) {
  // End-to-end coupling awareness: with a device set, the workflow output
  // must be native for the device (tightened respects_coupling) and still
  // prepare the target, with spare device wires back in |0>.
  WorkflowOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::grid(2, 3));
  const Solver solver(options);
  Rng rng(408);
  std::vector<QuantumState> targets;
  targets.push_back(make_ghz(5));
  targets.push_back(make_dicke(4, 2));
  targets.push_back(make_random_uniform(5, 5, rng));
  targets.push_back(make_random_uniform(6, 12, rng));
  for (const QuantumState& target : targets) {
    const WorkflowResult res = solver.prepare(target);
    ASSERT_TRUE(res.found) << target.to_string();
    EXPECT_EQ(res.circuit.num_qubits(), 6);
    EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling))
        << target.to_string();
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(Workflow, BackendTargetProducesNativeVerifiedCircuit) {
  // End-to-end backend awareness: with a non-CNOT target the workflow
  // output is native for that backend (the staged lowering ran inside the
  // pipeline) and still prepares the state; the result names its target.
  Rng rng(415);
  const QuantumState dense = make_random_uniform(5, 20, rng);
  for (const Target& target : Target::builtin()) {
    WorkflowOptions options;
    options.target = target;
    const Solver solver(options);
    for (const QuantumState& state :
         {make_ghz(4), make_dicke(4, 2), dense}) {
      const WorkflowResult res = solver.prepare(state);
      ASSERT_TRUE(res.found) << target.name() << " " << state.to_string();
      EXPECT_EQ(res.target, target.name());
      if (!target.is_cnot()) {
        // The identity target keeps the historical contract (composite
        // rotations allowed, benches lower afterwards); every other
        // backend gets a fully legalized stream.
        EXPECT_TRUE(target.is_native_circuit(res.circuit))
            << target.name() << " " << state.to_string();
      }
      verify_preparation_or_throw(res.circuit, state);
    }
  }
}

TEST(Workflow, BackendTargetComposesWithCoupling) {
  // Routing then legalization: the legalized output must stay on the
  // device edges (native decompositions never leave the CNOT's wire pair)
  // and conform under the target-aware respects_coupling.
  for (const Target& target : {Target::cz(), Target::iswap()}) {
    WorkflowOptions options;
    options.target = target;
    options.coupling =
        std::make_shared<CouplingGraph>(CouplingGraph::line(5));
    const Solver solver(options);
    const QuantumState state = make_ghz(5);
    const WorkflowResult res = solver.prepare(state);
    ASSERT_TRUE(res.found) << target.name();
    EXPECT_TRUE(target.is_native_circuit(res.circuit)) << target.name();
    EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling, target))
        << target.name();
    verify_preparation_or_throw(res.circuit, state);
  }
}

TEST(Workflow, CouplingExactTailHostsCoreOnConnectedSubgraph) {
  // Bell(0,5) on a line: the core's wires {0, 5} induce a disconnected
  // subgraph, so the tail must grow a connected host through the middle
  // wires and still verify; the routed workflow output must conform.
  WorkflowOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::line(6));
  const Solver solver(options);
  const QuantumState far_bell = make_uniform(6, {0b000000, 0b100001});
  bool used_exact = false;
  const Circuit tail = solver.prepare_via_exact_tail(far_bell, &used_exact);
  EXPECT_TRUE(used_exact);
  verify_preparation_or_throw(tail, far_bell);

  const WorkflowResult res = solver.prepare(far_bell);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.used_exact_tail);
  EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling));
  verify_preparation_or_throw(res.circuit, far_bell);
}

TEST(Workflow, CouplingHeavyHexDevice) {
  // A 6-qubit GHZ hosted on the 18-qubit heavy-hex patch: the device is
  // wider than the target, so the routed result carries ancilla wires.
  WorkflowOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::heavy_hex(3));
  const Solver solver(options);
  const QuantumState target = make_ghz(6);
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.circuit.num_qubits(), 18);
  EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling));
  verify_preparation_or_throw(res.circuit, target);
}

TEST(Workflow, CouplingHostCapFallsBackWhenCoreTooSpread) {
  // Bell(0,14) across the heavy-hex lattice: only two entangled wires,
  // but connecting them needs ~9 host qubits — beyond
  // exact_max_host_qubits, so the tail must skip the exact kernel (the
  // thresholds were sized for <= exact_max_qubits-entangled cores) and
  // the workflow must still deliver a conformant, verified circuit.
  WorkflowOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::heavy_hex(3));
  const Solver solver(options);
  const QuantumState far_bell =
      make_uniform(15, {0, (BasisIndex{1} << 14) | 1});
  const WorkflowResult res = solver.prepare(far_bell);
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.used_exact_tail);
  EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling));
  verify_preparation_or_throw(res.circuit, far_bell);

  // Raising the cap re-enables the exact kernel on the same instance.
  WorkflowOptions wide = options;
  wide.exact_max_host_qubits = 12;
  const WorkflowResult exact_res = Solver(wide).prepare(far_bell);
  ASSERT_TRUE(exact_res.found);
  EXPECT_TRUE(exact_res.used_exact_tail);
  EXPECT_TRUE(respects_coupling(exact_res.circuit, *options.coupling));
  verify_preparation_or_throw(exact_res.circuit, far_bell);
}

TEST(Workflow, CouplingValidation) {
  WorkflowOptions disconnected;
  disconnected.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph(4, {{0, 1}, {2, 3}}));
  EXPECT_THROW(Solver{disconnected}, std::invalid_argument);

  WorkflowOptions narrow;
  narrow.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  const Solver solver(narrow);
  EXPECT_THROW(solver.prepare(make_ghz(5)), std::invalid_argument);
}

TEST(Workflow, TimedOutReported) {
  Rng rng(407);
  const QuantumState target = make_random_uniform(14, 128, rng);
  WorkflowOptions options;
  options.time_budget_seconds = 1e-9;
  const Solver solver(options);
  const WorkflowResult res = solver.prepare(target);
  // Sparse path (14*128 < 2^14): the state is far above the exact
  // thresholds, so the m-flow reduction must hit the deadline.
  EXPECT_TRUE(res.sparse_path);
  EXPECT_TRUE(res.timed_out);
  EXPECT_FALSE(res.found);
}

TEST(Workflow, TimeBudgetAbortsRunawayKernelSearch) {
  // Regression: time_budget_seconds used to be checked only *between*
  // workflow stages, so an exact-tail search with unlimited per-search
  // budgets would blow the whole budget (minutes on this instance). The
  // deadline must now be wired into the kernels' SearchBudget: the search
  // aborts mid-flight and the search-free reduction fallback still
  // returns a verified circuit.
  Rng rng(408);
  const QuantumState target = make_random_uniform(5, 16, rng);
  WorkflowOptions options;
  options.exact_max_qubits = 5;          // fits-thresholds direct path
  options.exact.astar.time_budget_seconds = 0.0;  // "runaway": unlimited
  options.exact.astar.node_budget = 0;
  options.exact.beam.time_budget_seconds = 0.0;
  options.time_budget_seconds = 0.05;
  const Solver solver(options);
  const Timer timer;
  const WorkflowResult res = solver.prepare(target);
  // Generous bound: the budget is 50ms, the fallback is search-free; the
  // margin absorbs sanitizer slowdowns. Without in-search enforcement
  // this instance searches for minutes.
  EXPECT_LT(timer.seconds(), 10.0);
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.used_exact_tail);  // aborted mid-search, fell back
  // The budget truncation must be visible on the workflow result, not
  // just silently swallowed by the fallback.
  EXPECT_TRUE(res.budget_exhausted);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(Workflow, UnconstrainedRunIsNotBudgetExhausted) {
  // Truly unconstrained: zero the per-kernel wall budgets too, or a
  // loaded ctest run can exhaust the default 1 s A* budget and set the
  // very flag this test asserts is clear.
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  const Solver solver(options);
  const WorkflowResult res = solver.prepare(make_dicke(4, 2));
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.budget_exhausted);
}

TEST(Workflow, NumThreadsReachesBeamFallback) {
  // WorkflowOptions::num_threads must also drive the exact tail's beam
  // fallback (the sharded parallel beam), and the result must stay
  // bit-identical to the single-threaded workflow: the beam kernel is
  // deterministic across thread counts.
  WorkflowOptions serial_options;
  serial_options.exact_max_qubits = 5;
  serial_options.exact.astar.node_budget = 50;  // force the beam fallback
  serial_options.exact.astar.time_budget_seconds = 0.0;
  // Unbudgeted beam: a deadline-truncated descent is (deliberately) not
  // deterministic, and this test pins bit-identity.
  serial_options.exact.beam.time_budget_seconds = 0.0;
  serial_options.exact.beam.beam_width = 256;
  serial_options.exact.beam.max_controls = -1;  // W_5 needs wide merges
  const QuantumState target = make_dicke(5, 1);
  const WorkflowResult ref = Solver(serial_options).prepare(target);
  ASSERT_TRUE(ref.found);
  ASSERT_TRUE(ref.used_exact_tail);  // beam result, via the fallback

  WorkflowOptions parallel_options = serial_options;
  parallel_options.num_threads = 4;
  const WorkflowResult res = Solver(parallel_options).prepare(target);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.used_exact_tail);
  EXPECT_TRUE(res.circuit == ref.circuit);
  // Both runs aborted the A* stage on its node budget before falling
  // back, so both must carry the flag.
  EXPECT_TRUE(ref.budget_exhausted);
  EXPECT_TRUE(res.budget_exhausted);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(Workflow, SharedCacheModeServesRepeatsBitIdentically) {
  // Solver::cache: the second prepare() of the same target must serve the
  // exact tail from the equivalence cache and produce the identical
  // circuit.
  auto cache = std::make_shared<EquivalenceCache>();
  WorkflowOptions options;
  options.cache = cache;
  // Unbudgeted kernels: the insert/hit assertions need the exact tail to
  // run on both prepares even when ctest load would exhaust the default
  // wall budgets.
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  const Solver solver(options);
  const QuantumState target = make_dicke(4, 2);
  const WorkflowResult cold = solver.prepare(target);
  ASSERT_TRUE(cold.found);
  const auto cold_stats = cache->stats();
  EXPECT_GE(cold_stats.insertions, 1u);
  const WorkflowResult warm = solver.prepare(target);
  ASSERT_TRUE(warm.found);
  const auto warm_stats = cache->stats();
  EXPECT_GE(warm_stats.exact_hits, cold_stats.exact_hits + 1);
  EXPECT_EQ(cold.circuit, warm.circuit);
  verify_preparation_or_throw(warm.circuit, target);
}

/// Claims every kernel search as owner and keeps each certifying
/// search's SearchStats, so a test can see what the searches did.
class StatsRecorder final : public SearchCache {
 public:
  Lookup begin(const SlotState&, const CanonicalWitness&,
               const CacheFingerprint&, double, bool) override {
    Lookup lookup;
    lookup.claim = Claim::kOwner;
    return lookup;
  }
  void end(const SlotState&, const CanonicalWitness&, const CacheFingerprint&,
           const SynthesisResult* result) override {
    if (result != nullptr) stats.push_back(result->stats);
  }
  std::vector<SearchStats> stats;
};

int bounded_out_searches(const StatsRecorder& recorder) {
  int n = 0;
  for (const SearchStats& s : recorder.stats) n += s.bounded_out ? 1 : 0;
  return n;
}

TEST(Workflow, DeviceRunsSearchWithoutIncumbentBound) {
  // A routed selection cost is neither the kernel's CNOT cost nor
  // additive, so a device run derives no bound: its output is pinned to
  // the circuit the workflow produced before bounds existed. All-to-all,
  // the same request does bound a search out.
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.astar.node_budget = 20'000;  // deterministic truncation
  options.exact.beam.time_budget_seconds = 0.0;
  const QuantumState target = make_dicke(5, 2);

  auto all_to_all = std::make_shared<StatsRecorder>();
  options.cache = all_to_all;
  ASSERT_TRUE(Solver(options).prepare(target).found);
  EXPECT_GE(bounded_out_searches(*all_to_all), 1);

  auto on_line = std::make_shared<StatsRecorder>();
  options.cache = on_line;
  options.coupling =
      std::make_shared<const CouplingGraph>(CouplingGraph::line(5));
  const WorkflowResult res = Solver(options).prepare(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
  EXPECT_FALSE(on_line->stats.empty());
  EXPECT_EQ(bounded_out_searches(*on_line), 0);
  EXPECT_EQ(test::gate_sequence_checksum(res.circuit), 0xff39cdcbd4e1f424ull);
}

}  // namespace
}  // namespace qsp
