#include "core/astar.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/lowering.hpp"
#include "core/search_core.hpp"
#include "pass_test_util.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

SynthesisResult solve(const QuantumState& target,
                      SearchOptions options = {}) {
  const AStarSynthesizer synth(options);
  return synth.synthesize(target);
}

void expect_optimal(const QuantumState& target, std::int64_t expected_cost,
                    SearchOptions options = {}) {
  const SynthesisResult res = solve(target, options);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.cnot_cost, expected_cost);
  verify_preparation_or_throw(res.circuit, target);
  // The reported arc cost must match the lowered CNOT count of the
  // returned circuit.
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), expected_cost);
}

TEST(AStar, GroundStateIsFree) { expect_optimal(QuantumState(3), 0); }

TEST(AStar, ProductStatesAreFree) {
  // Uniform superposition: all qubits separable -> zero CNOTs.
  expect_optimal(make_uniform(3, {0, 1, 2, 3, 4, 5, 6, 7}), 0);
  expect_optimal(make_uniform(2, {0b10, 0b11}), 0);
}

TEST(AStar, BellCostsOne) { expect_optimal(make_ghz(2), 1); }

TEST(AStar, GhzCostsNMinusOne) {
  expect_optimal(make_ghz(3), 2);
  expect_optimal(make_ghz(4), 3);
  expect_optimal(make_ghz(5), 4);
}

TEST(AStar, MotivatingExampleCostsTwo) {
  // Paper Fig. 3: (|000> + |011> + |101> + |110>)/2 takes 2 CNOTs.
  expect_optimal(make_uniform(3, {0b000, 0b011, 0b101, 0b110}), 2);
}

TEST(AStar, WThreeMatchesPaper) {
  // Table IV row (n=3, k=1): exact synthesis uses 4 CNOTs.
  expect_optimal(make_w(3), 4);
}

TEST(AStar, DickeFourTwoBeatsManual) {
  // The paper's headline: |D^2_4> in 6 CNOTs (manual design: 12).
  expect_optimal(make_dicke(4, 2), 6);
}

TEST(AStar, SearchStatsPopulated) {
  const SynthesisResult res = solve(make_dicke(4, 2));
  EXPECT_TRUE(res.stats.completed);
  EXPECT_GT(res.stats.nodes_expanded, 0u);
  EXPECT_GT(res.stats.nodes_generated, res.stats.nodes_expanded);
  EXPECT_GT(res.stats.classes_stored, 1u);
  EXPECT_GT(res.stats.sum_shard_peak_open_size, 0u);
  // The queue never exceeds the generated-arc count, and every stale pop
  // corresponds to an earlier push.
  EXPECT_LE(res.stats.sum_shard_peak_open_size, res.stats.nodes_generated + 1);
  EXPECT_LE(res.stats.stale_pops, res.stats.nodes_generated);
}

TEST(AStar, BudgetExhaustionReportsNotFound) {
  SearchOptions tight;
  tight.node_budget = 10;
  const SynthesisResult res = solve(make_dicke(4, 2), tight);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.stats.completed);
  EXPECT_TRUE(res.stats.budget_exhausted);
}

TEST(AStar, ClassBudgetStopsTheSearchAtEveryShardCount) {
  // Dicke(4,2) certifies after storing 74 classes; a budget of
  // 20 stops it first. The stop is checked between steps, so at one shard
  // the arena overshoots by at most one expansion's children.
  const SynthesisResult full = solve(make_dicke(4, 2));
  ASSERT_TRUE(full.stats.completed);
  ASSERT_GT(full.stats.classes_stored, 50u);
  for (const int threads : {1, 2, 4}) {
    SearchOptions tight;
    tight.num_threads = threads;
    tight.class_budget = 20;
    const SynthesisResult res = solve(make_dicke(4, 2), tight);
    EXPECT_FALSE(res.found) << threads;
    EXPECT_FALSE(res.stats.completed) << threads;
    EXPECT_TRUE(res.stats.budget_exhausted) << threads;
    EXPECT_GE(res.stats.classes_stored, 20u) << threads;
    EXPECT_LT(res.stats.classes_stored, full.stats.classes_stored) << threads;
    if (threads == 1) {
      // A work-unit budget: one shard stops at the same point every run.
      const SynthesisResult again = solve(make_dicke(4, 2), tight);
      EXPECT_EQ(again.stats.classes_stored, res.stats.classes_stored);
      EXPECT_EQ(again.stats.nodes_generated, res.stats.nodes_generated);
      EXPECT_EQ(again.stats.nodes_expanded, res.stats.nodes_expanded);
    }
  }
  // A budget the search never reaches changes nothing.
  SearchOptions roomy;
  roomy.class_budget = full.stats.classes_stored + 1000;
  const SynthesisResult res = solve(make_dicke(4, 2), roomy);
  EXPECT_TRUE(res.stats.completed);
  EXPECT_FALSE(res.stats.budget_exhausted);
  EXPECT_EQ(res.cnot_cost, full.cnot_cost);
  EXPECT_EQ(res.stats.nodes_generated, full.stats.nodes_generated);
  EXPECT_EQ(res.stats.classes_stored, full.stats.classes_stored);
}

TEST(AStar, CompletedSearchIsNotBudgetExhausted) {
  const SynthesisResult res = solve(make_dicke(4, 2));
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.stats.completed);
  EXPECT_FALSE(res.stats.budget_exhausted);
}

TEST(AStar, HeuristicModesAgreeOnOptimalCost) {
  const QuantumState target = make_uniform(3, {0b000, 0b011, 0b101});
  std::int64_t costs[3];
  int i = 0;
  for (const HeuristicMode mode :
       {HeuristicMode::kZero, HeuristicMode::kPair,
        HeuristicMode::kComponent}) {
    SearchOptions o;
    o.heuristic = mode;
    const SynthesisResult res = solve(target, o);
    ASSERT_TRUE(res.found);
    EXPECT_TRUE(res.optimal);
    costs[i++] = res.cnot_cost;
  }
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(costs[1], costs[2]);
}

TEST(AStar, CanonicalLevelsAgreeOnOptimalCost) {
  const QuantumState target = make_uniform(3, {0b001, 0b010, 0b100, 0b111});
  std::int64_t reference = -1;
  for (const CanonicalLevel level :
       {CanonicalLevel::kNone, CanonicalLevel::kU2,
        CanonicalLevel::kPU2Greedy, CanonicalLevel::kPU2Exact}) {
    SearchOptions o;
    o.canonical = level;
    o.node_budget = 20'000'000;
    const SynthesisResult res = solve(target, o);
    ASSERT_TRUE(res.found) << "level " << static_cast<int>(level);
    if (reference < 0) reference = res.cnot_cost;
    EXPECT_EQ(res.cnot_cost, reference)
        << "level " << static_cast<int>(level);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(AStar, CanonicalizationShrinksExploration) {
  const QuantumState target = make_dicke(4, 2);
  SearchOptions with;
  with.canonical = CanonicalLevel::kPU2Exact;
  SearchOptions without;
  without.canonical = CanonicalLevel::kU2;
  const SynthesisResult a = solve(target, with);
  const SynthesisResult b = solve(target, without);
  ASSERT_TRUE(a.found && b.found);
  EXPECT_EQ(a.cnot_cost, b.cnot_cost);
  EXPECT_LT(a.stats.classes_stored, b.stats.classes_stored);
}

TEST(AStar, RandomUniformStatesAlwaysVerify) {
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(2));
    const int m = 2 + static_cast<int>(rng.next_below(7));
    const QuantumState target = make_random_uniform(n, m, rng);
    const SynthesisResult res = solve(target);
    ASSERT_TRUE(res.found) << target.to_string();
    EXPECT_TRUE(res.optimal);
    verify_preparation_or_throw(res.circuit, target);
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost);
  }
}

TEST(AStar, ThrowsOnNonSlotState) {
  const QuantumState signed_state(2, {Term{0, 1.0}, Term{3, -1.0}});
  const AStarSynthesizer synth;
  EXPECT_THROW(synth.synthesize(signed_state), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shard counts. The search is one HDA* kernel at every num_threads; one
// shard must reproduce the serial A* kernel it replaced field for field,
// and every shard count its cost and certificate.
// ---------------------------------------------------------------------------

/// One search's output, recorded from the serial A* kernel before the
/// one-shard HDA* search replaced it: test::gate_sequence_checksum of the
/// circuit, the cost and certificate, and the deterministic stats.
struct PinnedSearch {
  std::uint64_t checksum;
  std::int64_t cost;
  bool optimal;
  std::uint64_t nodes_generated;
  std::uint64_t nodes_expanded;
  std::uint64_t classes_stored;
  std::uint64_t sum_shard_peak_open_size;
};

struct PinnedCase {
  QuantumState target;
  PinnedSearch pinned;
};

/// The fixture corpus of the AStar cases above: every state one shard
/// certifies, so each shard count must reproduce the exact cnot_cost and
/// the `optimal` flag on each of them.
std::vector<PinnedCase> certificate_corpus() {
  const std::vector<PinnedSearch> pinned = {
      {0x44bd2bd473ccf799ull, 0, true, 0, 0, 1, 1},
      {0xefebb54847f8014bull, 0, true, 0, 0, 1, 1},
      {0xa18c1a0b762df092ull, 0, true, 0, 0, 1, 1},
      {0x1608775fcca91f94ull, 1, true, 8, 1, 2, 1},
      {0xaa19a46fee22debdull, 2, true, 54, 2, 3, 1},
      {0xc6e37e08da0126afull, 3, true, 209, 3, 4, 1},
      {0x849bb19a1cf8bcd8ull, 4, true, 660, 4, 5, 1},
      {0x0eac10ffd4543804ull, 2, true, 60, 2, 5, 3},
      {0xbc6af7acf2df814eull, 4, true, 89, 3, 6, 5},
      {0x099eb2c9cb1f30bdull, 6, true, 1228, 13, 74, 83},
      {0x8c87012b88a26977ull, 6, true, 450, 10, 76, 93},
      {0x529895d361e3b116ull, 1, true, 24, 1, 3, 2},
      {0x79e5ef8a87a3cf2cull, 9, true, 24916, 229, 706, 1109},
      {0xefebb54847f8014bull, 0, true, 0, 0, 1, 1},
      {0x744ad2529236b8bcull, 9, true, 31379, 275, 1652, 2579},
      {0x85f00fcfb8b9f355ull, 6, true, 450, 10, 76, 91},
      {0xe5999b65f1a3ec09ull, 7, true, 3704, 38, 91, 156},
      {0x463e82c4f858221bull, 8, true, 11406, 105, 1007, 1499},
  };
  std::vector<QuantumState> targets;
  targets.push_back(QuantumState(3));                                // ground
  targets.push_back(make_uniform(3, {0, 1, 2, 3, 4, 5, 6, 7}));     // product
  targets.push_back(make_uniform(2, {0b10, 0b11}));                 // product
  targets.push_back(make_ghz(2));                                   // Bell
  targets.push_back(make_ghz(3));
  targets.push_back(make_ghz(4));
  targets.push_back(make_ghz(5));
  targets.push_back(make_uniform(3, {0b000, 0b011, 0b101, 0b110}));  // Fig. 3
  targets.push_back(make_w(3));
  targets.push_back(make_dicke(4, 2));
  Rng rng(2024);  // the seed of AStar.RandomUniformStatesAlwaysVerify
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(2));
    const int m = 2 + static_cast<int>(rng.next_below(7));
    targets.push_back(make_random_uniform(n, m, rng));
  }
  std::vector<PinnedCase> corpus;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    corpus.push_back({targets[i], pinned.at(i)});
  }
  return corpus;
}

/// Every shard count: the pinned cost and certificate, a verified circuit
/// whose lowered CNOT count is the cost. One shard: every pinned field.
void expect_matches_pinned(const SearchOptions& base, const PinnedCase& c) {
  for (const int threads : {1, 2, 8}) {
    SearchOptions options = base;
    options.num_threads = threads;
    const SynthesisResult res = AStarSynthesizer(options).synthesize(c.target);
    const std::string ctx =
        c.target.to_string() + " threads=" + std::to_string(threads);
    ASSERT_TRUE(res.found) << ctx;
    EXPECT_EQ(res.cnot_cost, c.pinned.cost) << ctx;
    EXPECT_EQ(res.optimal, c.pinned.optimal) << ctx;
    EXPECT_TRUE(res.stats.completed) << ctx;
    EXPECT_FALSE(res.stats.budget_exhausted) << ctx;
    verify_preparation_or_throw(res.circuit, c.target);
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost) << ctx;
    if (threads != 1) continue;
    EXPECT_EQ(test::gate_sequence_checksum(res.circuit), c.pinned.checksum)
        << ctx;
    EXPECT_EQ(res.stats.nodes_generated, c.pinned.nodes_generated) << ctx;
    EXPECT_EQ(res.stats.nodes_expanded, c.pinned.nodes_expanded) << ctx;
    EXPECT_EQ(res.stats.classes_stored, c.pinned.classes_stored) << ctx;
    EXPECT_EQ(res.stats.sum_shard_peak_open_size,
              c.pinned.sum_shard_peak_open_size)
        << ctx;
  }
}

TEST(ParallelAStar, MatchesSerialCertificateAcrossThreadCounts) {
  for (const PinnedCase& c : certificate_corpus()) {
    expect_matches_pinned(SearchOptions{}, c);
  }
}

TEST(ParallelAStar, AStarSynthesizerDispatchesOnNumThreads) {
  // Four shards through the public facade report the certificate.
  const QuantumState target = make_dicke(4, 2);
  SearchOptions options;
  options.num_threads = 4;
  const SynthesisResult res = AStarSynthesizer(options).synthesize(target);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.cnot_cost, 6);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(ParallelAStar, ZeroThreadsMeansAllHardwareThreads) {
  EXPECT_GE(resolve_num_threads(0), 1);
  EXPECT_EQ(resolve_num_threads(3), 3);
  SearchOptions options;
  options.num_threads = 0;
  const SynthesisResult res =
      AStarSynthesizer(options).synthesize(make_ghz(3));
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, 2);
  EXPECT_TRUE(res.optimal);
}

TEST(ParallelAStar, StatsAggregateAcrossShards) {
  SearchOptions options;
  options.num_threads = 8;
  const SynthesisResult res =
      AStarSynthesizer(options).synthesize(make_dicke(4, 2));
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.stats.completed);
  EXPECT_GT(res.stats.nodes_expanded, 0u);
  EXPECT_GT(res.stats.nodes_generated, res.stats.nodes_expanded);
  EXPECT_GT(res.stats.classes_stored, 1u);
  EXPECT_GT(res.stats.sum_shard_peak_open_size, 0u);
  // Every push is a generated arc (plus the root), and per-shard peaks
  // bound per-shard pushes, so the sum obeys the same global bound the
  // one-shard true peak does.
  EXPECT_LE(res.stats.sum_shard_peak_open_size,
            res.stats.nodes_generated + 1);
}

TEST(ParallelAStar, SumShardPeakSumsPeaksThatNeedNotCoincide) {
  // Pin the stat's semantics at the OpenQueue level: each shard reports
  // its own lifetime peak, so the sum can exceed any instantaneous
  // global population — here queue A peaks at 3, is drained to empty,
  // and only then does queue B peak at 2: no moment ever holds 5
  // entries, yet the reported sum is 5. sum_shard_peak_open_size is an
  // upper bound on the true global peak, not the peak itself.
  OpenQueue a;
  OpenQueue b;
  std::uint64_t stale = 0;
  const auto g_of = [](std::int64_t) { return std::int64_t{0}; };
  for (std::int64_t id = 0; id < 3; ++id) a.push(id, 0, id, 0);
  while (a.pop_best(g_of, stale).has_value()) {
  }
  ASSERT_TRUE(a.empty());
  for (std::int64_t id = 0; id < 2; ++id) b.push(id, 0, id, 0);
  EXPECT_EQ(a.peak_size() + b.peak_size(), 5u);
}

TEST(ParallelAStar, BudgetExhaustionReportsNotFound) {
  SearchOptions tight;
  tight.num_threads = 4;
  tight.node_budget = 10;
  const SynthesisResult res =
      AStarSynthesizer(tight).synthesize(make_dicke(4, 2));
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.stats.completed);
  EXPECT_TRUE(res.stats.budget_exhausted);
}

TEST(ParallelAStar, CouplingConstrainedCostsMatchSerial) {
  // The canonicalization demotion on incomplete couplings and the routed
  // arc costs, pinned like the certificate corpus.
  SearchOptions options;
  options.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  const std::vector<PinnedCase> corpus = {
      {make_ghz(3), {0xaa19a46fee22debdull, 2, true, 54, 2, 5, 4}},
      {make_uniform(3, {0b000, 0b011, 0b101, 0b110}),
       {0xc29c14bfbe161a77ull, 2, true, 60, 2, 9, 9}},
  };
  for (const PinnedCase& c : corpus) expect_matches_pinned(options, c);
}

TEST(ParallelAStar, ThrowsOnNonSlotState) {
  const QuantumState signed_state(2, {Term{0, 1.0}, Term{3, -1.0}});
  SearchOptions options;
  options.num_threads = 2;
  const AStarSynthesizer synth(options);
  EXPECT_THROW(synth.synthesize(signed_state), std::invalid_argument);
}

}  // namespace
}  // namespace qsp
