#include "core/beam.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/lowering.hpp"
#include "core/exact_synthesizer.hpp"
#include "pass_test_util.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

TEST(Beam, FindsVerifiedCircuits) {
  const BeamSynthesizer beam;
  Rng rng(55);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(3));
    const int m = 2 + static_cast<int>(rng.next_below(6));
    const QuantumState target = make_random_uniform(n, m, rng);
    const SynthesisResult res = beam.synthesize(target);
    ASSERT_TRUE(res.found) << target.to_string();
    EXPECT_FALSE(res.optimal);  // beam never certifies
    verify_preparation_or_throw(res.circuit, target);
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost);
  }
}

TEST(Beam, NearOptimalOnSmallInstances) {
  // Beam cost must be >= the exact optimum and usually close.
  const AStarSynthesizer exact;
  const BeamSynthesizer beam;
  Rng rng(56);
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(4, 5, rng);
    const SynthesisResult b = beam.synthesize(target);
    const SynthesisResult e = exact.synthesize(target);
    ASSERT_TRUE(b.found && e.found);
    EXPECT_GE(b.cnot_cost, e.cnot_cost);
    EXPECT_LE(b.cnot_cost, e.cnot_cost * 2 + 2);
  }
}

TEST(Beam, GroundIsImmediate) {
  const BeamSynthesizer beam;
  const SynthesisResult res = beam.synthesize(QuantumState(4));
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, 0);
}

TEST(Beam, HandlesDickeFive) {
  BeamOptions options;
  options.beam_width = 256;
  const BeamSynthesizer beam(options);
  const QuantumState target = make_dicke(5, 1);
  const SynthesisResult res = beam.synthesize(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
  // W_5 manual design uses 10 CNOTs; beam should be competitive.
  EXPECT_LE(res.cnot_cost, 16);
}

TEST(ExactSynthesizer, FallsBackToBeam) {
  ExactSynthesisOptions options;
  options.astar.node_budget = 50;  // force A* failure
  options.beam.beam_width = 128;
  const ExactSynthesizer synth(options);
  const QuantumState target = make_dicke(4, 2);
  const SynthesisResult res = synth.synthesize(target);
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.optimal);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(ExactSynthesizer, PrefersAStarWhenFeasible) {
  const ExactSynthesizer synth;
  const SynthesisResult res = synth.synthesize(make_dicke(4, 2));
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.cnot_cost, 6);
}

TEST(Beam, DickeFiveTwoBeatsManualDesign) {
  // |D^2_5>: manual formula gives 20 CNOTs, the paper's exact run 16. The
  // beam must find a verified circuit at or below the manual cost.
  BeamOptions options;
  options.beam_width = 256;
  // Generous: the descent takes ~3s native; the margin absorbs the
  // ASan/UBSan slowdown (the test stays excluded from the TSan job).
  options.time_budget_seconds = 90.0;
  const BeamSynthesizer beam(options);
  const QuantumState target = make_dicke(5, 2);
  const SynthesisResult res = beam.synthesize(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
  EXPECT_LE(res.cnot_cost, 20);
}

TEST(Beam, ResultsUnchangedAfterSearchCorePort) {
  // Frozen costs and class counts on fixed seeds: any unintentional
  // behavior drift in the level loop must fail here. Re-frozen with the
  // level-synchronous rewrite that (a) deduplicates candidates per
  // canonical class (one class can no longer occupy several beam slots —
  // rand(5,8) improves 14 -> 12 CNOTs), (b) freezes the incumbent bound
  // at level entry (a few more classes stored, but pruning no longer
  // depends on within-level discovery order, which is what lets the
  // parallel beam match bit for bit), and (c) orders candidates by
  // (score, h, canonical key).
  struct Snapshot {
    QuantumState target;
    BeamOptions options;
    std::int64_t cost;
    std::uint64_t classes;
  };
  BeamOptions wide;
  wide.beam_width = 256;
  Rng rng77(77);
  Rng rng78(78);
  std::vector<Snapshot> snapshots;
  snapshots.push_back({make_w(3), {}, 4, 7});
  snapshots.push_back({make_dicke(4, 2), {}, 6, 365});
  snapshots.push_back({make_dicke(5, 1), wide, 10, 501});
  snapshots.push_back({make_uniform(3, {0, 3, 5, 6}), {}, 2, 8});
  snapshots.push_back({make_random_uniform(4, 6, rng77), {}, 8, 331});
  snapshots.push_back({make_random_uniform(5, 8, rng78), {}, 12, 23192});
  for (const Snapshot& snap : snapshots) {
    const BeamSynthesizer beam(snap.options);
    const SynthesisResult res = beam.synthesize(snap.target);
    ASSERT_TRUE(res.found) << snap.target.to_string();
    EXPECT_EQ(res.cnot_cost, snap.cost) << snap.target.to_string();
    EXPECT_EQ(res.stats.classes_stored, snap.classes)
        << snap.target.to_string();
    verify_preparation_or_throw(res.circuit, snap.target);
  }
}

TEST(Beam, DuplicateClassCannotCrowdOutNeededClasses) {
  // Regression for the duplicate-class beam-slot bug: when a child
  // improved an already-seen class's best_g within the same level, the
  // new node was appended to the candidate list while the stale sibling
  // of the same canonical class was still in it, so after truncation one
  // class could occupy several beam slots and evict distinct classes the
  // descent needed. On this instance the pre-fix beam returned 25 / 24 /
  // 20 CNOTs at widths 2 / 3 / 4 (exact optimum: 8) because narrow beams
  // kept filling with one class's duplicates; with per-class
  // deduplication every width reaches 15 or better.
  const QuantumState target = make_uniform(
      4, {0b0000, 0b0011, 0b0110, 0b0111, 0b1001, 0b1010, 0b1011, 0b1100,
          0b1110});
  for (const int width : {2, 3, 4}) {
    BeamOptions options;
    options.beam_width = width;
    const SynthesisResult res = BeamSynthesizer(options).synthesize(target);
    ASSERT_TRUE(res.found) << "width=" << width;
    verify_preparation_or_throw(res.circuit, target);
    EXPECT_LE(res.cnot_cost, 15) << "width=" << width;
  }
}

TEST(Beam, BudgetTruncationIsFlagged) {
  // The deadline break inside a level used to truncate candidate
  // generation silently: the returned SynthesisResult was
  // indistinguishable from a full descent. It must now carry
  // SearchStats::budget_exhausted.
  BeamOptions tight;
  tight.time_budget_seconds = 1e-9;
  const SynthesisResult res =
      BeamSynthesizer(tight).synthesize(make_dicke(5, 2));
  EXPECT_TRUE(res.stats.budget_exhausted);
  BeamOptions free_run;
  free_run.beam_width = 64;
  const SynthesisResult full =
      BeamSynthesizer(free_run).synthesize(make_dicke(5, 2));
  ASSERT_TRUE(full.found);
  EXPECT_FALSE(full.stats.budget_exhausted);
}

TEST(Beam, IncumbentPruningKeepsBestGoal) {
  // The first goal reached need not be the returned one: later levels may
  // improve it. Just assert the returned cost is consistent and verified
  // across a few seeds.
  Rng rng(58);
  const BeamSynthesizer beam;
  for (int trial = 0; trial < 4; ++trial) {
    const QuantumState target = make_random_uniform(5, 5, rng);
    const SynthesisResult res = beam.synthesize(target);
    ASSERT_TRUE(res.found);
    verify_preparation_or_throw(res.circuit, target);
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost);
  }
}

// ---------------------------------------------------------------------------
// Shard counts. The descent is one sharded kernel at every num_threads, and
// its result must be bit-identical at every thread count: equal to the
// output of the serial beam it replaced, recorded below.
// ---------------------------------------------------------------------------

/// One descent's output, recorded from the serial beam before the sharded
/// kernel replaced it: test::gate_sequence_checksum of the circuit, the
/// cost and the deterministic stats.
struct PinnedDescent {
  std::uint64_t checksum;
  std::int64_t cost;
  std::uint64_t nodes_generated;
  std::uint64_t nodes_expanded;
  std::uint64_t classes_stored;
  std::uint64_t sum_shard_peak_open_size;
};

struct CorpusEntry {
  QuantumState target;
  BeamOptions options;
  PinnedDescent pinned;
};

/// The snapshot corpus of Beam.ResultsUnchangedAfterSearchCorePort plus a
/// few narrow-beam states.
std::vector<CorpusEntry> determinism_corpus() {
  BeamOptions wide;
  wide.beam_width = 256;
  BeamOptions narrow;
  narrow.beam_width = 8;
  Rng rng77(77);
  Rng rng78(78);
  Rng rng90(90);
  std::vector<CorpusEntry> corpus;
  corpus.push_back(
      {make_w(3), {}, {0xb91810e0a0f38f2full, 4, 221, 7, 7, 0}});
  corpus.push_back(
      {make_ghz(4), {}, {0xc6e37e08da0126afull, 3, 209, 3, 4, 0}});
  corpus.push_back(
      {make_dicke(4, 2), {}, {0xf3cce8ed566019cfull, 6, 35602, 339, 365, 0}});
  corpus.push_back({make_dicke(5, 1),
                    wide,
                    {0xd01af6de73b6a94dull, 10, 149510, 597, 501, 0}});
  corpus.push_back({make_uniform(3, {0, 3, 5, 6}),
                    {},
                    {0x0eac10ffd4543804ull, 2, 92, 3, 8, 0}});
  corpus.push_back({make_random_uniform(4, 6, rng77),
                    {},
                    {0xce26ea5e31680eeaull, 8, 28473, 283, 331, 0}});
  corpus.push_back({make_random_uniform(5, 8, rng78),
                    {},
                    {0xc9ed2d82a05e222bull, 12, 851386, 2689, 23192, 0}});
  // Tiny widths stress the k-select/truncation boundary, where any
  // ordering nondeterminism would show first.
  corpus.push_back({make_random_uniform(4, 7, rng90),
                    narrow,
                    {0x56020e65d73e5215ull, 10, 5389, 41, 360, 0}});
  corpus.push_back({make_random_uniform(5, 5, rng90),
                    narrow,
                    {0x6993c9d99aa65d1full, 10, 14060, 49, 254, 0}});
  return corpus;
}

/// The fields that must be bit-identical across thread counts (seconds
/// obviously excluded; budget-truncated runs are excluded by
/// construction — no corpus entry carries a deadline).
void expect_identical(const SynthesisResult& ref, const SynthesisResult& res,
                      const QuantumState& target, int threads) {
  const std::string ctx = target.to_string() +
                          " threads=" + std::to_string(threads);
  ASSERT_EQ(res.found, ref.found) << ctx;
  EXPECT_EQ(res.optimal, ref.optimal) << ctx;
  EXPECT_EQ(res.cnot_cost, ref.cnot_cost) << ctx;
  EXPECT_TRUE(res.circuit == ref.circuit) << ctx;
  EXPECT_EQ(res.stats.nodes_generated, ref.stats.nodes_generated) << ctx;
  EXPECT_EQ(res.stats.nodes_expanded, ref.stats.nodes_expanded) << ctx;
  EXPECT_EQ(res.stats.classes_stored, ref.stats.classes_stored) << ctx;
  EXPECT_FALSE(res.stats.budget_exhausted) << ctx;
}

/// Every pinned field at 1, 2 and 8 threads, plus a verified circuit
/// whose lowered CNOT count is the cost.
void expect_matches_pinned(const CorpusEntry& entry) {
  for (const int threads : {1, 2, 8}) {
    BeamOptions options = entry.options;
    options.num_threads = threads;
    const SynthesisResult res =
        BeamSynthesizer(options).synthesize(entry.target);
    const std::string ctx =
        entry.target.to_string() + " threads=" + std::to_string(threads);
    ASSERT_TRUE(res.found) << ctx;
    EXPECT_FALSE(res.optimal) << ctx;
    EXPECT_FALSE(res.stats.budget_exhausted) << ctx;
    EXPECT_EQ(test::gate_sequence_checksum(res.circuit),
              entry.pinned.checksum)
        << ctx;
    EXPECT_EQ(res.cnot_cost, entry.pinned.cost) << ctx;
    EXPECT_EQ(res.stats.nodes_generated, entry.pinned.nodes_generated) << ctx;
    EXPECT_EQ(res.stats.nodes_expanded, entry.pinned.nodes_expanded) << ctx;
    EXPECT_EQ(res.stats.classes_stored, entry.pinned.classes_stored) << ctx;
    EXPECT_EQ(res.stats.sum_shard_peak_open_size,
              entry.pinned.sum_shard_peak_open_size)
        << ctx;
    verify_preparation_or_throw(res.circuit, entry.target);
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost) << ctx;
  }
}

TEST(ParallelBeam, BitIdenticalToSerialAcrossThreadCounts) {
  for (const CorpusEntry& entry : determinism_corpus()) {
    expect_matches_pinned(entry);
  }
}

TEST(ParallelBeam, BeamSynthesizerDispatchesOnNumThreads) {
  // Four shards through the public facade return the one-shard result.
  const QuantumState target = make_dicke(4, 2);
  const SynthesisResult ref = BeamSynthesizer().synthesize(target);
  BeamOptions options;
  options.num_threads = 4;
  const SynthesisResult res = BeamSynthesizer(options).synthesize(target);
  expect_identical(ref, res, target, 4);
}

TEST(ParallelBeam, ZeroThreadsMeansAllHardwareThreads) {
  BeamOptions options;
  options.num_threads = 0;
  const QuantumState target = make_w(3);
  const SynthesisResult ref = BeamSynthesizer().synthesize(target);
  const SynthesisResult res = BeamSynthesizer(options).synthesize(target);
  expect_identical(ref, res, target, 0);
}

TEST(ParallelBeam, CouplingConstrainedMatchesSerial) {
  // The canonicalization demotion and routed arc costs on incomplete
  // couplings, pinned like the determinism corpus.
  BeamOptions options;
  options.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  const std::vector<CorpusEntry> corpus = {
      {make_ghz(3), options, {0xaddaec36c43ae5f9ull, 2, 102, 4, 5, 0}},
      {make_uniform(3, {0b000, 0b011, 0b101, 0b110}),
       options,
       {0xc29c14bfbe161a77ull, 2, 228, 7, 20, 0}},
  };
  for (const CorpusEntry& entry : corpus) expect_matches_pinned(entry);
}

TEST(ParallelBeam, GroundIsImmediate) {
  BeamOptions options;
  options.num_threads = 4;
  const SynthesisResult res =
      BeamSynthesizer(options).synthesize(QuantumState(4));
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, 0);
  EXPECT_FALSE(res.stats.budget_exhausted);
}

TEST(ParallelBeam, ThrowsOnNonSlotState) {
  const QuantumState signed_state(2, {Term{0, 1.0}, Term{3, -1.0}});
  BeamOptions options;
  options.num_threads = 2;
  const BeamSynthesizer synth(options);
  EXPECT_THROW(synth.synthesize(signed_state), std::invalid_argument);
}

TEST(ParallelBeam, BudgetTruncationIsFlagged) {
  // A deadline that expires mid-descent must be visible on the result —
  // a truncated descent is otherwise indistinguishable from a full one.
  BeamOptions tight;
  tight.num_threads = 4;
  tight.time_budget_seconds = 1e-9;
  const SynthesisResult res =
      BeamSynthesizer(tight).synthesize(make_dicke(5, 2));
  EXPECT_TRUE(res.stats.budget_exhausted);
  // And an unconstrained run of the same instance is not flagged.
  BeamOptions free_run;
  free_run.num_threads = 4;
  free_run.beam_width = 64;
  const SynthesisResult full =
      BeamSynthesizer(free_run).synthesize(make_dicke(5, 2));
  EXPECT_FALSE(full.stats.budget_exhausted);
}

TEST(ParallelBeam, ExactSynthesizerFallbackRunsParallelBeam) {
  // The facade's fallback path must honor beam.num_threads and still
  // match the one-shard fallback bit for bit (and keep the budget flag
  // from the aborted A* stage).
  ExactSynthesisOptions one_shard;
  one_shard.astar.node_budget = 50;  // force A* failure
  one_shard.beam.beam_width = 128;
  const QuantumState target = make_dicke(4, 2);
  const SynthesisResult ref = ExactSynthesizer(one_shard).synthesize(target);
  ASSERT_TRUE(ref.found);
  EXPECT_FALSE(ref.optimal);
  EXPECT_TRUE(ref.stats.budget_exhausted);  // the A* stage hit its budget
  ExactSynthesisOptions sharded = one_shard;
  sharded.beam.num_threads = 8;
  const SynthesisResult res = ExactSynthesizer(sharded).synthesize(target);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, ref.cnot_cost);
  EXPECT_TRUE(res.circuit == ref.circuit);
  EXPECT_TRUE(res.stats.budget_exhausted);
  verify_preparation_or_throw(res.circuit, target);
}

}  // namespace
}  // namespace qsp
