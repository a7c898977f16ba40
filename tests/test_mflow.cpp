#include "prep/mflow.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "circuit/lowering.hpp"
#include "core/slot_state.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

TEST(MFlow, PreparesSingleBasisState) {
  const QuantumState s(3, {Term{0b101, 1.0}});
  const MFlowResult res = mflow_prepare(s);
  ASSERT_FALSE(res.timed_out);
  verify_preparation_or_throw(res.circuit, s);
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), 0);
}

TEST(MFlow, PreparesGhz) {
  const QuantumState ghz = make_ghz(4);
  const MFlowResult res = mflow_prepare(ghz);
  ASSERT_FALSE(res.timed_out);
  verify_preparation_or_throw(res.circuit, ghz);
}

TEST(MFlow, PreparesRandomSparseStates) {
  Rng rng(201);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(6));
    const QuantumState target = make_random_uniform(n, n, rng);
    const MFlowResult res = mflow_prepare(target);
    ASSERT_FALSE(res.timed_out);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(MFlow, PreparesSignedStates) {
  Rng rng(202);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(3));
    const QuantumState target = make_random_real(n, n, rng);
    const MFlowResult res = mflow_prepare(target);
    ASSERT_FALSE(res.timed_out);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(MFlow, SparseCostScalesLikeMN) {
  // O(mn) scaling: for m = n the cost should stay well below the n-flow
  // 2^n - 2 wall, growing roughly linearly in n.
  Rng rng(203);
  const int samples = 5;
  for (const int n : {8, 10, 12}) {
    double total = 0;
    for (int s = 0; s < samples; ++s) {
      const QuantumState target = make_random_uniform(n, n, rng);
      const MFlowResult res = mflow_prepare(target);
      ASSERT_FALSE(res.timed_out);
      total += static_cast<double>(count_cnots_after_lowering(res.circuit));
    }
    const double avg = total / samples;
    EXPECT_LT(avg, static_cast<double>((1 << n) - 2)) << "n=" << n;
    EXPECT_LT(avg, 60.0 * n) << "n=" << n;
  }
}

TEST(MFlow, CheapestStrategyNotWorse) {
  Rng rng(204);
  double greedy_total = 0, cheap_total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const QuantumState target = make_random_uniform(10, 10, rng);
    MFlowOptions greedy;
    greedy.strategy = MFlowOptions::PairStrategy::kGreedyFirst;
    MFlowOptions cheap;
    cheap.strategy = MFlowOptions::PairStrategy::kCheapest;
    const auto g = mflow_prepare(target, greedy);
    const auto c = mflow_prepare(target, cheap);
    ASSERT_FALSE(g.timed_out || c.timed_out);
    verify_preparation_or_throw(g.circuit, target);
    verify_preparation_or_throw(c.circuit, target);
    greedy_total += static_cast<double>(count_cnots_after_lowering(g.circuit));
    cheap_total += static_cast<double>(count_cnots_after_lowering(c.circuit));
  }
  EXPECT_LE(cheap_total, greedy_total * 1.05);
}

TEST(MFlow, PrefixAdjacentStrategyVerifies) {
  Rng rng(205);
  MFlowOptions options;
  options.strategy = MFlowOptions::PairStrategy::kPrefixAdjacent;
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(7, 7, rng);
    const auto res = mflow_prepare(target, options);
    ASSERT_FALSE(res.timed_out);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(MFlow, ReduceStopsAtPredicate) {
  Rng rng(206);
  const QuantumState target = make_random_uniform(8, 8, rng);
  const auto reduction = mflow_reduce(
      target,
      [](const QuantumState& s) { return s.cardinality() <= 3; });
  EXPECT_FALSE(reduction.timed_out);
  EXPECT_LE(reduction.reduced.cardinality(), 3);
  EXPECT_GE(reduction.reduced.cardinality(), 1);
  // forward gates map target -> reduced: verify via adjoint preparation.
  Circuit forward(8);
  for (const Gate& g : reduction.forward_gates) forward.append(g);
  Circuit prep(8);
  // Prepare `reduced` trivially with a nested mflow, then undo.
  const MFlowResult tail = mflow_prepare(reduction.reduced);
  ASSERT_FALSE(tail.timed_out);
  prep.append(tail.circuit);
  prep.append(forward.adjoint());
  verify_preparation_or_throw(prep, target);
}

TEST(MFlow, TimeBudgetReportsTle) {
  Rng rng(207);
  // Effectively zero budget: must time out on a nontrivial state.
  const QuantumState target = make_random_uniform(12, 64, rng);
  MFlowOptions options;
  options.time_budget_seconds = 1e-9;
  const auto res = mflow_prepare(target, options);
  EXPECT_TRUE(res.timed_out);
}

TEST(MFlow, DenseStatesVerify) {
  Rng rng(208);
  const QuantumState target = make_random_uniform(6, 32, rng);
  const auto res = mflow_prepare(target);
  ASSERT_FALSE(res.timed_out);
  verify_preparation_or_throw(res.circuit, target);
}

// Gate-sequence checksums pin m-flow's output bit for bit: gate kind,
// wires, control polarity and the raw bits of every angle, in order.
class GateHash {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix_gate(const Gate& g) {
    mix(static_cast<std::uint64_t>(g.kind()));
    mix(static_cast<std::uint64_t>(g.target()));
    mix_double(g.theta());
    mix(g.controls().size());
    for (const ControlLiteral& c : g.controls()) {
      mix((static_cast<std::uint64_t>(c.qubit) << 1) | (c.positive ? 1u : 0u));
    }
    mix(g.angles().size());
    for (const double a : g.angles()) mix_double(a);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// m distinct random indices with integer amplitudes: all 1 (uniform) or
/// nonzero in [-9, 9] (signed). Normalizing integers is exact up to one
/// rounding, so the inputs are the same bits with or without FMA
/// contraction (-march builds).
QuantumState integer_state(int n, int m, bool signed_amplitudes, Rng& rng) {
  std::vector<Term> terms;
  const std::vector<std::uint64_t> indices =
      rng.sample_distinct(std::uint64_t{1} << n, static_cast<std::size_t>(m));
  for (const std::uint64_t x : indices) {
    double a = 1.0;
    if (signed_amplitudes) {
      a = static_cast<double>(1 + rng.next_below(9));
      if (rng.next_bool()) a = -a;
    }
    terms.push_back(Term{static_cast<BasisIndex>(x), a});
  }
  return QuantumState(n, std::move(terms));
}

/// The pinning corpus: uniform states for n in {6, 10, 16, 20} with
/// m in {n, 2n}, n = 12 with m in {100, 200} (support columns longer than
/// one 64-bit word), and signed states of the same shapes.
std::vector<QuantumState> pin_corpus() {
  Rng rng(2401);
  std::vector<QuantumState> out;
  for (const bool signed_amplitudes : {false, true}) {
    for (const int n : {6, 10, 16, 20}) {
      for (const int m : {n, 2 * n}) {
        out.push_back(integer_state(n, m, signed_amplitudes, rng));
      }
    }
    for (const int m : {100, 200}) {
      out.push_back(integer_state(12, m, signed_amplitudes, rng));
    }
  }
  return out;
}

std::uint64_t prepare_checksum(MFlowOptions::PairStrategy strategy) {
  MFlowOptions options;
  options.strategy = strategy;
  GateHash h;
  for (const QuantumState& target : pin_corpus()) {
    const MFlowResult res = mflow_prepare(target, options);
    EXPECT_FALSE(res.timed_out);
    h.mix(res.circuit.size());
    for (const Gate& g : res.circuit.gates()) h.mix_gate(g);
  }
  return h.value();
}

TEST(MFlowPinned, GreedyFirstOutputUnchanged) {
  EXPECT_EQ(prepare_checksum(MFlowOptions::PairStrategy::kGreedyFirst),
            0x6ece2f53c80b9a4dull);
}

TEST(MFlowPinned, CheapestOutputUnchanged) {
  EXPECT_EQ(prepare_checksum(MFlowOptions::PairStrategy::kCheapest),
            0x0a02fbd810a8d722ull);
}

TEST(MFlowPinned, PrefixAdjacentOutputUnchanged) {
  EXPECT_EQ(prepare_checksum(MFlowOptions::PairStrategy::kPrefixAdjacent),
            0xb082138efb84acdbull);
}

TEST(MFlowPinned, ThresholdReductionUnchanged) {
  // The workflow's stop rule: few enough terms and a slot decomposition.
  const auto fits = [](const QuantumState& s) {
    return s.cardinality() <= 6 && SlotState::from_state(s).has_value();
  };
  MFlowOptions options;
  options.strategy = MFlowOptions::PairStrategy::kCheapest;
  GateHash h;
  for (const QuantumState& target : pin_corpus()) {
    const MFlowReduction red = mflow_reduce(target, fits, options);
    EXPECT_FALSE(red.timed_out);
    h.mix(red.forward_gates.size());
    for (const Gate& g : red.forward_gates) h.mix_gate(g);
    for (const Term& t : red.reduced.terms()) {
      h.mix(t.index);
      h.mix_double(t.amplitude);
    }
  }
  EXPECT_EQ(h.value(), 0x9a076f40bda2d3aaull);
}

}  // namespace
}  // namespace qsp
