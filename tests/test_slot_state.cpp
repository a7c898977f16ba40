#include "core/slot_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

TEST(SlotState, ConstructionMergesAndSorts) {
  const SlotState s(3, {SlotEntry{5, 1}, SlotEntry{2, 2}, SlotEntry{5, 1}});
  EXPECT_EQ(s.total(), 4u);
  EXPECT_EQ(s.cardinality(), 2);
  EXPECT_EQ(s.entries()[0], (SlotEntry{2, 2}));
  EXPECT_EQ(s.entries()[1], (SlotEntry{5, 2}));
  EXPECT_THROW(SlotState(2, {}), std::invalid_argument);
  EXPECT_THROW(SlotState(2, {SlotEntry{4, 1}}), std::invalid_argument);
  EXPECT_THROW(SlotState(2, {SlotEntry{1, 0}}), std::invalid_argument);
}

TEST(SlotState, FromIndicesAndGround) {
  const SlotState s = SlotState::from_indices(3, {0, 3, 3, 5});
  EXPECT_EQ(s.total(), 4u);
  EXPECT_EQ(s.cardinality(), 3);
  const SlotState g = SlotState::ground(2, 7);
  EXPECT_TRUE(g.is_ground());
  EXPECT_EQ(g.total(), 7u);
}

TEST(SlotState, StateRoundTripUniform) {
  const QuantumState dicke = make_dicke(4, 2);
  const auto slot = SlotState::from_state(dicke);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->total(), 6u);
  EXPECT_EQ(slot->cardinality(), 6);
  EXPECT_TRUE(slot->to_state().approx_equal(dicke));
}

TEST(SlotState, StateRoundTripMergedAmplitudes) {
  // sqrt(1/4)|00> + sqrt(2/4)|01> + sqrt(1/4)|11>: counts (1, 2, 1).
  const QuantumState s(2, {Term{0, std::sqrt(0.25)}, Term{1, std::sqrt(0.5)},
                           Term{3, std::sqrt(0.25)}});
  const auto slot = SlotState::from_state(s);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->total(), 4u);
  EXPECT_EQ(slot->entries()[1], (SlotEntry{1, 2}));
  EXPECT_TRUE(slot->to_state().approx_equal(s));
}

TEST(SlotState, FromStateRejectsSignsAndIrrational) {
  const QuantumState neg(2, {Term{0, 1.0}, Term{1, -1.0}});
  EXPECT_FALSE(SlotState::from_state(neg).has_value());
  // Irrational squared-amplitude ratio (1 : sqrt(2)) within a small slot
  // budget.
  const QuantumState irr(2, {Term{0, 1.0}, Term{1, std::pow(2.0, 0.25)}});
  EXPECT_FALSE(SlotState::from_state(irr, 1000).has_value());
}

TEST(SlotState, WithXAndCnot) {
  const SlotState s = SlotState::from_indices(3, {0b000, 0b011});
  const SlotState x = s.with_x(2);
  EXPECT_EQ(x.entries()[0].index, 0b100u);
  EXPECT_EQ(x.entries()[1].index, 0b111u);
  // CNOT control q0 positive, target q2: only |011> fires.
  const SlotState c = s.with_cnot(0, true, 2);
  EXPECT_EQ(c.entries()[0].index, 0b000u);
  EXPECT_EQ(c.entries()[1].index, 0b111u);
  // Negative control: only |000> fires.
  const SlotState nc = s.with_cnot(0, false, 2);
  EXPECT_EQ(nc.entries()[0].index, 0b011u);
  EXPECT_EQ(nc.entries()[1].index, 0b100u);
}

TEST(SlotState, WithPermutationAndTranslation) {
  const SlotState s = SlotState::from_indices(3, {0b001, 0b110});
  const SlotState t = s.with_translation(0b001);
  EXPECT_EQ(t.entries()[0].index, 0b000u);
  EXPECT_EQ(t.entries()[1].index, 0b111u);
  const SlotState p = s.with_permutation({2, 1, 0});  // swap q0 and q2
  EXPECT_EQ(p.entries()[0].index, 0b011u);
  EXPECT_EQ(p.entries()[1].index, 0b100u);
}

TEST(SlotState, QubitConstant) {
  const SlotState s = SlotState::from_indices(3, {0b001, 0b011});
  int value = -1;
  EXPECT_TRUE(s.qubit_constant(0, &value));
  EXPECT_EQ(value, 1);
  EXPECT_TRUE(s.qubit_constant(2, &value));
  EXPECT_EQ(value, 0);
  EXPECT_FALSE(s.qubit_constant(1));
}

TEST(SlotState, QubitSeparable) {
  // GHZ-like: not separable.
  const SlotState ghz = SlotState::from_indices(3, {0b000, 0b111});
  for (int q = 0; q < 3; ++q) EXPECT_FALSE(ghz.qubit_separable(q));
  // Product on qubit 2: {00,01} x {0,1}(q2).
  const SlotState prod =
      SlotState::from_indices(3, {0b000, 0b001, 0b100, 0b101});
  EXPECT_TRUE(prod.qubit_separable(2));
  EXPECT_TRUE(prod.qubit_separable(0));
  // Ratio-based separability: counts (1,2) on each rest group of qubit 0.
  const SlotState ratio(2, {SlotEntry{0b00, 1}, SlotEntry{0b01, 2},
                            SlotEntry{0b10, 2}, SlotEntry{0b11, 4}});
  EXPECT_TRUE(ratio.qubit_separable(0));
  EXPECT_TRUE(ratio.qubit_separable(1));
  const SlotState skew(2, {SlotEntry{0b00, 1}, SlotEntry{0b01, 2},
                           SlotEntry{0b10, 2}, SlotEntry{0b11, 3}});
  EXPECT_FALSE(skew.qubit_separable(0));
}

TEST(SlotState, HashAndEquality) {
  const SlotState a = SlotState::from_indices(3, {1, 2});
  const SlotState b = SlotState::from_indices(3, {2, 1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  const SlotState c = SlotState::from_indices(3, {1, 3});
  EXPECT_NE(a, c);
}

TEST(SlotState, RandomUniformRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    const int m = 2 + static_cast<int>(rng.next_below(6));
    const QuantumState s = make_random_uniform(n, m, rng);
    const auto slot = SlotState::from_state(s);
    ASSERT_TRUE(slot.has_value());
    EXPECT_TRUE(slot->to_state().approx_equal(s));
    EXPECT_EQ(slot->total(), static_cast<std::uint64_t>(m));
  }
}

// --- from_state differential test -------------------------------------------
// The linear scan over every total m that from_state replaced, kept as the
// reference: the per-count walk must find the same smallest total.
std::optional<SlotState> from_state_linear_scan(const QuantumState& state,
                                                std::uint32_t max_total) {
  const auto& terms = state.terms();
  for (const Term& t : terms) {
    if (t.amplitude < 0) return std::nullopt;
  }
  const auto m0 = static_cast<std::uint32_t>(state.cardinality());
  for (std::uint64_t m = m0; m <= max_total; ++m) {
    std::vector<SlotEntry> entries;
    bool ok = true;
    std::uint64_t used = 0;
    for (const Term& t : terms) {
      const double exact = t.amplitude * t.amplitude * static_cast<double>(m);
      const auto count = static_cast<std::uint64_t>(std::llround(exact));
      if (count < 1 || std::abs(exact - static_cast<double>(count)) > 1e-6) {
        ok = false;
        break;
      }
      used += count;
      entries.push_back(SlotEntry{t.index, static_cast<std::uint32_t>(count)});
    }
    if (ok && used == m) {
      return SlotState(state.num_qubits(), std::move(entries));
    }
  }
  return std::nullopt;
}

/// The state with squared amplitudes counts[i] / sum(counts) on distinct
/// random indices of n qubits.
QuantumState state_from_counts(int n, const std::vector<std::uint64_t>& counts,
                               Rng& rng) {
  const std::vector<std::uint64_t> idx =
      rng.sample_distinct(std::uint64_t{1} << n, counts.size());
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  std::vector<Term> terms;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    terms.push_back(Term{static_cast<BasisIndex>(idx[i]),
                         std::sqrt(static_cast<double>(counts[i]) /
                                   static_cast<double>(total))});
  }
  return QuantumState(n, std::move(terms));
}

void expect_matches_linear_scan(const QuantumState& s,
                                std::uint32_t max_total) {
  const auto fast = SlotState::from_state(s, max_total);
  const auto ref = from_state_linear_scan(s, max_total);
  ASSERT_EQ(fast.has_value(), ref.has_value())
      << s.to_string() << " max_total " << max_total;
  if (ref.has_value()) {
    EXPECT_EQ(fast->total(), ref->total()) << s.to_string();
    EXPECT_EQ(*fast, *ref) << s.to_string();
  }
}

TEST(SlotStateFromState, MatchesLinearScanOnUniformStates) {
  Rng rng(301);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(8));
    const int m = 1 + static_cast<int>(rng.next_below(std::min(40, 1 << n)));
    expect_matches_linear_scan(make_random_uniform(n, m, rng), 1u << 20);
  }
}

TEST(SlotStateFromState, MatchesLinearScanOnMergedCounts) {
  Rng rng(302);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(6));
    const std::size_t k = 2 + rng.next_below(8);
    std::vector<std::uint64_t> counts;
    // Common factors make the smallest total a proper divisor of the sum.
    const std::uint64_t scale = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < k; ++i) {
      counts.push_back(scale * (1 + rng.next_below(50)));
    }
    expect_matches_linear_scan(state_from_counts(n, counts, rng), 1u << 20);
  }
}

TEST(SlotStateFromState, MatchesLinearScanOnIrrationalStates) {
  Rng rng(303);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(6));
    const int m = 2 + static_cast<int>(rng.next_below(6));
    expect_matches_linear_scan(make_random_real(n, m, rng, false), 1u << 14);
  }
  // Two at the default budget: the full walk finds nothing either.
  for (int trial = 0; trial < 2; ++trial) {
    expect_matches_linear_scan(make_random_real(6, 3, rng, false), 1u << 20);
  }
}

TEST(SlotStateFromState, MatchesLinearScanOnVeryLightTerms) {
  // a^2 < 2e-6: the 1e-6 tolerance window of one count spans several
  // totals, so the walk tests more than one total per count.
  Rng rng(304);
  for (const std::uint64_t heavy :
       {std::uint64_t{999'999}, std::uint64_t{1'999'999},
        std::uint64_t{4'999'999}, std::uint64_t{2'500'000}}) {
    expect_matches_linear_scan(state_from_counts(5, {1, heavy}, rng), 1u << 23);
    expect_matches_linear_scan(state_from_counts(5, {1, 2, heavy}, rng),
                               1u << 23);
  }
  // Perturbed off the rational grid.
  const QuantumState near(3, {Term{0, std::sqrt(1.3e-6)}, Term{5, 1.0}});
  expect_matches_linear_scan(near, 1u << 23);
}

TEST(SlotStateFromState, RejectsNegativeAmplitudesLikeLinearScan) {
  Rng rng(305);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Term> terms = make_random_uniform(5, 6, rng).terms();
    terms[rng.next_below(terms.size())].amplitude *= -1.0;
    const QuantumState s(5, std::move(terms));
    EXPECT_FALSE(SlotState::from_state(s).has_value());
    expect_matches_linear_scan(s, 1u << 10);
  }
}

TEST(SlotStateFromState, MaxTotalEdges) {
  Rng rng(306);
  for (const std::vector<std::uint64_t>& counts :
       {std::vector<std::uint64_t>{1, 2, 4}, std::vector<std::uint64_t>{3, 5},
        std::vector<std::uint64_t>{1, 1, 1, 1, 9}}) {
    const QuantumState s = state_from_counts(4, counts, rng);
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts) sum += c;
    const auto total = static_cast<std::uint32_t>(sum);
    // First hit exactly at max_total.
    const auto hit = SlotState::from_state(s, total);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->total(), sum);
    expect_matches_linear_scan(s, total);
    // No hit at or below max_total.
    EXPECT_FALSE(SlotState::from_state(s, total - 1).has_value());
    expect_matches_linear_scan(s, total - 1);
  }
  // max_total below the cardinality: nothing to test.
  const QuantumState uniform = make_random_uniform(4, 5, rng);
  EXPECT_FALSE(SlotState::from_state(uniform, 4).has_value());
  expect_matches_linear_scan(uniform, 4);
}

}  // namespace
}  // namespace qsp
