#include "core/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/moves.hpp"

#include "sim/statevector.hpp"
#include "state/state_factory.hpp"
#include "util/combinatorics.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

SlotState random_slot(Rng& rng, int n, int m) {
  return *SlotState::from_state(make_random_uniform(n, m, rng));
}

TEST(Canonical, CompressClearsSeparableQubits) {
  // (|00> + |01> + |10> + |11>) / 2: both qubits separable.
  const SlotState s = SlotState::from_indices(2, {0, 1, 2, 3});
  const SlotState c = compress_free(s);
  EXPECT_TRUE(c.is_ground());
  EXPECT_EQ(c.total(), 4u);
}

TEST(Canonical, CompressKeepsEntangledCore) {
  // Bell x (|0>+|1>)/sqrt2 on qubit 2.
  const SlotState s =
      SlotState::from_indices(3, {0b000, 0b011, 0b100, 0b111});
  const SlotState c = compress_free(s);
  EXPECT_EQ(c.cardinality(), 2);
  EXPECT_FALSE(c.qubit_separable(0));
  EXPECT_TRUE(c.qubit_constant(2));
}

TEST(Canonical, KeyInvariantUnderXTranslations) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const SlotState s = random_slot(rng, 4, 5);
    const auto key = canonical_key(s, CanonicalLevel::kU2);
    for (int q = 0; q < 4; ++q) {
      EXPECT_EQ(canonical_key(s.with_x(q), CanonicalLevel::kU2), key);
    }
  }
}

TEST(Canonical, KeyInvariantUnderPermutationsAtPU2Exact) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const SlotState s = random_slot(rng, 4, 6);
    const auto key = canonical_key(s, CanonicalLevel::kPU2Exact);
    for (const auto& perm : permutations(4)) {
      EXPECT_EQ(canonical_key(s.with_permutation(perm),
                              CanonicalLevel::kPU2Exact),
                key);
    }
  }
}

TEST(Canonical, U2DoesNotMergePermutedStates) {
  // Permutation-related but not translation-related states must differ at
  // kU2 and coincide at kPU2Exact.
  const SlotState a = SlotState::from_indices(3, {0b000, 0b001, 0b010});
  const SlotState b = a.with_permutation({2, 1, 0});
  EXPECT_EQ(canonical_key(a, CanonicalLevel::kPU2Exact),
            canonical_key(b, CanonicalLevel::kPU2Exact));
}

TEST(Canonical, GreedyIsSoundUnderTransforms) {
  // Greedy keys must never merge inequivalent states; equal keys from
  // transformed copies are desirable but not required. Check soundness by
  // verifying the key function is deterministic and that translated copies
  // still collide (translations are handled exactly at every level).
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const SlotState s = random_slot(rng, 5, 6);
    const auto key = canonical_key(s, CanonicalLevel::kPU2Greedy);
    EXPECT_EQ(canonical_key(s, CanonicalLevel::kPU2Greedy), key);
    const BasisIndex mask =
        static_cast<BasisIndex>(rng.next_below(32));
    EXPECT_EQ(canonical_key(s.with_translation(mask),
                            CanonicalLevel::kPU2Greedy),
              key);
  }
}

TEST(Canonical, DistinctStatesDistinctKeys) {
  // GHZ_3 and W_3 are inequivalent under free operations.
  const SlotState ghz = *SlotState::from_state(make_ghz(3));
  const SlotState w = *SlotState::from_state(make_w(3));
  EXPECT_NE(canonical_key(ghz, CanonicalLevel::kPU2Exact),
            canonical_key(w, CanonicalLevel::kPU2Exact));
}

TEST(Canonical, FreeReducible) {
  EXPECT_TRUE(free_reducible(SlotState::ground(3, 4), CanonicalLevel::kU2));
  EXPECT_TRUE(free_reducible(SlotState::from_indices(2, {0, 1, 2, 3}),
                             CanonicalLevel::kU2));
  EXPECT_FALSE(free_reducible(*SlotState::from_state(make_ghz(3)),
                              CanonicalLevel::kU2));
  // kNone requires literal ground.
  EXPECT_FALSE(free_reducible(SlotState::from_indices(2, {0, 1, 2, 3}),
                              CanonicalLevel::kNone));
}

TEST(Canonical, FreeDisentangleProducesVerifiedGates) {
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    // Build a separable state: random product of single-qubit splits and
    // flips, realized by translating + splitting the ground slot state.
    SlotState s = SlotState::ground(3, 8);
    // Split qubits 0 and 2, flip qubit 1 (positive split angle moves
    // half the slot mass onto the t=1 side).
    Move split0;
    split0.kind = MoveKind::kRotation;
    split0.target = 0;
    split0.theta = M_PI / 2;
    s = apply_move(s, split0);
    s = s.with_x(1);
    Move split2;
    split2.kind = MoveKind::kRotation;
    split2.target = 2;
    split2.theta = M_PI / 2;
    s = apply_move(s, split2);

    SlotState reached = s;
    const std::vector<Gate> gates = free_disentangle_gates(s, &reached);
    EXPECT_TRUE(reached.is_ground());
    // The gates must map the state to ground on the simulator as well.
    Statevector sv(s.to_state());
    for (const Gate& g : gates) sv.apply(g);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]), 1.0, 1e-9);
  }
}

TEST(Canonical, FreeDisentangleThrowsOnEntangled) {
  const SlotState ghz = *SlotState::from_state(make_ghz(3));
  EXPECT_THROW(free_disentangle_gates(ghz), std::invalid_argument);
}

TEST(Canonical, KeyInvariantUnderSeparableSplit) {
  // A Bell pair with an extra separable qubit in superposition must share
  // its class with the Bell pair whose extra qubit is |0>: the zero-cost
  // merge inside canonicalization removes the separable qubit.
  const SlotState plain =
      SlotState::from_indices(3, {0b000, 0b011, 0b000, 0b011});
  const SlotState split =
      SlotState::from_indices(3, {0b000, 0b011, 0b100, 0b111});
  EXPECT_EQ(canonical_key(plain, CanonicalLevel::kU2),
            canonical_key(split, CanonicalLevel::kU2));
  EXPECT_EQ(canonical_key(plain, CanonicalLevel::kPU2Exact),
            canonical_key(split, CanonicalLevel::kPU2Exact));
}

/// Unpack a canonical key back into the slot state it denotes.
SlotState key_to_state(const CanonicalKey& key, int num_qubits) {
  std::vector<SlotEntry> entries;
  entries.reserve(key.size());
  for (const std::uint64_t packed : key) {
    entries.push_back(SlotEntry{static_cast<BasisIndex>(packed >> 32),
                                static_cast<std::uint32_t>(packed)});
  }
  return SlotState(num_qubits, std::move(entries));
}

/// Apply a witness to the state's vector: merges, X layer, then the bit
/// relabeling — and return the reached sparse state.
QuantumState apply_witness(const SlotState& state,
                           const CanonicalWitness& witness) {
  Statevector sv(state.to_state());
  for (const Gate& g : witness.merge_gates) sv.apply(g);
  for (int q = 0; q < state.num_qubits(); ++q) {
    if (get_bit(witness.translation, q) != 0) sv.apply(Gate::x(q));
  }
  const QuantumState mid = sv.to_state();
  std::vector<Term> terms;
  terms.reserve(mid.terms().size());
  for (const Term& t : mid.terms()) {
    terms.push_back(Term{permute_bits(t.index, witness.permutation),
                         t.amplitude});
  }
  return QuantumState(state.num_qubits(), std::move(terms));
}

TEST(Canonical, WitnessKeyMatchesCanonicalKey) {
  Rng rng(99);
  for (const CanonicalLevel level :
       {CanonicalLevel::kNone, CanonicalLevel::kU2,
        CanonicalLevel::kPU2Greedy, CanonicalLevel::kPU2Exact}) {
    for (int i = 0; i < 20; ++i) {
      const SlotState s = random_slot(rng, 4, 2 + i % 6);
      EXPECT_EQ(canonical_witness(s, level).key, canonical_key(s, level));
    }
  }
}

TEST(Canonical, WitnessTransformReachesCanonicalForm) {
  // The witness gates must map the state's vector exactly onto the
  // canonical form read as a slot state — this is what lets the
  // equivalence cache rewire a class representative's circuit onto any
  // other member of the class.
  Rng rng(123);
  for (const CanonicalLevel level :
       {CanonicalLevel::kU2, CanonicalLevel::kPU2Greedy,
        CanonicalLevel::kPU2Exact}) {
    for (int i = 0; i < 20; ++i) {
      const SlotState s = random_slot(rng, 4, 2 + i % 7);
      const CanonicalWitness w = canonical_witness(s, level);
      const QuantumState reached = apply_witness(s, w);
      const QuantumState form =
          key_to_state(w.key, s.num_qubits()).to_state();
      EXPECT_TRUE(reached.approx_equal(form, 1e-9))
          << "level " << static_cast<int>(level) << "\nstate "
          << s.to_string() << "\nreached " << reached.to_string()
          << "\nform " << form.to_string();
    }
  }
}

TEST(Canonical, WitnessHandlesSeparableStructure) {
  // States with separable qubits exercise the merge-gate side of the
  // witness (compress_free clears them; the witness must realize the
  // clears as Ry gates).
  const SlotState split =
      SlotState::from_indices(3, {0b000, 0b011, 0b100, 0b111});
  for (const CanonicalLevel level :
       {CanonicalLevel::kU2, CanonicalLevel::kPU2Exact}) {
    const CanonicalWitness w = canonical_witness(split, level);
    EXPECT_FALSE(w.merge_gates.empty());
    const QuantumState reached = apply_witness(split, w);
    const QuantumState form = key_to_state(w.key, 3).to_state();
    EXPECT_TRUE(reached.approx_equal(form, 1e-9));
  }
}

// ---------------------------------------------------------------------------
// Reference: the full scan canonicalization ran before the slot-sequence
// scan. Every support translation is tried; at kPU2Exact every qubit
// permutation in util::permutations order, at kPU2Greedy the greedy qubit
// ordering; whole sorted keys are compared and the first strict minimum is
// kept. The production scan must reproduce its keys and witnesses bit for
// bit.
// ---------------------------------------------------------------------------

std::uint64_t packed(BasisIndex index, std::uint32_t count) {
  return (static_cast<std::uint64_t>(index) << 32) | count;
}

BasisIndex index_of(std::uint64_t word) {
  return static_cast<BasisIndex>(word >> 32);
}

/// Greedy ordering of a translated, sorted key: repeatedly append the
/// unused qubit's column that minimizes the sorted partial key.
CanonicalKey reference_greedy(const CanonicalKey& t, int n,
                              std::vector<int>& perm) {
  const std::size_t m = t.size();
  CanonicalKey work(m);
  for (std::size_t i = 0; i < m; ++i) work[i] = t[i] & 0xFFFFFFFFull;
  std::vector<bool> used(static_cast<std::size_t>(n), false);
  perm.assign(static_cast<std::size_t>(n), 0);
  for (int step = 0; step < n; ++step) {
    int best_q = -1;
    CanonicalKey best_vals;
    CanonicalKey best_sorted;
    for (int q = 0; q < n; ++q) {
      if (used[static_cast<std::size_t>(q)]) continue;
      CanonicalKey vals(m);
      for (std::size_t i = 0; i < m; ++i) {
        const BasisIndex prefix = (index_of(work[i]) << 1) |
                                  ((index_of(t[i]) >> q) & 1u);
        vals[i] = packed(prefix, static_cast<std::uint32_t>(work[i]));
      }
      CanonicalKey sorted = vals;
      std::sort(sorted.begin(), sorted.end());
      if (best_q < 0 || sorted < best_sorted) {
        best_q = q;
        best_vals = vals;
        best_sorted = sorted;
      }
    }
    used[static_cast<std::size_t>(best_q)] = true;
    perm[static_cast<std::size_t>(best_q)] = n - 1 - step;
    work = best_vals;
  }
  std::sort(work.begin(), work.end());
  return work;
}

CanonicalWitness reference_witness(const SlotState& state,
                                   CanonicalLevel level) {
  CanonicalWitness w;
  const int n = state.num_qubits();
  std::vector<int> identity(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) identity[static_cast<std::size_t>(q)] = q;
  w.permutation = identity;
  const SlotState compressed = compress_free(state, &w.merge_gates);
  const bool exact = level == CanonicalLevel::kPU2Exact && n <= 8;
  const bool greedy = level == CanonicalLevel::kPU2Greedy ||
                      (level == CanonicalLevel::kPU2Exact && n > 8);
  CanonicalKey best;
  for (const SlotEntry& e : compressed.entries()) {
    CanonicalKey t;
    for (const SlotEntry& f : compressed.entries()) {
      t.push_back(packed(f.index ^ e.index, f.count));
    }
    std::sort(t.begin(), t.end());
    CanonicalKey candidate = t;
    std::vector<int> perm = identity;
    if (exact) {
      candidate.clear();
      for (const auto& p : permutations(n)) {
        CanonicalKey cur;
        for (const std::uint64_t x : t) {
          cur.push_back(packed(permute_bits(index_of(x), p),
                               static_cast<std::uint32_t>(x)));
        }
        std::sort(cur.begin(), cur.end());
        if (candidate.empty() || cur < candidate) {
          candidate = cur;
          perm = p;
        }
      }
    } else if (greedy) {
      candidate = reference_greedy(t, n, perm);
    }
    if (best.empty() || candidate < best) {
      best = candidate;
      w.translation = e.index;
      w.permutation = perm;
    }
  }
  w.key = best;
  return w;
}

/// A random slot state with m distinct indices: every count 1 (uniform)
/// or counts drawn from [1, 4] (varied, so ties between equal-count
/// entries and count-driven orderings both occur).
SlotState random_counted_slot(Rng& rng, int n, std::size_t m, bool varied) {
  std::vector<SlotEntry> entries;
  for (const std::uint64_t index :
       rng.sample_distinct(std::uint64_t{1} << n, m)) {
    const auto count =
        varied ? static_cast<std::uint32_t>(1 + rng.next_below(4)) : 1u;
    entries.push_back(SlotEntry{static_cast<BasisIndex>(index), count});
  }
  return SlotState(n, std::move(entries));
}

void expect_matches_reference(const SlotState& s, CanonicalLevel level) {
  const CanonicalWitness ref = reference_witness(s, level);
  const CanonicalWitness w = canonical_witness(s, level);
  ASSERT_EQ(w.key, ref.key) << "level " << static_cast<int>(level)
                            << " state " << s.to_string();
  ASSERT_EQ(canonical_key(s, level), ref.key) << s.to_string();
  ASSERT_EQ(w.translation, ref.translation) << s.to_string();
  ASSERT_EQ(w.permutation, ref.permutation) << s.to_string();
  ASSERT_EQ(w.merge_gates.size(), ref.merge_gates.size());
}

TEST(Canonical, SlotScanMatchesFullScanReference) {
  // 20.4 k states over n = 1..6, half uniform, half with varied counts,
  // each checked at all three canonical levels.
  Rng rng(20240101);
  int states = 0;
  for (int n = 1; n <= 6; ++n) {
    const std::size_t max_m =
        std::min<std::size_t>(std::size_t{1} << n, 10);
    for (int i = 0; i < 3400; ++i) {
      const std::size_t m = 1 + rng.next_below(max_m);
      const SlotState s = random_counted_slot(rng, n, m, i % 2 == 1);
      for (const CanonicalLevel level :
           {CanonicalLevel::kU2, CanonicalLevel::kPU2Greedy,
            CanonicalLevel::kPU2Exact}) {
        expect_matches_reference(s, level);
      }
      ++states;
    }
  }
  EXPECT_EQ(states, 20400);
}

TEST(Canonical, SlotScanMatchesFullScanReferenceOnWideRegisters) {
  // n = 7, 8 compute each permutation's inverse map on the fly instead of
  // reading a table.
  Rng rng(77);
  for (int n = 7; n <= 8; ++n) {
    for (int i = 0; i < (n == 7 ? 12 : 6); ++i) {
      const std::size_t m = 2 + rng.next_below(5);
      const SlotState s = random_counted_slot(rng, n, m, i % 2 == 1);
      for (const CanonicalLevel level :
           {CanonicalLevel::kU2, CanonicalLevel::kPU2Greedy,
            CanonicalLevel::kPU2Exact}) {
        expect_matches_reference(s, level);
      }
    }
  }
}

TEST(Canonical, SlotScanMatchesFullScanReferenceOnWorkflowStates) {
  // Uniform random states and the benchmark families as the workflow
  // hands them to the search.
  Rng rng(31);
  std::vector<SlotState> states;
  for (int i = 0; i < 40; ++i) {
    states.push_back(random_slot(rng, 4, 2 + i % 7));
  }
  states.push_back(*SlotState::from_state(make_ghz(5)));
  states.push_back(*SlotState::from_state(make_w(5)));
  states.push_back(*SlotState::from_state(make_dicke(6, 3)));
  for (const SlotState& s : states) {
    for (const CanonicalLevel level :
         {CanonicalLevel::kU2, CanonicalLevel::kPU2Greedy,
          CanonicalLevel::kPU2Exact}) {
      expect_matches_reference(s, level);
    }
  }
}

}  // namespace
}  // namespace qsp
