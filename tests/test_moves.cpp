#include "core/moves.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/cost_model.hpp"
#include "sim/statevector.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

MoveGenOptions default_options() {
  MoveGenOptions o;
  o.include_zero_cost = true;
  return o;
}

TEST(Moves, CnotMovesMatchSlotSemantics) {
  const SlotState s = SlotState::from_indices(3, {0b000, 0b011, 0b101, 0b110});
  const auto moves = enumerate_moves(s, default_options());
  int cnot_moves = 0;
  for (const Move& mv : moves) {
    if (mv.kind == MoveKind::kCNOT) {
      ++cnot_moves;
      EXPECT_EQ(mv.cost, 1);
      const SlotState child = apply_move(s, mv);
      EXPECT_EQ(child,
                s.with_cnot(mv.control, mv.control_positive, mv.target));
    }
  }
  // 3 targets x 2 controls x 2 polarities (no empty-control skips here).
  EXPECT_EQ(cnot_moves, 12);
}

TEST(Moves, MergeMoveReducesCardinality) {
  // Separable qubit 2: global merge must appear among zero-cost moves.
  const SlotState s =
      SlotState::from_indices(3, {0b000, 0b001, 0b100, 0b101});
  const auto moves = enumerate_moves(s, default_options());
  bool found_merge = false;
  for (const Move& mv : moves) {
    if (mv.kind != MoveKind::kRotation || !mv.controls.empty()) continue;
    if (mv.target != 0) continue;
    const SlotState child = apply_move(s, mv);
    if (child.cardinality() < s.cardinality()) {
      found_merge = true;
      EXPECT_EQ(mv.cost, 0);
      EXPECT_EQ(child.total(), s.total());
    }
  }
  EXPECT_TRUE(found_merge);
}

TEST(Moves, SplitMovesArePresent) {
  // From the ground-with-4-slots state, an uncontrolled rotation can split
  // index 0 into two indices (the inverse of a merge).
  const SlotState g = SlotState::ground(2, 4);
  const auto moves = enumerate_moves(g, default_options());
  bool found_split = false;
  for (const Move& mv : moves) {
    if (mv.kind != MoveKind::kRotation) continue;
    const SlotState child = apply_move(g, mv);
    if (child.cardinality() == 2) found_split = true;
  }
  EXPECT_TRUE(found_split);
}

TEST(Moves, RotationCostsFollowTableOne) {
  const SlotState s = SlotState::from_indices(3, {0b000, 0b011, 0b101, 0b110});
  for (const Move& mv : enumerate_moves(s, default_options())) {
    if (mv.kind != MoveKind::kRotation) continue;
    switch (mv.controls.size()) {
      case 0:
        EXPECT_EQ(mv.cost, 0);
        break;
      case 1:
        EXPECT_EQ(mv.cost, 2);
        break;
      case 2:
        EXPECT_EQ(mv.cost, 4);
        break;
      default:
        EXPECT_EQ(mv.cost, std::int64_t{1} << mv.controls.size());
    }
  }
}

TEST(Moves, MaxControlsRespected) {
  const SlotState s = SlotState::from_indices(4, {0, 3, 5, 6, 9});
  MoveGenOptions o;
  o.max_controls = 1;
  for (const Move& mv : enumerate_moves(s, o)) {
    if (mv.kind == MoveKind::kRotation) {
      EXPECT_LE(mv.controls.size(), 1u);
    }
  }
}

TEST(Moves, TotalIsInvariant) {
  Rng rng(3);
  const QuantumState s = make_random_uniform(4, 6, rng);
  const SlotState slot = *SlotState::from_state(s);
  for (const Move& mv : enumerate_moves(slot, default_options())) {
    const SlotState child = apply_move(slot, mv);
    EXPECT_EQ(child.total(), slot.total());
  }
}

/// The defining property of the arc set: applying the move in slot space
/// must equal applying the corresponding *gate* to the merged quantum state
/// on the simulator.
TEST(Moves, GateSemanticsMatchOnRandomStates) {
  Rng rng(77);
  int rotations_checked = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(2));
    const int m = 2 + static_cast<int>(rng.next_below(7));
    const QuantumState state = make_random_uniform(n, m, rng);
    const SlotState slot = *SlotState::from_state(state);
    const auto moves = enumerate_moves(slot, default_options());
    for (const Move& mv : moves) {
      const SlotState child = apply_move(slot, mv);
      Statevector sv(slot.to_state());
      sv.apply(mv.to_gate());
      const QuantumState expected = child.to_state();
      ASSERT_NEAR(std::abs(sv.inner_product(expected)), 1.0, 1e-7)
          << "state " << slot.to_string() << " move " << mv.to_string();
      if (mv.kind == MoveKind::kRotation) ++rotations_checked;
    }
  }
  EXPECT_GT(rotations_checked, 100);
}

TEST(Moves, StructuredFallbackStillFindsMerges) {
  // Counts above the cap: groups (1000, 1000) per rest index. The
  // structured candidate set must still offer the global merge.
  const SlotState s(2, {SlotEntry{0b00, 1000}, SlotEntry{0b01, 1000},
                        SlotEntry{0b10, 1000}, SlotEntry{0b11, 1000}});
  MoveGenOptions o;
  o.include_zero_cost = true;
  o.full_candidate_cap = 16;
  bool merge_found = false;
  for (const Move& mv : enumerate_moves(s, o)) {
    if (mv.kind != MoveKind::kRotation) continue;
    const SlotState child = apply_move(s, mv);
    if (child.cardinality() < s.cardinality()) merge_found = true;
  }
  EXPECT_TRUE(merge_found);
}

TEST(Moves, NoBothDirectionControlledSwaps) {
  // {00, 01}: a CRy relabel on target q1 controlled by q0 would need to
  // swap both directions at once within a single group; only valid
  // rotations may appear. Verify every enumerated arc keeps amplitudes
  // consistent (already covered by gate-semantics test) and that no
  // rotation with one control pretends to swap j and k for group ratios
  // that differ.
  const SlotState s = SlotState::from_indices(2, {0b00, 0b11});
  for (const Move& mv : enumerate_moves(s, default_options())) {
    const SlotState child = apply_move(s, mv);
    Statevector sv(s.to_state());
    sv.apply(mv.to_gate());
    EXPECT_NEAR(std::abs(sv.inner_product(child.to_state())), 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Reference: move generation as it ran before rotation bucketing went flat.
// Entries are bucketed in nested std::maps (control pattern, then
// rest-index), every CNOT literal scans the entries, and the rotation
// apply regroups satisfied entries in a map. The production generator must
// reproduce every Move field (theta bit for bit) in the same order, and
// every applied child.
// ---------------------------------------------------------------------------

constexpr double kRefCountEpsilon = 1e-6;
constexpr double kRefAngleEpsilon = 1e-9;

bool reference_rotate_counts(std::uint64_t j, std::uint64_t k, double co,
                             double si, std::uint64_t* j_out,
                             std::uint64_t* k_out) {
  const double a = std::sqrt(static_cast<double>(j));
  const double b = std::sqrt(static_cast<double>(k));
  const double a2 = co * a - si * b;
  const double b2 = si * a + co * b;
  if (a2 < -kRefCountEpsilon || b2 < -kRefCountEpsilon) return false;
  const double j2 = a2 * a2;
  const double k2 = b2 * b2;
  const auto ji = static_cast<std::uint64_t>(std::llround(j2));
  const auto ki = static_cast<std::uint64_t>(std::llround(k2));
  if (std::abs(j2 - static_cast<double>(ji)) > kRefCountEpsilon ||
      std::abs(k2 - static_cast<double>(ki)) > kRefCountEpsilon) {
    return false;
  }
  if (ji + ki != j + k) return false;
  *j_out = ji;
  *k_out = ki;
  return true;
}

double reference_rotation_angle(std::uint64_t j, std::uint64_t k,
                                std::uint64_t j2, std::uint64_t k2) {
  const double alpha = std::atan2(std::sqrt(static_cast<double>(k)),
                                  std::sqrt(static_cast<double>(j)));
  const double alpha2 = std::atan2(std::sqrt(static_cast<double>(k2)),
                                   std::sqrt(static_cast<double>(j2)));
  return 2.0 * (alpha2 - alpha);
}

using GroupMap = std::map<BasisIndex, std::pair<std::uint64_t, std::uint64_t>>;

void reference_rotations_for(const SlotState& state, int target,
                             const std::vector<int>& subset,
                             const MoveGenOptions& options,
                             std::vector<Move>& out) {
  const int num_controls = static_cast<int>(subset.size());
  if (num_controls == 0 && !options.include_zero_cost) return;
  const std::uint64_t m = state.total();
  const BasisIndex tbit = BasisIndex{1} << target;
  std::map<std::uint32_t, GroupMap> by_pattern;
  std::map<std::uint32_t, std::uint64_t> satisfied_weight;
  for (const SlotEntry& e : state.entries()) {
    std::uint32_t pattern = 0;
    for (int b = 0; b < num_controls; ++b) {
      if (get_bit(e.index, subset[static_cast<std::size_t>(b)]) != 0) {
        pattern |= std::uint32_t{1} << b;
      }
    }
    auto& [j, k] = by_pattern[pattern][e.index & ~tbit];
    ((e.index & tbit) == 0 ? j : k) += e.count;
    satisfied_weight[pattern] += e.count;
  }
  for (const auto& [pattern, groups] : by_pattern) {
    if (num_controls > 0 && satisfied_weight[pattern] == m) continue;
    auto lightest = groups.begin();
    for (auto it = groups.begin(); it != groups.end(); ++it) {
      if (it->second.first + it->second.second <
          lightest->second.first + lightest->second.second) {
        lightest = it;
      }
    }
    const std::uint64_t j0 = lightest->second.first;
    const std::uint64_t k0 = lightest->second.second;
    const std::uint64_t total = j0 + k0;
    std::vector<double> candidates;
    if (total <= options.full_candidate_cap) {
      for (std::uint64_t j2 = 0; j2 <= total; ++j2) {
        const std::uint64_t k2 = total - j2;
        if (j2 == j0 && k2 == k0) continue;
        candidates.push_back(reference_rotation_angle(j0, k0, j2, k2));
      }
    } else {
      candidates.push_back(reference_rotation_angle(j0, k0, total, 0));
      candidates.push_back(reference_rotation_angle(j0, k0, 0, total));
      candidates.push_back(reference_rotation_angle(j0, k0, k0, j0));
      int extra = 0;
      for (const auto& [rest, jk] : groups) {
        if (extra >= 8) break;
        if (jk.first == j0 && jk.second == k0) continue;
        const std::uint64_t s = jk.first + jk.second;
        candidates.push_back(
            reference_rotation_angle(jk.first, jk.second, s, 0));
        candidates.push_back(
            reference_rotation_angle(jk.first, jk.second, 0, s));
        ++extra;
      }
    }
    std::sort(candidates.begin(), candidates.end());
    double last_theta = 1e9;
    for (const double theta : candidates) {
      if (std::abs(theta) < kRefAngleEpsilon) continue;
      if (std::abs(theta - last_theta) < kRefAngleEpsilon) continue;
      last_theta = theta;
      const double co = std::cos(theta / 2);
      const double si = std::sin(theta / 2);
      bool ok = true;
      for (const auto& [rest, jk] : groups) {
        std::uint64_t jj = 0, kk = 0;
        if (!reference_rotate_counts(jk.first, jk.second, co, si, &jj,
                                     &kk)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      Move mv;
      mv.kind = MoveKind::kRotation;
      mv.target = target;
      mv.theta = theta;
      for (int b = 0; b < num_controls; ++b) {
        mv.controls.push_back(
            ControlLiteral{subset[static_cast<std::size_t>(b)],
                           ((pattern >> b) & 1u) != 0});
      }
      mv.cost = options.coupling != nullptr
                    ? options.coupling->routed_rotation_cost(mv.controls,
                                                             target)
                    : rotation_cost(num_controls);
      out.push_back(std::move(mv));
    }
  }
}

void reference_subsets(int num_qubits, int target, int max_controls,
                       std::vector<int>& current, int next,
                       const SlotState& state, const MoveGenOptions& options,
                       std::vector<Move>& out) {
  reference_rotations_for(state, target, current, options, out);
  if (static_cast<int>(current.size()) >= max_controls) return;
  for (int q = next; q < num_qubits; ++q) {
    if (q == target) continue;
    current.push_back(q);
    reference_subsets(num_qubits, target, max_controls, current, q + 1,
                      state, options, out);
    current.pop_back();
  }
}

std::vector<Move> reference_enumerate_moves(const SlotState& state,
                                            const MoveGenOptions& options) {
  const int n = state.num_qubits();
  const int max_controls =
      options.max_controls < 0 ? n - 1 : options.max_controls;
  std::vector<Move> out;
  for (int t = 0; t < n; ++t) {
    if (options.include_zero_cost) {
      Move mv;
      mv.kind = MoveKind::kX;
      mv.target = t;
      out.push_back(mv);
    }
    for (int c = 0; c < n; ++c) {
      if (c == t) continue;
      for (const bool positive : {true, false}) {
        bool any = false;
        for (const SlotEntry& e : state.entries()) {
          if (get_bit(e.index, c) == (positive ? 1 : 0)) {
            any = true;
            break;
          }
        }
        if (!any) continue;
        Move mv;
        mv.kind = MoveKind::kCNOT;
        mv.target = t;
        mv.control = c;
        mv.control_positive = positive;
        mv.cost = options.coupling != nullptr
                      ? options.coupling->routed_cnot_cost(c, t)
                      : 1;
        out.push_back(mv);
      }
    }
    std::vector<int> subset;
    reference_subsets(n, t, max_controls, subset, 0, state, options, out);
  }
  return out;
}

SlotState reference_apply_move(const SlotState& state, const Move& move) {
  if (move.kind == MoveKind::kX) return state.with_x(move.target);
  if (move.kind == MoveKind::kCNOT) {
    return state.with_cnot(move.control, move.control_positive, move.target);
  }
  const BasisIndex tbit = BasisIndex{1} << move.target;
  const double co = std::cos(move.theta / 2);
  const double si = std::sin(move.theta / 2);
  std::vector<SlotEntry> next;
  GroupMap groups;
  for (const SlotEntry& e : state.entries()) {
    bool satisfied = true;
    for (const ControlLiteral& c : move.controls) {
      if (get_bit(e.index, c.qubit) != (c.positive ? 1 : 0)) {
        satisfied = false;
        break;
      }
    }
    if (!satisfied) {
      next.push_back(e);
      continue;
    }
    auto& [j, k] = groups[e.index & ~tbit];
    ((e.index & tbit) == 0 ? j : k) += e.count;
  }
  for (const auto& [rest, jk] : groups) {
    std::uint64_t jj = 0, kk = 0;
    EXPECT_TRUE(reference_rotate_counts(jk.first, jk.second, co, si, &jj, &kk));
    if (jj > 0) next.push_back(SlotEntry{rest, static_cast<std::uint32_t>(jj)});
    if (kk > 0) {
      next.push_back(SlotEntry{rest | tbit, static_cast<std::uint32_t>(kk)});
    }
  }
  return SlotState(state.num_qubits(), std::move(next));
}

/// Random state on n qubits with up to 12 entries. Count modes: 0 all
/// ones, 1 one shared count, 2 varied small counts, 3 varied counts above
/// the default full_candidate_cap (the structured-candidate path).
SlotState random_move_state(Rng& rng, int n, int mode) {
  const std::uint64_t slots = std::uint64_t{1} << n;
  const std::uint64_t m =
      1 + rng.next_below(std::min<std::uint64_t>(slots, 12));
  const auto shared = static_cast<std::uint32_t>(1 + rng.next_below(6));
  std::vector<SlotEntry> entries;
  for (const std::uint64_t index : rng.sample_distinct(slots, m)) {
    std::uint32_t count = 1;
    if (mode == 1) count = shared;
    if (mode == 2) count = static_cast<std::uint32_t>(1 + rng.next_below(9));
    if (mode == 3) {
      count = static_cast<std::uint32_t>(4097 + rng.next_below(64));
    }
    entries.push_back(SlotEntry{static_cast<BasisIndex>(index), count});
  }
  return SlotState(n, std::move(entries));
}

TEST(Moves, FlatBucketingMatchesMapReference) {
  // 5 k seeded states over n = 2..8, each with its own draw of zero-cost
  // arcs, control budget, candidate cap and coupling (all-to-all, line(n),
  // or a grid). Wide registers emit thousands of arcs per state, so they
  // get fewer states. A candidate cap of 6, or counts above the default
  // cap, send rotations down the structured-candidate path.
  constexpr int kStatesPerWidth[] = {0, 0, 1200, 1200, 1200, 800, 400, 150, 50};
  Rng rng(16);
  int states = 0;
  int structured = 0;
  std::uint64_t rotations = 0;
  for (int n = 2; n <= 8; ++n) {
    const auto line =
        std::make_shared<const CouplingGraph>(CouplingGraph::line(n));
    // A 2 x n/2 grid; odd widths have no two-row grid and take a ring.
    const auto grid = std::make_shared<const CouplingGraph>(
        n % 2 == 0 ? CouplingGraph::grid(2, n / 2) : CouplingGraph::ring(n));
    for (int i = 0; i < kStatesPerWidth[n]; ++i) {
      const int mode = i % 4;
      const SlotState s = random_move_state(rng, n, mode);
      MoveGenOptions o;
      o.include_zero_cost = rng.next_bool();
      // -1 (unrestricted) or 0..n-1.
      const auto draw = rng.next_below(static_cast<std::uint64_t>(n) + 1);
      o.max_controls = static_cast<int>(draw) - 1;
      if (rng.next_bool(0.25)) o.full_candidate_cap = 6;
      const std::uint64_t topology = rng.next_below(3);
      if (topology == 1) o.coupling = line.get();
      if (topology == 2) o.coupling = grid.get();
      if (mode == 3 || o.full_candidate_cap == 6) ++structured;

      const std::vector<Move> want = reference_enumerate_moves(s, o);
      const std::vector<Move> got = enumerate_moves(s, o);
      const std::string ctx = s.to_string();
      ASSERT_EQ(got.size(), want.size()) << ctx;
      for (std::size_t k = 0; k < got.size(); ++k) {
        const Move& a = got[k];
        const Move& b = want[k];
        ASSERT_EQ(a.kind, b.kind) << ctx << " move " << k;
        ASSERT_EQ(a.target, b.target) << ctx << " move " << k;
        ASSERT_EQ(a.control, b.control) << ctx << " move " << k;
        ASSERT_EQ(a.control_positive, b.control_positive) << ctx;
        ASSERT_EQ(a.controls.size(), b.controls.size()) << ctx;
        for (std::size_t c = 0; c < a.controls.size(); ++c) {
          ASSERT_EQ(a.controls[c].qubit, b.controls[c].qubit) << ctx;
          ASSERT_EQ(a.controls[c].positive, b.controls[c].positive) << ctx;
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.theta),
                  std::bit_cast<std::uint64_t>(b.theta))
            << ctx << " move " << a.to_string();
        ASSERT_EQ(a.cost, b.cost) << ctx << " move " << a.to_string();
        ASSERT_EQ(apply_move(s, a), reference_apply_move(s, b))
            << ctx << " move " << a.to_string();
        if (a.kind == MoveKind::kRotation) ++rotations;
      }
      ++states;
    }
  }
  EXPECT_EQ(states, 5000);
  EXPECT_GT(structured, 1500);
  EXPECT_GT(rotations, 500'000u);
}

}  // namespace
}  // namespace qsp
