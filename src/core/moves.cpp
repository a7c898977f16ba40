#include "core/moves.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "circuit/cost_model.hpp"
#include "util/assert.hpp"

namespace qsp {
namespace {

constexpr double kCountEpsilon = 1e-6;
constexpr double kAngleEpsilon = 1e-9;

/// Rotate the count pair (j, k) by theta/2 in amplitude space; returns
/// false unless both images are (near-)non-negative integers summing to
/// j + k.
bool rotate_counts(std::uint64_t j, std::uint64_t k, double co, double si,
                   std::uint64_t* j_out, std::uint64_t* k_out) {
  const double a = std::sqrt(static_cast<double>(j));
  const double b = std::sqrt(static_cast<double>(k));
  const double a2 = co * a - si * b;
  const double b2 = si * a + co * b;
  if (a2 < -kCountEpsilon || b2 < -kCountEpsilon) return false;
  const double j2 = a2 * a2;
  const double k2 = b2 * b2;
  const auto ji = static_cast<std::uint64_t>(std::llround(j2));
  const auto ki = static_cast<std::uint64_t>(std::llround(k2));
  if (std::abs(j2 - static_cast<double>(ji)) > kCountEpsilon ||
      std::abs(k2 - static_cast<double>(ki)) > kCountEpsilon) {
    return false;
  }
  if (ji + ki != j + k) return false;
  *j_out = ji;
  *k_out = ki;
  return true;
}

/// Angle moving amplitude pair (sqrt(j), sqrt(k)) onto (sqrt(j2), sqrt(k2)).
double rotation_angle(std::uint64_t j, std::uint64_t k, std::uint64_t j2,
                      std::uint64_t k2) {
  const double alpha = std::atan2(std::sqrt(static_cast<double>(k)),
                                  std::sqrt(static_cast<double>(j)));
  const double alpha2 = std::atan2(std::sqrt(static_cast<double>(k2)),
                                   std::sqrt(static_cast<double>(j2)));
  return 2.0 * (alpha2 - alpha);
}

/// The entries of one rest-index r of a target t: the slot counts at
/// r (t = 0) and r | 2^t (t = 1).
struct RestGroup {
  BasisIndex rest = 0;
  std::uint64_t j = 0;
  std::uint64_t k = 0;
};

/// Buffers reused by every (target, control subset) of one
/// enumerate_moves call, so rotation enumeration allocates nothing per
/// subset.
struct RotationScratch {
  /// The current target's rest-groups, ascending by rest.
  std::vector<RestGroup> groups;
  /// One row per group, (control pattern << 32 | group position): sorted,
  /// the rows visit patterns in ascending order and, within a pattern,
  /// groups by ascending rest.
  std::vector<std::uint64_t> rows;
  std::vector<double> candidates;
  std::vector<ControlLiteral> literals;
};

/// Bucket the entries by rest-index for target bit `tbit`: sorted by rest,
/// then the (at most two) rows of each rest merged in place.
void build_rest_groups(const std::vector<SlotEntry>& entries, BasisIndex tbit,
                       std::vector<RestGroup>& groups) {
  groups.clear();
  for (const SlotEntry& e : entries) {
    const bool high = (e.index & tbit) != 0;
    groups.push_back(RestGroup{e.index & ~tbit, high ? 0u : e.count,
                               high ? e.count : 0u});
  }
  std::sort(groups.begin(), groups.end(),
            [](const RestGroup& a, const RestGroup& b) {
              return a.rest < b.rest;
            });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (kept > 0 && groups[kept - 1].rest == groups[i].rest) {
      groups[kept - 1].j += groups[i].j;
      groups[kept - 1].k += groups[i].k;
    } else {
      groups[kept++] = groups[i];
    }
  }
  groups.resize(kept);
}

void enumerate_rotations_for(std::uint64_t m, int target,
                             const std::vector<int>& subset,
                             const MoveGenOptions& options,
                             RotationScratch& scratch,
                             std::vector<Move>& out) {
  const int num_controls = static_cast<int>(subset.size());
  if (num_controls == 0 && !options.include_zero_cost) return;
  const std::vector<RestGroup>& groups = scratch.groups;

  // Bucket the rest-groups by control pattern. Controls exclude the
  // target, so a group's pattern is read off its rest-index.
  std::vector<std::uint64_t>& rows = scratch.rows;
  rows.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::uint64_t pattern = 0;
    for (int b = 0; b < num_controls; ++b) {
      if (get_bit(groups[g].rest, subset[static_cast<std::size_t>(b)]) != 0) {
        pattern |= std::uint64_t{1} << b;
      }
    }
    rows.push_back(pattern << 32 | g);
  }
  std::sort(rows.begin(), rows.end());

  // Every arc of this subset shares one cost: the routed cost reads only
  // the control qubits, not their polarities.
  std::int64_t cost = rotation_cost(num_controls);
  if (options.coupling != nullptr) {
    scratch.literals.clear();
    for (const int q : subset) {
      scratch.literals.push_back(ControlLiteral{q, true});
    }
    cost = options.coupling->routed_rotation_cost(scratch.literals, target);
  }

  std::vector<double>& candidates = scratch.candidates;
  const auto group_at = [&](std::size_t row) -> const RestGroup& {
    return groups[static_cast<std::size_t>(rows[row] & 0xffffffffu)];
  };
  // Rows [first, end) share one control pattern.
  for (std::size_t first = 0, end = 0; first < rows.size(); first = end) {
    const std::uint64_t pattern = rows[first] >> 32;
    end = first + 1;
    while (end < rows.size() && (rows[end] >> 32) == pattern) ++end;

    // A pattern matching every slot is realizable with fewer controls; the
    // smaller subset enumerates that arc.
    std::uint64_t satisfied_weight = 0;
    for (std::size_t r = first; r < end; ++r) {
      satisfied_weight += group_at(r).j + group_at(r).k;
    }
    if (num_controls > 0 && satisfied_weight == m) continue;

    // Candidate angles come from the lightest group: any valid rotation
    // must map it onto integer counts, so when its weight is within the
    // enumeration cap the candidate list is exhaustive. For heavier groups
    // we fall back to the structured candidates (merges, mirrors, and the
    // merge angles of the other groups), which suffice to reach the ground
    // class; such searches lose the optimality certificate only if the cap
    // is actually hit (reported by the solver via the cap option).
    const RestGroup* lightest = &group_at(first);
    for (std::size_t r = first + 1; r < end; ++r) {
      const RestGroup& g = group_at(r);
      if (g.j + g.k < lightest->j + lightest->k) lightest = &g;
    }
    const std::uint64_t j0 = lightest->j;
    const std::uint64_t k0 = lightest->k;
    const std::uint64_t total = j0 + k0;

    candidates.clear();
    if (total <= options.full_candidate_cap) {
      for (std::uint64_t j2 = 0; j2 <= total; ++j2) {
        const std::uint64_t k2 = total - j2;
        if (j2 == j0 && k2 == k0) continue;
        candidates.push_back(rotation_angle(j0, k0, j2, k2));
      }
    } else {
      candidates.push_back(rotation_angle(j0, k0, total, 0));  // merge down
      candidates.push_back(rotation_angle(j0, k0, 0, total));  // merge up
      candidates.push_back(rotation_angle(j0, k0, k0, j0));    // mirror
      int extra = 0;
      for (std::size_t r = first; r < end; ++r) {
        if (extra >= 8) break;
        const RestGroup& g = group_at(r);
        if (g.j == j0 && g.k == k0) continue;
        const std::uint64_t s = g.j + g.k;
        candidates.push_back(rotation_angle(g.j, g.k, s, 0));
        candidates.push_back(rotation_angle(g.j, g.k, 0, s));
        ++extra;
      }
    }
    std::sort(candidates.begin(), candidates.end());
    double last_theta = 1e9;
    for (const double theta : candidates) {
      if (std::abs(theta) < kAngleEpsilon) continue;
      if (std::abs(theta - last_theta) < kAngleEpsilon) continue;
      last_theta = theta;
      const double co = std::cos(theta / 2);
      const double si = std::sin(theta / 2);
      bool ok = true;
      for (std::size_t r = first; r < end && ok; ++r) {
        std::uint64_t jj = 0, kk = 0;
        ok = rotate_counts(group_at(r).j, group_at(r).k, co, si, &jj, &kk);
      }
      if (!ok) continue;

      Move mv;
      mv.kind = MoveKind::kRotation;
      mv.target = target;
      mv.theta = theta;
      mv.controls.reserve(static_cast<std::size_t>(num_controls));
      for (int b = 0; b < num_controls; ++b) {
        mv.controls.push_back(
            ControlLiteral{subset[static_cast<std::size_t>(b)],
                           ((pattern >> b) & 1u) != 0});
      }
      mv.cost = cost;
      out.push_back(std::move(mv));
    }
  }
}

void enumerate_subsets(int num_qubits, int target, int max_controls,
                       std::vector<int>& current, int next, std::uint64_t m,
                       const MoveGenOptions& options, RotationScratch& scratch,
                       std::vector<Move>& out) {
  enumerate_rotations_for(m, target, current, options, scratch, out);
  if (static_cast<int>(current.size()) >= max_controls) return;
  for (int q = next; q < num_qubits; ++q) {
    if (q == target) continue;
    current.push_back(q);
    enumerate_subsets(num_qubits, target, max_controls, current, q + 1, m,
                      options, scratch, out);
    current.pop_back();
  }
}

}  // namespace

Gate Move::to_gate() const {
  switch (kind) {
    case MoveKind::kX:
      return Gate::x(target);
    case MoveKind::kCNOT:
      return Gate::cnot(control, target, control_positive);
    case MoveKind::kRotation:
      return Gate::mcry(controls, target, theta);
  }
  QSP_ASSERT_MSG(false, "unreachable move kind");
  return Gate::x(0);
}

std::string Move::to_string() const {
  std::ostringstream os;
  os << to_gate().to_string() << " [cost " << cost << ']';
  return os.str();
}

std::vector<Move> enumerate_moves(const SlotState& state,
                                  const MoveGenOptions& options) {
  const int n = state.num_qubits();
  const int max_controls =
      options.max_controls < 0 ? n - 1 : options.max_controls;
  std::vector<Move> out;
  // CNOT arcs alone number up to 2n(n - 1); rotation arcs typically add
  // as many again.
  out.reserve(static_cast<std::size_t>(8 * n * n));

  // A CNOT control literal is an identity unless some entry satisfies it:
  // bit c is 1 somewhere iff it is set in the OR of all indices, and 0
  // somewhere iff it is clear in their AND.
  BasisIndex any_one = 0;
  BasisIndex all_one = ~BasisIndex{0};
  for (const SlotEntry& e : state.entries()) {
    any_one |= e.index;
    all_one &= e.index;
  }

  RotationScratch scratch;
  std::vector<int> subset;
  for (int t = 0; t < n; ++t) {
    if (options.include_zero_cost) {
      Move mv;
      mv.kind = MoveKind::kX;
      mv.target = t;
      mv.cost = 0;
      out.push_back(mv);
    }
    for (int c = 0; c < n; ++c) {
      if (c == t) continue;
      for (const bool positive : {true, false}) {
        if (positive ? get_bit(any_one, c) == 0 : get_bit(all_one, c) != 0) {
          continue;
        }
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
    build_rest_groups(state.entries(), BasisIndex{1} << t, scratch.groups);
    enumerate_subsets(n, t, max_controls, subset, 0, state.total(), options,
                      scratch, out);
  }
  return out;
}

SlotState apply_move(const SlotState& state, const Move& move) {
  switch (move.kind) {
    case MoveKind::kX:
      return state.with_x(move.target);
    case MoveKind::kCNOT:
      return state.with_cnot(move.control, move.control_positive,
                             move.target);
    case MoveKind::kRotation:
      break;
  }

  for (const ControlLiteral& c : move.controls) {
    QSP_ASSERT_MSG(c.qubit != move.target, "apply_move: control on target");
  }
  const BasisIndex tbit = BasisIndex{1} << move.target;
  const double co = std::cos(move.theta / 2);
  const double si = std::sin(move.theta / 2);
  const std::vector<SlotEntry>& entries = state.entries();
  const auto satisfies = [&move](BasisIndex index) {
    for (const ControlLiteral& c : move.controls) {
      if (get_bit(index, c.qubit) != (c.positive ? 1 : 0)) return false;
    }
    return true;
  };
  const auto count_at = [&entries](BasisIndex index) -> std::uint64_t {
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), index,
        [](const SlotEntry& e, BasisIndex i) { return e.index < i; });
    return it != entries.end() && it->index == index ? it->count : 0;
  };

  // Each satisfied rest-group {r, r | tbit} is rotated once, when the scan
  // reaches its first entry. The controls exclude the target, so both
  // members of a group satisfy them alike. The constructor sorts `next`.
  std::vector<SlotEntry> next;
  next.reserve(entries.size() + 4);
  for (const SlotEntry& e : entries) {
    if (!satisfies(e.index)) {
      next.push_back(e);
      continue;
    }
    const BasisIndex rest = e.index & ~tbit;
    std::uint64_t j = e.count;
    std::uint64_t k = 0;
    if ((e.index & tbit) == 0) {
      k = count_at(e.index | tbit);
    } else if (count_at(rest) != 0) {
      continue;  // rotated with its t = 0 member
    } else {
      std::swap(j, k);
    }
    std::uint64_t jj = 0, kk = 0;
    const bool ok = rotate_counts(j, k, co, si, &jj, &kk);
    QSP_ASSERT_MSG(ok, "apply_move: invalid rotation arc");
    if (jj > 0) next.push_back(SlotEntry{rest, static_cast<std::uint32_t>(jj)});
    if (kk > 0) {
      next.push_back(SlotEntry{rest | tbit, static_cast<std::uint32_t>(kk)});
    }
  }
  return SlotState(state.num_qubits(), std::move(next));
}

}  // namespace qsp
