#include "prep/mflow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "circuit/cost_model.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

constexpr double kZeroAmplitude = 1e-12;

struct TermEntry {
  BasisIndex index;
  double amplitude;
};

class Engine {
 public:
  Engine(const QuantumState& target, const MFlowOptions& options)
      : n_(target.num_qubits()),
        options_(options),
        deadline_(options.time_budget_seconds) {
    terms_.reserve(target.terms().size());
    for (const Term& t : target.terms()) {
      terms_.push_back(TermEntry{t.index, t.amplitude});
    }
    sort_terms();
  }

  bool expired() const { return deadline_.expired(); }
  std::size_t cardinality() const { return terms_.size(); }
  const std::vector<Gate>& gates() const { return gates_; }

  QuantumState current_state() const {
    std::vector<Term> terms;
    terms.reserve(terms_.size());
    for (const TermEntry& t : terms_) terms.push_back(Term{t.index, t.amplitude});
    return QuantumState(n_, std::move(terms));
  }

  /// One merge iteration: pick a pair/orientation/pivot, unify, isolate,
  /// rotate.
  void merge_step() {
    QSP_ASSERT(terms_.size() > 1);
    build_columns();
    const MergePlan plan = select_plan();
    const BasisIndex x1 = terms_[plan.keep_pos].index;
    const BasisIndex x2 = terms_[plan.drop_pos].index;

    // Isolate the pair from the rest of the support as it stands after
    // the unifying CNOTs below (simulated on the columns).
    simulate_unify(plan);
    greedy_controls(plan, x1, controls_);

    // Unify: make the pair differ in exactly one qubit (the pivot).
    BasisIndex dif = flip_bit(x1 ^ x2, plan.pivot);
    const int want = get_bit(x2, plan.pivot);
    while (dif != 0) {
      const int q = std::countr_zero(dif);
      dif = flip_bit(dif, q);
      for (TermEntry& t : terms_) {
        if (get_bit(t.index, plan.pivot) == want) {
          t.index = flip_bit(t.index, q);
        }
      }
      gates_.push_back(Gate::cnot(plan.pivot, q, want == 1));
    }
    sort_terms();
    apply_merge(x1, flip_bit(x1, plan.pivot), plan.pivot, controls_);
  }

  /// Map the final single index to |0...0> with free X gates.
  void finish() {
    QSP_ASSERT(terms_.size() == 1);
    BasisIndex x = terms_[0].index;
    while (x != 0) {
      const int q = std::countr_zero(x);
      x = flip_bit(x, q);
      gates_.push_back(Gate::x(q));
    }
    terms_[0].index = 0;
    // A leftover amplitude of -1 is an unobservable global sign.
  }

 private:
  /// A merge of the pair at support positions keep_pos/drop_pos, unified
  /// onto keep's index and rotated about `pivot`.
  struct MergePlan {
    std::size_t keep_pos = 0;
    std::size_t drop_pos = 0;
    int pivot = 0;
  };

  void sort_terms() {
    std::sort(terms_.begin(), terms_.end(),
              [](const TermEntry& a, const TermEntry& b) {
                return a.index < b.index;
              });
  }

  /// Support position of index `x`, or terms_.size() if absent.
  std::size_t find(BasisIndex x) const {
    const auto it = std::lower_bound(
        terms_.begin(), terms_.end(), x,
        [](const TermEntry& t, BasisIndex v) { return t.index < v; });
    if (it != terms_.end() && it->index == x) {
      return static_cast<std::size_t>(it - terms_.begin());
    }
    return terms_.size();
  }

  double amplitude_of(BasisIndex x) const {
    const std::size_t i = find(x);
    return i < terms_.size() ? terms_[i].amplitude : 0.0;
  }

  // --- Bit-sliced support ------------------------------------------------
  // Column q holds bit q of every support index, one bit per entry (entry
  // i is bit i % 64 of word i / 64). Bits past the support are don't-care:
  // the candidate mask of greedy_controls never has them set. cols_ holds
  // the support; sim_ holds it as the plan under evaluation leaves it.

  void build_columns() {
    words_ = (terms_.size() + 63) / 64;
    const std::size_t size = static_cast<std::size_t>(n_) * words_;
    cols_.assign(size, 0);
    sim_.resize(size);
    cand_.resize(words_);
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      for (BasisIndex x = terms_[i].index; x != 0; x &= x - 1) {
        cols_[column_offset(std::countr_zero(x)) + i / 64] |= bit;
      }
    }
  }

  std::size_t column_offset(int q) const {
    return static_cast<std::size_t>(q) * words_;
  }

  /// The qubits the plan's unifying CNOTs target.
  BasisIndex unify_targets(const MergePlan& plan) const {
    return flip_bit(terms_[plan.keep_pos].index ^ terms_[plan.drop_pos].index,
                    plan.pivot);
  }

  /// Fill sim_ with the support after the plan's unifying CNOTs: each
  /// fires on the entries whose pivot bit equals drop's, so a target
  /// column is XORed with the pivot column (or its complement).
  void simulate_unify(const MergePlan& plan) {
    std::copy(cols_.begin(), cols_.end(), sim_.begin());
    const std::uint64_t flip =
        get_bit(terms_[plan.drop_pos].index, plan.pivot) == 1 ? 0 : ~0ull;
    const std::uint64_t* pivot_col = &cols_[column_offset(plan.pivot)];
    for (BasisIndex d = unify_targets(plan); d != 0; d &= d - 1) {
      const std::size_t off = column_offset(std::countr_zero(d));
      for (std::size_t w = 0; w < words_; ++w) {
        sim_[off + w] ^= pivot_col[w] ^ flip;
      }
    }
  }

  /// Greedy minimal control set distinguishing the (unified) pair from the
  /// rest of the simulated support: repeatedly take the first qubit whose
  /// literal eliminates strictly the most remaining candidates. Returns
  /// false, with the set unfinished, when it would need more than
  /// `max_controls` literals.
  bool greedy_controls(const MergePlan& plan, BasisIndex x1,
                       std::vector<ControlLiteral>& controls,
                       int max_controls = kMaxQubits) {
    controls.clear();
    std::size_t remaining = terms_.size() - 2;
    for (std::size_t w = 0; w < words_; ++w) cand_[w] = ~0ull;
    if (terms_.size() % 64 != 0) {
      cand_[words_ - 1] = (std::uint64_t{1} << (terms_.size() % 64)) - 1;
    }
    for (const std::size_t pos : {plan.keep_pos, plan.drop_pos}) {
      cand_[pos / 64] &= ~(std::uint64_t{1} << (pos % 64));
    }
    BasisIndex used = BasisIndex{1} << plan.pivot;
    while (remaining != 0) {
      if (static_cast<int>(controls.size()) >= max_controls) return false;
      int best_q = -1;
      std::size_t best_elim = 0;
      for (int q = 0; q < n_; ++q) {
        if (get_bit(used, q) != 0) continue;
        // A candidate is eliminated where its bit differs from x1's.
        const std::uint64_t* col = &sim_[column_offset(q)];
        const std::uint64_t flip = get_bit(x1, q) == 1 ? ~0ull : 0;
        std::size_t elim = 0;
        for (std::size_t w = 0; w < words_; ++w) {
          elim += static_cast<std::size_t>(
              std::popcount(cand_[w] & (col[w] ^ flip)));
        }
        if (elim > best_elim) {
          best_elim = elim;
          best_q = q;
        }
      }
      // Progress is guaranteed: a candidate matching x1 on every qubit but
      // the pivot would be x1 or x2, which are excluded.
      QSP_ASSERT(best_q >= 0);
      used = flip_bit(used, best_q);
      controls.push_back(ControlLiteral{best_q, get_bit(x1, best_q) == 1});
      const std::uint64_t* col = &sim_[column_offset(best_q)];
      const std::uint64_t flip = get_bit(x1, best_q) == 1 ? 0 : ~0ull;
      for (std::size_t w = 0; w < words_; ++w) cand_[w] &= col[w] ^ flip;
      remaining -= best_elim;
    }
    return true;
  }

  /// Rotate the isolated pair so all mass lands on x1; removes x2.
  void apply_merge(BasisIndex x1, BasisIndex x2, int pivot,
                   const std::vector<ControlLiteral>& controls) {
    const double a1 = amplitude_of(x1);
    const double a2 = amplitude_of(x2);
    QSP_ASSERT(std::abs(a2) > kZeroAmplitude);
    const bool x1_high = get_bit(x1, pivot) == 1;
    const double u0 = x1_high ? a2 : a1;
    const double u1 = x1_high ? a1 : a2;
    // Ry(theta) sends (u0, u1) to (h, 0) or (0, h) with h > 0, landing the
    // merged amplitude on x1's side of the pivot.
    const double theta = x1_high ? 2.0 * std::atan2(u0, u1)
                                 : -2.0 * std::atan2(u1, u0);
    gates_.push_back(Gate::mcry(controls, pivot, theta));

    // Apply the rotation to every control-satisfying pair (only x1/x2 by
    // construction, but the general update keeps the engine robust). A
    // pair is visited once: from its low member, or from its high member
    // when the low one is absent.
    const double co = std::cos(theta / 2);
    const double si = std::sin(theta / 2);
    const BasisIndex pbit = BasisIndex{1} << pivot;
    next_.clear();
    for (const TermEntry& t : terms_) {
      bool satisfied = true;
      for (const ControlLiteral& c : controls) {
        if (get_bit(t.index, c.qubit) != (c.positive ? 1 : 0)) {
          satisfied = false;
          break;
        }
      }
      if (!satisfied) {
        next_.push_back(t);
        continue;
      }
      const BasisIndex rest = t.index & ~pbit;
      const bool high = rest != t.index;
      if (high && find(rest) < terms_.size()) continue;
      const double v0 = high ? 0.0 : t.amplitude;
      const double v1 = high ? t.amplitude : amplitude_of(rest | pbit);
      const double w0 = co * v0 - si * v1;
      const double w1 = si * v0 + co * v1;
      if (std::abs(w0) > kZeroAmplitude) {
        next_.push_back(TermEntry{rest, w0});
      }
      if (std::abs(w1) > kZeroAmplitude) {
        next_.push_back(TermEntry{rest | pbit, w1});
      }
    }
    terms_.swap(next_);
    sort_terms();
  }

  MergePlan default_plan(std::size_t i, std::size_t j) const {
    // Positions follow index order, so the lower position keeps.
    return MergePlan{std::min(i, j), std::max(i, j),
                     std::countr_zero(terms_[i].index ^ terms_[j].index)};
  }

  MergePlan select_plan() {
    if (options_.strategy == MFlowOptions::PairStrategy::kPrefixAdjacent) {
      // Deepest shared prefix == smallest XOR among sorted neighbours.
      BasisIndex best_xor = ~BasisIndex{0};
      std::size_t best_i = 0;
      for (std::size_t i = 0; i + 1 < terms_.size(); ++i) {
        const BasisIndex x = terms_[i].index ^ terms_[i + 1].index;
        if (x < best_xor) {
          best_xor = x;
          best_i = i;
        }
      }
      return default_plan(best_i, best_i + 1);
    }

    // Collect minimum-Hamming-distance candidate pairs (support
    // positions). Distance-1 pairs are found in O(m n log m) by lookups on
    // the sorted support; otherwise fall back to a scan.
    std::vector<std::pair<std::size_t, std::size_t>>& candidates =
        candidates_;
    candidates.clear();
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      for (int q = 0; q < n_; ++q) {
        const BasisIndex y = flip_bit(terms_[i].index, q);
        if (y < terms_[i].index) continue;
        const std::size_t j = find(y);
        if (j < terms_.size()) candidates.emplace_back(i, j);
      }
    }
    if (candidates.empty()) {
      int best = std::numeric_limits<int>::max();
      for (std::size_t i = 0; i < terms_.size(); ++i) {
        for (std::size_t j = i + 1; j < terms_.size(); ++j) {
          const int d = hamming(terms_[i].index, terms_[j].index);
          if (d < best) {
            best = d;
            candidates.clear();
          }
          if (d == best) candidates.emplace_back(i, j);
        }
      }
    }
    QSP_ASSERT(!candidates.empty());
    const auto [i0, j0] = candidates.front();
    if (options_.strategy == MFlowOptions::PairStrategy::kGreedyFirst) {
      return default_plan(i0, j0);
    }
    // Cost-aware selection also considers pairs one above the minimum
    // distance: the extra unifying CNOT is sometimes far cheaper than a
    // large distinguishing control set.
    {
      const int base = hamming(terms_[i0].index, terms_[j0].index);
      const std::size_t cap = candidates.size() + 8;
      for (std::size_t i = 0; i < terms_.size() && candidates.size() < cap;
           ++i) {
        for (std::size_t j = i + 1;
             j < terms_.size() && candidates.size() < cap; ++j) {
          if (hamming(terms_[i].index, terms_[j].index) == base + 1) {
            candidates.emplace_back(i, j);
          }
        }
      }
    }
    // kCheapest: evaluate a bounded number of candidate pairs over every
    // pivot choice; the first strictly cheapest plan wins. Only the
    // keep-a orientation of a pair (a, b) is evaluated: keeping b at the
    // same pivot costs exactly as much. Its unified support is this one's
    // XORed with D = a ^ b ^ e_pivot, and it isolates the pair
    // {b, b ^ e_pivot} = {a ^ D, a ^ e_pivot ^ D}, so every elimination
    // count of the greedy control search is the same. Being evaluated
    // later, it could never be strictly cheaper.
    const std::size_t limit = std::min<std::size_t>(
        candidates.size(),
        static_cast<std::size_t>(std::max(1, options_.cheapest_candidates)));
    MergePlan best_plan = default_plan(i0, j0);
    std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
    for (std::size_t c = 0; c < limit; ++c) {
      const auto [keep, drop] = candidates[c];
      BasisIndex dif = terms_[keep].index ^ terms_[drop].index;
      while (dif != 0) {
        const int pivot = std::countr_zero(dif);
        dif = flip_bit(dif, pivot);
        const MergePlan plan{keep, drop, pivot};
        const std::optional<std::int64_t> cost = plan_cost(plan, best_cost);
        if (cost.has_value() && *cost < best_cost) {
          best_cost = *cost;
          best_plan = plan;
        }
      }
    }
    return best_plan;
  }

  /// Exact cost of executing `plan`: the unifying CNOTs plus the rotation
  /// under its greedy control set, or nullopt once the cost provably
  /// reaches `bound` (rotation_cost grows with the control count).
  std::optional<std::int64_t> plan_cost(const MergePlan& plan,
                                        std::int64_t bound) {
    const std::int64_t dist = popcount(unify_targets(plan));
    // The largest control count that still undercuts the bound.
    int max_controls = -1;
    while (max_controls < n_ &&
           dist + rotation_cost(max_controls + 1) < bound) {
      ++max_controls;
    }
    if (max_controls < 0) return std::nullopt;
    simulate_unify(plan);
    const bool complete = greedy_controls(plan, terms_[plan.keep_pos].index,
                                          plan_controls_, max_controls);
    if (!complete) return std::nullopt;
    return dist + rotation_cost(static_cast<int>(plan_controls_.size()));
  }

  int n_;
  MFlowOptions options_;
  Deadline deadline_;
  std::vector<TermEntry> terms_;
  std::vector<Gate> gates_;
  // Per-step scratch, kept across steps to reuse the allocations.
  std::size_t words_ = 0;
  std::vector<std::uint64_t> cols_;
  std::vector<std::uint64_t> sim_;
  std::vector<std::uint64_t> cand_;
  std::vector<std::pair<std::size_t, std::size_t>> candidates_;
  std::vector<ControlLiteral> controls_;
  std::vector<ControlLiteral> plan_controls_;
  std::vector<TermEntry> next_;
};

}  // namespace

MFlowResult mflow_prepare(const QuantumState& target,
                          const MFlowOptions& options) {
  Engine engine(target, options);
  MFlowResult result;
  while (engine.cardinality() > 1) {
    if (engine.expired()) {
      result.timed_out = true;
      return result;
    }
    engine.merge_step();
  }
  engine.finish();
  Circuit forward(target.num_qubits());
  for (const Gate& g : engine.gates()) forward.append(g);
  result.circuit = forward.adjoint();
  return result;
}

MFlowReduction mflow_reduce(
    const QuantumState& target,
    const std::function<bool(const QuantumState&)>& stop,
    const MFlowOptions& options) {
  Engine engine(target, options);
  MFlowReduction result;
  QuantumState current = engine.current_state();
  while (engine.cardinality() > 1 && !stop(current)) {
    if (engine.expired()) {
      result.timed_out = true;
      break;
    }
    engine.merge_step();
    current = engine.current_state();
  }
  result.forward_gates = engine.gates();
  result.reduced = current;
  return result;
}

}  // namespace qsp
