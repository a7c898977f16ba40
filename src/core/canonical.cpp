#include "core/canonical.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "core/moves.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/combinatorics.hpp"

namespace qsp {
namespace {

constexpr std::uint64_t kPackedCountMask = 0x00000000FFFFFFFFull;

std::uint64_t pack(BasisIndex index, std::uint32_t count) {
  return (static_cast<std::uint64_t>(index) << 32) | count;
}

/// Entries packed as (index << 32 | count) in entry order: the kNone key,
/// and the base vector of the greedy translation scan (util/bitops
/// wideops).
void pack_entries(const std::vector<SlotEntry>& entries, CanonicalKey& out) {
  out.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out[i] = pack(entries[i].index, entries[i].count);
  }
}

// ---------------------------------------------------------------------------
// The exact scan (kU2, and kPU2Exact at n <= 8).
//
// A sorted key of m entries compares exactly like its slot sequence
// v[0..2^n), where v[i] is the count at index i or kNoEntry (above every
// count) when i is not in the support: the first differing key entry is
// either an index present in one key and absent from the other (the key
// holding it is smaller, and so is its slot) or one index with two counts.
// So every candidate (translation x, permutation p) is read slot by slot as
// v[j] = dense[x ^ inv_p(j)], compared against the running best, and
// dropped at its first larger slot; only the winner is ever packed.
// docs/ARCHITECTURE.md (canonicalization) has the proof and the tie-break
// argument.
// ---------------------------------------------------------------------------

constexpr int kMaxScanQubits = 8;
/// Widest register whose permutations keep precomputed inverse maps
/// (n! * 2^n bytes: 46 KB at n = 6; n = 8 would take 10 MB).
constexpr int kMaxTabledQubits = 6;
constexpr std::size_t kMaxScanSlots = std::size_t{1} << kMaxScanQubits;
constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;

/// The qubit permutations of n <= 8 wires in util::permutations order
/// (the order the scan's tie break depends on).
struct PermTable {
  std::size_t count = 0;
  /// count x n: bit dest[k*n + q] of the permuted index is bit q of the
  /// original (SlotState::with_permutation's convention).
  std::vector<std::uint8_t> dest;
  /// n <= kMaxTabledQubits only, count x 2^n: inverse[(k << n) | j] is the
  /// original index that permutation k moves to j.
  std::vector<std::uint8_t> inverse;
};

PermTable build_perm_table(int n) {
  PermTable table;
  const auto perms = permutations(n);
  const auto nn = static_cast<std::size_t>(n);
  const std::size_t slots = std::size_t{1} << n;
  table.count = perms.size();
  table.dest.reserve(table.count * nn);
  for (const auto& perm : perms) {
    for (const int b : perm) {
      table.dest.push_back(static_cast<std::uint8_t>(b));
    }
  }
  if (n <= kMaxTabledQubits) {
    table.inverse.resize(table.count * slots);
    for (std::size_t k = 0; k < table.count; ++k) {
      for (std::size_t j = 0; j < slots; ++j) {
        std::size_t i = 0;
        for (std::size_t q = 0; q < nn; ++q) {
          i |= ((j >> perms[k][q]) & 1u) << q;
        }
        table.inverse[k * slots + j] = static_cast<std::uint8_t>(i);
      }
    }
  }
  return table;
}

/// Built once per register width, on first use.
const PermTable& perm_table(int n) {
  static std::array<std::once_flag, kMaxScanQubits + 1> once;
  static std::array<PermTable, kMaxScanQubits + 1> tables;
  const auto i = static_cast<std::size_t>(n);
  std::call_once(once[i], [&] { tables[i] = build_perm_table(n); });
  return tables[i];
}

/// Inverse maps j -> inv_p(j) for the three scan shapes. select(k) picks
/// permutation k; operator() must then be called with j = 0, 1, 2, ...
/// restarting from 0 only after another select.
struct IdentityMap {
  void select(std::size_t) {}
  std::size_t operator()(std::size_t j) const { return j; }
};

struct TabledMap {
  const std::uint8_t* inverse;
  int n;
  const std::uint8_t* row = nullptr;
  void select(std::size_t k) { row = inverse + (k << n); }
  std::size_t operator()(std::size_t j) const { return row[j]; }
};

/// n = 7, 8: inv_p is linear over XOR, so inv_p(j) = inv_p(j without its
/// lowest bit) | inv_p(lowest bit), filled as the scan reaches each slot.
struct IncrementalMap {
  const std::uint8_t* dest;
  int n;
  std::array<std::uint8_t, kMaxScanQubits> basis{};
  std::array<std::uint8_t, kMaxScanSlots> map{};
  std::size_t filled = 1;
  void select(std::size_t k) {
    const std::uint8_t* row = dest + k * static_cast<std::size_t>(n);
    for (int q = 0; q < n; ++q) {
      basis[row[q]] = static_cast<std::uint8_t>(1u << q);
    }
    filled = 1;  // map[0] stays 0
  }
  std::size_t operator()(std::size_t j) {
    if (j == filled) {
      const auto low = static_cast<std::size_t>(std::countr_zero(j));
      map[j] = map[j & (j - 1)] | basis[low];
      ++filled;
    }
    return map[j];
  }
};

/// The winner of a scan: X-translation and permutation index.
struct ScanWinner {
  BasisIndex translation = 0;
  std::size_t perm = 0;
};

/// Scan every candidate (x, k) — x over support entries in entry order,
/// skipping entries without the minimum count, k in map order — keeping
/// the first strict minimum. Packs the winner into `key`.
template <class InvMap>
ScanWinner slot_scan(const std::vector<SlotEntry>& entries,
                     std::size_t num_perms, InvMap map, CanonicalKey& key) {
  const std::size_t m = entries.size();
  std::array<std::uint32_t, kMaxScanSlots> dense;
  std::array<std::uint32_t, kMaxScanSlots> best;
  dense.fill(kNoEntry);
  // An all-kNoEntry best loses to any candidate at slot 0.
  best.fill(kNoEntry);
  std::uint32_t min_count = kNoEntry;
  for (const SlotEntry& e : entries) {
    QSP_ASSERT_MSG(e.count < kNoEntry, "slot count reaches the sentinel");
    dense[e.index] = e.count;
    min_count = std::min(min_count, e.count);
  }
  ScanWinner winner;
  for (const SlotEntry& e : entries) {
    // Slot 0 of every candidate translated by x is dense[x].
    if (e.count != min_count) continue;
    const BasisIndex x = e.index;
    for (std::size_t k = 0; k < num_perms; ++k) {
      map.select(k);
      std::size_t seen = 0;  // support slots matched so far
      for (std::size_t j = 0;; ++j) {
        const std::uint32_t c = dense[x ^ map(j)];
        if (c == best[j]) {
          // Equal through the m-th support slot: a tie, the earlier wins.
          if (c != kNoEntry && ++seen == m) break;
          continue;
        }
        if (c > best[j]) break;
        // New best from slot j on (c < best[j], so c is a count).
        winner = ScanWinner{x, k};
        best[j] = c;
        for (++seen; seen < m;) {
          const std::uint32_t v = dense[x ^ map(++j)];
          best[j] = v;
          if (v != kNoEntry) ++seen;
        }
        break;
      }
    }
  }
  key.clear();
  key.reserve(m);
  for (std::size_t j = 0; key.size() < m; ++j) {
    if (best[j] != kNoEntry) {
      key.push_back(pack(static_cast<BasisIndex>(j), best[j]));
    }
  }
  return winner;
}

/// Reused buffers for greedy_perm_form: the orbit loop calls it once per
/// support index, and before hoisting every call allocated five vectors
/// per *step* inside it.
struct GreedyScratch {
  CanonicalKey work;        ///< pack(prefix, count), aligned with packed
  CanonicalKey shifted;     ///< work with prefix << 1
  CanonicalKey vals;        ///< shifted | extracted column q (entry order)
  CanonicalKey vals_sorted; ///< sorted copy compared across q
  CanonicalKey best_vals;
  CanonicalKey best_vals_sorted;
  std::vector<char> used;
};

/// Greedy deterministic qubit ordering: repeatedly pick the unused qubit
/// that lexicographically minimizes the sorted partial (prefix, count)
/// vector. Sound for deduplication (the result lies in the orbit) though
/// not guaranteed orbit-minimal; used when n is too large for exact
/// permutation search. When `argmin` is non-null it receives the implied
/// permutation (the qubit picked at step s lands at bit n-1-s).
///
/// Bit-sliced: prefixes live in the high half of packed words, so the
/// per-candidate partial key is one shl1_high32 (shared per step) plus
/// one or_bit_from_high32 column extraction per qubit.
void greedy_perm_form(const CanonicalKey& packed, int n, GreedyScratch& gs,
                      CanonicalKey& out,
                      std::vector<int>* argmin = nullptr) {
  const std::size_t m = packed.size();
  gs.work.resize(m);
  for (std::size_t i = 0; i < m; ++i) gs.work[i] = packed[i] & kPackedCountMask;
  gs.used.assign(static_cast<std::size_t>(n), 0);
  if (argmin != nullptr) argmin->assign(static_cast<std::size_t>(n), 0);
  for (int step = 0; step < n; ++step) {
    gs.shifted.resize(m);
    wideops::shl1_high32(gs.shifted.data(), gs.work.data(), m);
    int best_q = -1;
    for (int q = 0; q < n; ++q) {
      if (gs.used[static_cast<std::size_t>(q)] != 0) continue;
      gs.vals.resize(m);
      wideops::or_bit_from_high32(gs.vals.data(), gs.shifted.data(),
                                  packed.data(), m, q);
      gs.vals_sorted.assign(gs.vals.begin(), gs.vals.end());
      std::sort(gs.vals_sorted.begin(), gs.vals_sorted.end());
      if (best_q < 0 || gs.vals_sorted < gs.best_vals_sorted) {
        best_q = q;
        gs.best_vals_sorted.swap(gs.vals_sorted);
        gs.best_vals.swap(gs.vals);  // keep the entry-order form too
      }
    }
    gs.used[static_cast<std::size_t>(best_q)] = 1;
    if (argmin != nullptr) {
      (*argmin)[static_cast<std::size_t>(best_q)] = n - 1 - step;
    }
    // The winner's entry-order column extraction IS the next prefix
    // vector — no per-entry recomputation.
    gs.work.swap(gs.best_vals);
  }
  out.assign(gs.work.begin(), gs.work.end());
  std::sort(out.begin(), out.end());
}

/// The canonical form of a compressed state at a level other than kNone,
/// written into `key` — the one scan behind canonical_key and
/// canonical_witness, so the two agree bit for bit. When `witness` is
/// non-null (its permutation preset to the identity) it receives the
/// winning translation and permutation.
void canonical_form(const SlotState& compressed, CanonicalLevel level,
                    CanonicalKey& key, CanonicalWitness* witness) {
  const int n = compressed.num_qubits();
  const std::vector<SlotEntry>& entries = compressed.entries();
  if (level != CanonicalLevel::kPU2Greedy && n <= kMaxScanQubits) {
    if (level == CanonicalLevel::kU2) {
      const ScanWinner win = slot_scan(entries, 1, IdentityMap{}, key);
      if (witness != nullptr) witness->translation = win.translation;
      return;
    }
    const PermTable& table = perm_table(n);
    const ScanWinner win =
        n <= kMaxTabledQubits
            ? slot_scan(entries, table.count,
                        TabledMap{table.inverse.data(), n}, key)
            : slot_scan(entries, table.count,
                        IncrementalMap{table.dest.data(), n}, key);
    if (witness != nullptr) {
      witness->translation = win.translation;
      const auto nn = static_cast<std::size_t>(n);
      const std::uint8_t* dest = table.dest.data() + win.perm * nn;
      witness->permutation.assign(dest, dest + nn);
    }
    return;
  }
  // kPU2Greedy, and registers too wide for the exact scan: every support
  // translation, then the greedy qubit ordering (none at kU2). Lex-minimal
  // translated forms start with index 0, so it suffices to try
  // translations by each support index.
  const bool greedy = level != CanonicalLevel::kU2;
  CanonicalKey base;
  pack_entries(entries, base);
  CanonicalKey t;
  CanonicalKey candidate;
  GreedyScratch gs;
  std::vector<int> perm;
  key.clear();
  for (const SlotEntry& e : entries) {
    t.resize(base.size());
    wideops::copy_xor_high32(t.data(), base.data(), base.size(), e.index);
    std::sort(t.begin(), t.end());
    if (greedy) {
      greedy_perm_form(t, n, gs, candidate,
                       witness != nullptr ? &perm : nullptr);
    } else {
      candidate.swap(t);
    }
    if (key.empty() || candidate < key) {
      key.swap(candidate);
      if (witness != nullptr) {
        witness->translation = e.index;
        if (greedy) witness->permutation = perm;
      }
    }
  }
}

/// Ry angle realizing the free merge of separable qubit q on the
/// statevector: rotates the qubit's product factor (sqrt(j), sqrt(k)) onto
/// (sqrt(j+k), 0), exactly the bit clear compress_free performs. A
/// separable non-constant qubit has j > 0 and k > 0 in every rest-group
/// (a zero on one side of any group breaks the common-ratio test), so any
/// group determines the angle. To stay bitwise stable we always use the
/// minimal-rest group, and by separability its bit-clear member is the
/// first entry: rest_min <= every (index & ~bit) <= every index, and
/// rest_min is itself an entry index (j > 0), so rest_min ==
/// entries[0].index. The bit-set member (rest_min | bit) then resolves
/// with one binary search — no per-call rest-group map.
double merge_angle(const SlotState& state, int q) {
  const BasisIndex bit = BasisIndex{1} << q;
  const std::vector<SlotEntry>& entries = state.entries();
  QSP_ASSERT(!entries.empty());
  const SlotEntry& clear_side = entries.front();
  QSP_ASSERT((clear_side.index & bit) == 0 &&
             "merge_angle: qubit is constant-1 or state not separable");
  const BasisIndex set_index = clear_side.index | bit;
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), set_index,
      [](const SlotEntry& e, BasisIndex x) { return e.index < x; });
  QSP_ASSERT(it != entries.end() && it->index == set_index &&
             "merge_angle: qubit is constant, not mergeable");
  const std::uint64_t j = clear_side.count;
  const std::uint64_t k = it->count;
  return -2.0 * std::atan2(std::sqrt(static_cast<double>(k)),
                           std::sqrt(static_cast<double>(j)));
}

}  // namespace

std::size_t CanonicalKeyHash::operator()(const CanonicalKey& key) const {
  std::size_t h = 1469598103934665603ull;
  for (const std::uint64_t x : key) {
    h ^= x;
    h *= 1099511628211ull;
  }
  return h;
}

SlotState compress_free(const SlotState& state,
                        std::vector<Gate>* merge_gates) {
  SlotState cur = state;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int q = 0; q < cur.num_qubits(); ++q) {
      if (cur.qubit_constant(q)) continue;
      if (!cur.qubit_separable(q)) continue;
      if (merge_gates != nullptr) {
        merge_gates->push_back(Gate::ry(q, merge_angle(cur, q)));
      }
      // Zero-cost merge: clear bit q in every entry (duplicates merge in
      // the constructor).
      std::vector<SlotEntry> entries = cur.entries();
      const BasisIndex bit = BasisIndex{1} << q;
      for (SlotEntry& e : entries) e.index &= ~bit;
      cur = SlotState(cur.num_qubits(), std::move(entries));
      changed = true;
    }
  }
  return cur;
}

CanonicalKey canonical_key(const SlotState& state, CanonicalLevel level) {
  CanonicalKey key;
  if (level == CanonicalLevel::kNone) {
    pack_entries(state.entries(), key);
  } else {
    canonical_form(compress_free(state), level, key, nullptr);
  }
  return key;
}

CanonicalWitness canonical_witness(const SlotState& state,
                                   CanonicalLevel level) {
  CanonicalWitness w;
  w.permutation.resize(static_cast<std::size_t>(state.num_qubits()));
  std::iota(w.permutation.begin(), w.permutation.end(), 0);
  if (level == CanonicalLevel::kNone) {
    pack_entries(state.entries(), w.key);
  } else {
    canonical_form(compress_free(state, &w.merge_gates), level, w.key, &w);
  }
  return w;
}

bool free_reducible(const SlotState& state, CanonicalLevel level) {
  if (level == CanonicalLevel::kNone) return state.is_ground();
  const SlotState compressed = compress_free(state);
  // After compression every separable qubit is constant; reducible iff all
  // qubits are constant (constant-1 clears with a free X).
  for (int q = 0; q < compressed.num_qubits(); ++q) {
    if (!compressed.qubit_constant(q)) return false;
  }
  return true;
}

std::vector<Gate> free_peel_gates(SlotState& state) {
  std::vector<Gate> gates;
  bool progress = true;
  while (!state.is_ground() && progress) {
    progress = false;
    for (int q = 0; q < state.num_qubits(); ++q) {
      int value = 0;
      if (state.qubit_constant(q, &value)) {
        if (value == 1) {
          gates.push_back(Gate::x(q));
          state = state.with_x(q);
          progress = true;
        }
        continue;
      }
      if (!state.qubit_separable(q)) continue;
      // Same minimal-rest-group angle compress_free records (merge_angle
      // used to be duplicated inline here).
      const double theta = merge_angle(state, q);
      QSP_ASSERT(theta != 0.0);
      Move mv;
      mv.kind = MoveKind::kRotation;
      mv.target = q;
      mv.theta = theta;
      state = apply_move(state, mv);
      gates.push_back(Gate::ry(q, theta));
      progress = true;
    }
  }
  return gates;
}

std::vector<Gate> free_disentangle_gates(const SlotState& state,
                                         SlotState* reached) {
  SlotState cur = state;
  std::vector<Gate> gates = free_peel_gates(cur);
  if (!cur.is_ground()) {
    throw std::invalid_argument(
        "free_disentangle_gates: state is not fully separable");
  }
  if (reached != nullptr) *reached = cur;
  return gates;
}

}  // namespace qsp
