#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>

#include "util/assert.hpp"

namespace qsp {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zeros from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: bound == 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % bound;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % bound;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) { return next_double() < p; }

std::vector<std::uint64_t> Rng::sample_distinct(std::uint64_t pool,
                                                std::size_t k) {
  if (k > pool) {
    throw std::invalid_argument("Rng::sample_distinct: k exceeds pool");
  }
  // Floyd's algorithm: uniform over all k-subsets. Its draws depend only on
  // the membership answers, so every exact set gives the same sample. A
  // pool of at most 4 words per sampled value is a bitmap, which needs no
  // node per value and reads out sorted; larger pools use a hash set.
  std::vector<std::uint64_t> out;
  out.reserve(k);
  if (pool / 256 <= k) {
    std::vector<std::uint64_t> bits((pool + 63) / 64, 0);
    const auto insert = [&bits](std::uint64_t x) {
      std::uint64_t& word = bits[x >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (x & 63);
      const bool fresh = (word & bit) == 0;
      word |= bit;
      return fresh;
    };
    for (std::uint64_t j = pool - k; j < pool; ++j) {
      if (!insert(next_below(j + 1))) insert(j);
    }
    for (std::size_t w = 0; w < bits.size(); ++w) {
      for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
        out.push_back(w * 64 + static_cast<unsigned>(std::countr_zero(b)));
      }
    }
  } else {
    std::unordered_set<std::uint64_t> chosen;
    chosen.reserve(k * 2);
    for (std::uint64_t j = pool - k; j < pool; ++j) {
      const std::uint64_t t = next_below(j + 1);
      if (!chosen.insert(t).second) chosen.insert(j);
    }
    out.assign(chosen.begin(), chosen.end());
    std::sort(out.begin(), out.end());
  }
  QSP_ASSERT(out.size() == k);
  return out;
}

}  // namespace qsp
