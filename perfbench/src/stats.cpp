#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// 1-based nearest rank of the pct-percentile among n samples.
std::size_t nearest_rank(std::size_t n, double pct) {
  // The epsilon keeps exact products such as 0.9 * 100 from rounding up.
  const double raw = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(raw, 1.0)),
                                 1, n);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), pct) - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  return n - nearest_rank(n, pct);
}

Tail tail_latency(const std::vector<double>& values, double pct,
                  std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  tail.rule_met = samples_beyond(values.size(), pct) >= min_beyond;
  tail.pct = tail.rule_met ? pct : 100.0;
  tail.value = percentile(values, tail.pct);
  tail.beyond = samples_beyond(values.size(), tail.pct);
  return tail;
}

double failed_frac(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

CacheDelta cache_delta(const qsp::EquivalenceCacheStats& before,
                       const qsp::EquivalenceCacheStats& after) {
  CacheDelta d;
  d.lookups = after.lookups - before.lookups;
  d.hits = after.hits - before.hits;
  d.insertions = after.insertions - before.insertions;
  d.inflight_waits = after.inflight_waits - before.inflight_waits;
  d.hit_rate = d.lookups == 0 ? 0.0
                              : static_cast<double>(d.hits) /
                                    static_cast<double>(d.lookups);
  return d;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace perfbench
