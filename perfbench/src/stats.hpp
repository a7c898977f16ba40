#pragma once
// The benchmark's own arithmetic: order statistics, the tail-percentile
// rule, failure and cache-rate ratios, and the FNV-1a output checksum.
// Kept free of library types other than the cache-stats snapshot so the
// tests can pin every formula the reported numbers rest on.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "service/equivalence_cache.hpp"

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least pct% of the
/// samples at or below it. pct in (0, 100]; 0 if empty.
double percentile(std::vector<double> values, double pct);

/// Samples strictly beyond the nearest-rank pct-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// A tail latency with the percentile and sample count that back it.
struct Tail {
  double pct = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  /// True when at least ten samples lie beyond `pct`. When the workload's
  /// fixed percentile cannot meet the rule, the maximum is reported
  /// instead (pct = 100, rule_met = false).
  bool rule_met = false;
};

Tail tail_latency(const std::vector<double>& values, double pct,
                  std::size_t min_beyond = 10);

/// failed / attempted; 0 when nothing was attempted.
double failed_frac(std::uint64_t failed, std::uint64_t attempted);

/// Difference between two cache_stats() snapshots of one cache.
struct CacheDelta {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t inflight_waits = 0;
  /// hits / lookups over the interval; 0 when there were no lookups.
  double hit_rate = 0.0;
};

CacheDelta cache_delta(const qsp::EquivalenceCacheStats& before,
                       const qsp::EquivalenceCacheStats& after);

/// 64-bit FNV-1a.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ull);

}  // namespace perfbench
