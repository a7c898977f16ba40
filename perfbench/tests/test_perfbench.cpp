// Tests of the benchmark's own arithmetic, of its seeded corpora and of
// the recording cache's span accounting.
// Self-contained (no test framework): prints each failed check and exits
// non-zero if any failed. Run with `ctest` in the benchmark's build tree.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/search_cache.hpp"
#include "core/slot_state.hpp"
#include "corpus.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median_and_percentile() {
  using perfbench::median;
  using perfbench::percentile;
  check(near(median({}), 0.0), "median of nothing is 0");
  check(near(median({3.0}), 3.0), "median of one");
  check(near(median({5.0, 1.0, 3.0}), 3.0), "odd median");
  check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median averages the middle pair");
  check(near(percentile(one_to(100), 50), 50.0), "p50 of 1..100 (nearest rank)");
  check(near(percentile(one_to(100), 90), 90.0), "p90 of 1..100");
  check(near(percentile(one_to(100), 99), 99.0), "p99 of 1..100");
  check(near(percentile(one_to(100), 100), 100.0), "p100 is the maximum");
  check(near(percentile(one_to(10), 95), 10.0), "p95 of ten samples is the maximum");
  check(near(percentile(one_to(7), 1), 1.0), "low percentiles clamp to the minimum");
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_latency;
  check(samples_beyond(100, 90) == 10, "ten beyond p90 of 100");
  check(samples_beyond(1000, 99) == 10, "ten beyond p99 of 1000");
  check(samples_beyond(99, 90) == 9, "nine beyond p90 of 99");
  check(samples_beyond(0, 50) == 0, "nothing beyond in an empty run");
  check(samples_beyond(20, 50) == 10, "ten beyond the median of 20");
  check(samples_beyond(19, 50) == 9, "nine beyond the median of 19");

  const perfbench::Tail met = tail_latency(one_to(100), 90);
  check(met.rule_met && near(met.pct, 90) && near(met.value, 90) && met.beyond == 10 &&
            met.samples == 100,
        "p90 of 100 samples meets the rule");
  const perfbench::Tail few = tail_latency(one_to(12), 90);
  check(!few.rule_met && near(few.pct, 100) && near(few.value, 12) && few.beyond == 0 &&
            few.samples == 12,
        "too few samples: the maximum is reported and flagged");
  const perfbench::Tail empty = tail_latency({}, 90);
  check(!empty.rule_met && empty.samples == 0 && near(empty.value, 0), "empty run");
}

void test_failed_frac() {
  using perfbench::failed_frac;
  check(near(failed_frac(0, 0), 0.0), "nothing attempted: 0, not NaN");
  check(near(failed_frac(0, 40), 0.0), "no failures");
  check(near(failed_frac(3, 40), 0.075), "base is requests attempted");
  check(near(failed_frac(40, 40), 1.0), "all failed");
}

void test_cache_delta() {
  qsp::EquivalenceCacheStats before;
  before.lookups = 12;
  before.hits = 2;
  before.insertions = 4;
  before.inflight_waits = 1;
  qsp::EquivalenceCacheStats after = before;
  after.lookups = 32;
  after.hits = 17;
  after.insertions = 6;
  after.inflight_waits = 3;
  const perfbench::CacheDelta d = perfbench::cache_delta(before, after);
  check(d.lookups == 20 && d.hits == 15 && d.insertions == 2 &&
            d.inflight_waits == 2,
        "counter deltas");
  check(near(d.hit_rate, 0.75), "hit rate of the interval, not of the lifetime");
  const perfbench::CacheDelta idle = perfbench::cache_delta(after, after);
  check(idle.lookups == 0 && near(idle.hit_rate, 0.0), "no lookups: rate 0");
}

void test_fnv1a() {
  // Published FNV-1a 64 test vectors.
  check(perfbench::fnv1a64("") == 0xcbf29ce484222325ull, "fnv1a64 of empty");
  check(perfbench::fnv1a64("a") == 0xaf63dc4c8601ec8cull, "fnv1a64 of 'a'");
  check(perfbench::fnv1a64("foobar") == 0x85944171f73967e8ull, "fnv1a64 of 'foobar'");
}

void test_seeded_corpora() {
  for (const std::string& name : perfbench::workload_names()) {
    const auto a = perfbench::make_workload(name, perfbench::kDefaultSeed);
    const auto b = perfbench::make_workload(name, perfbench::kDefaultSeed);
    const auto c = perfbench::make_workload(name, perfbench::kHeldOutSeed);
    check(!a.requests.empty(), name + ": non-empty corpus");
    check(perfbench::corpus_checksum(a) == perfbench::corpus_checksum(b),
          name + ": same seed, identical corpus checksum");
    check(perfbench::corpus_checksum(a) != perfbench::corpus_checksum(c),
          name + ": held-out seed gives a different corpus");
    check(perfbench::corpus_shape(a) == perfbench::corpus_shape(c),
          name + ": held-out seed keeps family, n, m and device of every request");
  }
  bool threw = false;
  try {
    perfbench::make_workload("no_such_workload", 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "unknown workload is rejected");
}

/// Inner cache that gives every probe one fixed answer and counts end().
class FixedCache final : public qsp::SearchCache {
 public:
  explicit FixedCache(Claim claim) : claim_(claim) {}
  Lookup begin(const qsp::SlotState&, const qsp::CanonicalWitness&, const qsp::CacheFingerprint&,
               double, bool) override {
    Lookup lookup;
    lookup.claim = claim_;
    if (claim_ == Claim::kHit) lookup.result = qsp::SynthesisResult{};
    return lookup;
  }
  void end(const qsp::SlotState&, const qsp::CanonicalWitness&, const qsp::CacheFingerprint&,
           const qsp::SynthesisResult*) override {
    ++ends;
  }
  int ends = 0;

 private:
  Claim claim_;
};

void test_recording_spans() {
  using Claim = qsp::SearchCache::Claim;
  const qsp::SlotState target = qsp::SlotState::ground(3, 4);
  // Uncached: the consult-only (beam) probe and the certifying (A*) probe
  // are both owned, so each span closes when the searcher's probe does.
  perfbench::RecordingCache solo(nullptr, nullptr);
  {
    const qsp::ScopedCacheProbe beam(&solo, target, nullptr, 2, 0.0, /*consult_only=*/true);
    check(!beam.hit(), "uncached beam probe misses");
  }
  {
    qsp::ScopedCacheProbe astar(&solo, target, nullptr, 2, 0.0);
    qsp::SynthesisResult result;
    result.found = true;
    result.stats.nodes_generated = 7;
    astar.publish(result);
  }
  const std::vector<perfbench::SearchEvent> events = solo.take();
  check(events.size() == 2 && !events[0].certifying && events[1].certifying,
        "one beam and one A* probe recorded");
  check(events.size() == 2 && events[0].end.has_value() && events[1].end.has_value(),
        "both spans closed by end()");
  const perfbench::SearchSummary s = perfbench::summarize(events);
  check(s.searches == 2 && s.astar_reported == 1 && s.nodes_generated == 7,
        "A* statistics come back through end()");

  // Service: end() reaches the inner cache only where it granted ownership.
  const auto probe = [&](Claim inner_claim, bool consult_only) {
    const auto inner = std::make_shared<FixedCache>(inner_claim);
    perfbench::RecordingCache recorder(inner, nullptr);
    {
      const qsp::ScopedCacheProbe p(&recorder, target, nullptr, 2, 0.0, consult_only);
    }
    const std::vector<perfbench::SearchEvent> e = recorder.take();
    const bool closed = e.size() == 1 && e[0].end.has_value();
    return std::make_pair(closed, inner->ends);
  };
  check(probe(Claim::kIndependent, true) == std::make_pair(true, 0),
        "service beam span closes; end() not forwarded");
  check(probe(Claim::kIndependent, false) == std::make_pair(true, 0),
        "private A* span closes; end() not forwarded");
  check(probe(Claim::kOwner, false) == std::make_pair(true, 1), "owner's end() is forwarded");
  check(probe(Claim::kHit, false) == std::make_pair(false, 0), "a hit has no span to close");
}

}  // namespace

int main() {
  test_median_and_percentile();
  test_tail_rule();
  test_failed_frac();
  test_cache_delta();
  test_fnv1a();
  test_seeded_corpora();
  test_recording_spans();
  if (failures == 0) std::cout << "perfbench_tests: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
