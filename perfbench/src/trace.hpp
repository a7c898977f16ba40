#pragma once
// Tracing for the per-layer run. Spans are recorded only here, around
// calls into the library's public surface:
//   * RecordingCache is a SearchCache passed through
//     WorkflowOptions::cache. Every exact-tail kernel search opens with
//     begin() and, as the recorder grants ownership on every miss, closes
//     with end(), so it times each search in place (A* and beam alike) and
//     captures its SearchStats. Ownership changes nothing but that end()
//     call, so the search sequence is unchanged. Without an inner cache it
//     stores nothing; with one (the service's) it forwards, and hands an
//     end() on only where the inner cache granted ownership itself.
//   * replay_request re-runs the workflow's public stage functions on one
//     request's input (m-flow, n-flow, selection, routing, certification,
//     pass pipeline), serving the recorded search outcomes from a
//     ReplayCache so no search runs twice, and times each stage.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/search_cache.hpp"
#include "corpus.hpp"
#include "flow/solver.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One kernel-search probe as seen through the cache interface.
struct SearchEvent {
  /// Owner-capable probe (A*/HDA*); false for the consult-only beam.
  bool certifying = false;
  /// What the inner cache answered (kIndependent without one).
  qsp::SearchCache::Claim claim = qsp::SearchCache::Claim::kIndependent;
  Clock::time_point begin;
  /// When the lookup (including any in-flight wait) returned.
  Clock::time_point lookup_done;
  /// Set by end() when the search returns; hits have no end.
  std::optional<Clock::time_point> end;
  /// Cached result (hits) or the published search result (A* runs).
  std::optional<qsp::SynthesisResult> result;
  /// The searched subproblem and the cache's canonical level for it, kept
  /// to time canonical_key off the request path.
  std::optional<qsp::SlotState> target;
  qsp::CanonicalLevel level = qsp::CanonicalLevel::kPU2Exact;
  bool repeat_miss = false;
};

/// Canonical classes already looked up in one run, shared by every
/// request's recorder so misses on a known class can be counted.
class ClassLog {
 public:
  /// Records the class; true when it had been seen before.
  bool seen_before(const std::string& key);

 private:
  std::mutex mutex_;
  std::set<std::string> seen_;
};

class RecordingCache final : public qsp::SearchCache {
 public:
  RecordingCache(std::shared_ptr<qsp::SearchCache> inner, ClassLog* classes);

  Lookup begin(const qsp::SlotState& target, const qsp::CanonicalWitness& witness,
               const qsp::CacheFingerprint& fp, double max_wait_seconds,
               bool consult_only) override;
  void end(const qsp::SlotState& target, const qsp::CanonicalWitness& witness,
           const qsp::CacheFingerprint& fp, const qsp::SynthesisResult* result) override;

  /// Events since the last take, in call order.
  std::vector<SearchEvent> take();

 private:
  std::shared_ptr<qsp::SearchCache> inner_;
  ClassLog* classes_;
  std::mutex mutex_;
  std::vector<SearchEvent> events_;
};

/// Per-request layer accounting from the recorded probes.
struct SearchSummary {
  int searches = 0;  ///< probes (A* and beam)
  int hits = 0;
  int repeat_misses = 0;
  int certified = 0;  ///< probes answered with an optimal result
  int astar_reported = 0;  ///< kernel runs whose SearchStats came back
  int astar_exhausted = 0;
  double astar_s = 0.0;
  double astar_stats_s = 0.0;  ///< SearchStats::seconds of the runs
  double beam_s = 0.0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_generated = 0;
};

/// A hit's span is its lookup; a search's span runs from begin() to end().
SearchSummary summarize(const std::vector<SearchEvent>& events);

/// Mean microseconds per canonical_key call over the recorded search
/// roots, `reps` calls each; 0 with no roots.
double canonical_key_us(const std::vector<SearchEvent>& events, int reps);

struct StageTimes {
  double mflow_s = 0.0;
  int mflow_steps = 0;
  double nflow_s = 0.0;
  double tail_s = 0.0;  ///< exact-tail assembly with the searches served
  double select_s = 0.0;
  double route_s = 0.0;
  double certify_s = 0.0;
  double pipeline_s = 0.0;
  bool routed = false;
  std::int64_t cnots_before_route = 0;
  std::int64_t cnots_after_route = 0;
  std::int64_t final_cnots = -1;
  /// The replay asked for a search outcome the recording does not hold
  /// (e.g. a beam circuit), so its circuit may differ from prepare's.
  bool diverged = false;

  double attributed_s() const {
    return mflow_s + nflow_s + tail_s + select_s + route_s + certify_s + pipeline_s;
  }
};

/// Replays Solver::prepare's stage sequence for `request` under `options`
/// (its cache replaced by the recorded outcomes in `events`).
StageTimes replay_request(const Request& request, const qsp::WorkflowOptions& options,
                          const std::vector<SearchEvent>& events);

}  // namespace perfbench
