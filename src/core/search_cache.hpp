#pragma once
// Cross-request equivalence-cache hook for the exact-search family. The
// searchers (HDA* and beam) stay cache-agnostic: they talk
// to this abstract interface through a ScopedCacheProbe, and the concrete
// sharded LRU cache lives in src/service/equivalence_cache.hpp. Keys are
// the canonical form of the searched subproblem plus a fingerprint of
// everything else that determines the certified optimum: register width,
// the coupling graph's routed-cost surface, the cost-model id, and the
// rotation-control budget. Only *certified-optimal* results are ever
// stored, which is what makes a hit sound under differing search options:
// the optimal CNOT cost of an equivalence class on a given device is a
// fact about the class, not about the search that discovered it.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/astar.hpp"
#include "core/canonical.hpp"
#include "core/slot_state.hpp"

namespace qsp {

/// Everything besides the target's equivalence class that a cached result
/// depends on. `level` is the cache's own canonicalization policy for this
/// device (permutation-aware only where relabeling is free), independent
/// of the requesting search's canonical level.
struct CacheFingerprint {
  /// Cost-model id + register width + coupling fingerprint + control
  /// budget, pre-rendered so shards can hash/compare cheaply.
  std::string id;
  CanonicalLevel level = CanonicalLevel::kPU2Exact;
};

/// Fingerprint for a search over `num_qubits` wires on `coupling`
/// (nullptr = all-to-all Table-I costs). `max_controls` must be the
/// searcher's rotation-control budget: a restricted arc set can certify a
/// restricted optimum only, so it is part of the key.
CacheFingerprint make_cache_fingerprint(int num_qubits,
                                        const CouplingGraph* coupling,
                                        int max_controls);

/// Abstract equivalence cache consulted by every searcher. Thread-safe.
class SearchCache {
 public:
  /// What begin() resolved to. kHit carries a result; kOwner obliges the
  /// caller to call end() exactly once (ScopedCacheProbe enforces this);
  /// kIndependent means another owner ran and did not publish an optimal
  /// result (or the wait timed out) — proceed with a private search.
  enum class Claim : std::uint8_t { kHit, kOwner, kIndependent };

  struct Lookup {
    Claim claim = Claim::kIndependent;
    std::optional<SynthesisResult> result;  ///< set iff claim == kHit
  };

  virtual ~SearchCache() = default;

  /// Consult the cache for `target`, whose canonical witness at fp.level
  /// the caller has already computed (ScopedCacheProbe computes it once
  /// and reuses it for end()). May block up to `max_wait_seconds` (0 =
  /// no limit) while another thread's search of the same class is in
  /// flight — the in-flight deduplication that lets N concurrent
  /// requests for one class pay for one search. With `consult_only` the
  /// call never claims ownership and never blocks: it answers from the
  /// table or returns kIndependent — the mode for searchers that cannot
  /// certify (the beam), so they never make certifying searchers queue
  /// behind them.
  virtual Lookup begin(const SlotState& target,
                       const CanonicalWitness& witness,
                       const CacheFingerprint& fp, double max_wait_seconds,
                       bool consult_only) = 0;

  /// Owner hand-back: publish `result` (stored only when it carries the
  /// optimality certificate) or abandon with nullptr; either way the
  /// in-flight marker is cleared and waiters wake.
  virtual void end(const SlotState& target, const CanonicalWitness& witness,
                   const CacheFingerprint& fp,
                   const SynthesisResult* result) = 0;
};

/// RAII pairing of begin/end around one search: computes the target's
/// canonical witness once, shares it between lookup and publish. Probes
/// with a null cache are inert, so searchers can construct one
/// unconditionally.
class ScopedCacheProbe {
 public:
  ScopedCacheProbe(SearchCache* cache, const SlotState& target,
                   const CouplingGraph* coupling, int max_controls,
                   double max_wait_seconds, bool consult_only = false);
  ~ScopedCacheProbe();

  ScopedCacheProbe(const ScopedCacheProbe&) = delete;
  ScopedCacheProbe& operator=(const ScopedCacheProbe&) = delete;

  /// True when the cache answered; result() is the cached synthesis.
  bool hit() const { return lookup_.claim == SearchCache::Claim::kHit; }
  const SynthesisResult& result() const { return *lookup_.result; }

  /// Publish the search outcome (owner) — no-op on hit/independent
  /// claims. Without a publish, the destructor abandons the claim.
  void publish(const SynthesisResult& result);

 private:
  SearchCache* cache_ = nullptr;
  const SlotState* target_ = nullptr;
  CacheFingerprint fingerprint_;
  CanonicalWitness witness_;
  SearchCache::Lookup lookup_;
  bool open_ = false;  ///< owner claim not yet ended
};

}  // namespace qsp
