#include "service/equivalence_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "arch/routing.hpp"
#include "core/astar.hpp"
#include "core/beam.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

SlotState random_slot(Rng& rng, int n, int m) {
  return *SlotState::from_state(make_random_uniform(n, m, rng));
}

TEST(EquivalenceCache, ExactHitIsBitIdenticalToColdPath) {
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  const AStarSynthesizer synth(options);
  const SlotState target = *SlotState::from_state(make_dicke(4, 2));

  const SynthesisResult cold = synth.synthesize(target);
  ASSERT_TRUE(cold.found);
  ASSERT_TRUE(cold.optimal);
  const SynthesisResult warm = synth.synthesize(target);
  ASSERT_TRUE(warm.found);
  EXPECT_TRUE(warm.optimal);
  EXPECT_EQ(warm.cnot_cost, cold.cnot_cost);
  EXPECT_EQ(warm.circuit, cold.circuit);  // gate list, bit for bit

  const EquivalenceCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.rewired_hits, 0u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EquivalenceCache, RewiredHitServesSameClassVariants) {
  // A permuted + translated member of a cached class must hit without a
  // search, at the same certified cost, with a circuit that verifies.
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  const AStarSynthesizer synth(options);
  Rng rng(71);
  for (int trial = 0; trial < 6; ++trial) {
    const SlotState base = random_slot(rng, 4, 3 + trial % 4);
    const SynthesisResult cold = synth.synthesize(base);
    ASSERT_TRUE(cold.found);
    if (!cold.optimal) continue;  // uncertified results are not cached

    std::vector<int> perm{1, 3, 0, 2};
    const BasisIndex mask = static_cast<BasisIndex>(rng.next_below(16));
    const SlotState variant =
        base.with_permutation(perm).with_translation(mask);
    const std::uint64_t rewired_before = cache->stats().rewired_hits;
    const SynthesisResult warm = synth.synthesize(variant);
    ASSERT_TRUE(warm.found);
    EXPECT_TRUE(warm.optimal);
    EXPECT_EQ(warm.cnot_cost, cold.cnot_cost);
    if (variant == base) continue;  // symmetric state: exact hit instead
    EXPECT_EQ(cache->stats().rewired_hits, rewired_before + 1);
    verify_preparation_or_throw(warm.circuit, variant.to_state());
  }
}

TEST(EquivalenceCache, BeamConsultsAStarPopulatedEntries) {
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions astar_options;
  astar_options.cache = cache;
  const SlotState target = *SlotState::from_state(make_w(4));
  const SynthesisResult cold = AStarSynthesizer(astar_options).synthesize(target);
  ASSERT_TRUE(cold.optimal);

  BeamOptions beam_options;
  beam_options.cache = cache;
  const SynthesisResult beam = BeamSynthesizer(beam_options).synthesize(target);
  ASSERT_TRUE(beam.found);
  // The beam alone never certifies; through the cache it returns the
  // certified template.
  EXPECT_TRUE(beam.optimal);
  EXPECT_EQ(beam.circuit, cold.circuit);
  EXPECT_GE(cache->stats().exact_hits, 1u);

  // The beam must not populate: a fresh class searched by beam only stays
  // uncached.
  const SlotState other = *SlotState::from_state(make_ghz(4));
  const std::uint64_t insertions = cache->stats().insertions;
  const SynthesisResult beam_only =
      BeamSynthesizer(beam_options).synthesize(other);
  ASSERT_TRUE(beam_only.found);
  EXPECT_FALSE(beam_only.optimal);
  EXPECT_EQ(cache->stats().insertions, insertions);
}

TEST(EquivalenceCache, HdaStarSharesTheCache) {
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  options.num_threads = 2;  // dispatches to the sharded kernel
  const AStarSynthesizer synth(options);
  const SlotState target = *SlotState::from_state(make_dicke(4, 2));
  const SynthesisResult cold = synth.synthesize(target);
  ASSERT_TRUE(cold.optimal);
  const SynthesisResult warm = synth.synthesize(target);
  EXPECT_EQ(warm.circuit, cold.circuit);
  EXPECT_EQ(cache->stats().exact_hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);
}

TEST(EquivalenceCache, DistinctCouplingsDoNotShareEntries) {
  auto cache = std::make_shared<EquivalenceCache>();
  const SlotState target = *SlotState::from_state(make_w(4));

  SearchOptions line_options;
  line_options.cache = cache;
  line_options.coupling =
      std::make_shared<const CouplingGraph>(CouplingGraph::line(4));
  const SynthesisResult on_line =
      AStarSynthesizer(line_options).synthesize(target);
  ASSERT_TRUE(on_line.optimal);

  SearchOptions star_options;
  star_options.cache = cache;
  star_options.coupling =
      std::make_shared<const CouplingGraph>(CouplingGraph::star(4));
  const SynthesisResult on_star =
      AStarSynthesizer(star_options).synthesize(target);
  ASSERT_TRUE(on_star.optimal);

  // Two different routed-cost surfaces: two misses, no cross-topology
  // hits, and each repeat hits its own entry.
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().hits, 0u);
  const SynthesisResult line_again =
      AStarSynthesizer(line_options).synthesize(target);
  EXPECT_EQ(line_again.circuit, on_line.circuit);
  EXPECT_EQ(cache->stats().exact_hits, 1u);
}

TEST(EquivalenceCache, CoupledRewiringKeepsTranslationOnly) {
  // On a restricted device the cache canonicalizes at U(2): an
  // X-translated variant shares the class (X layers are free 1-qubit
  // gates everywhere), a permuted variant must NOT (relabeling wires is
  // not free on a line).
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  options.coupling =
      std::make_shared<const CouplingGraph>(CouplingGraph::line(4));
  const AStarSynthesizer synth(options);
  Rng rng(17);
  const SlotState base = random_slot(rng, 4, 5);
  const SynthesisResult cold = synth.synthesize(base);
  ASSERT_TRUE(cold.optimal);

  const SlotState translated = base.with_translation(0b1010);
  const SynthesisResult warm = synth.synthesize(translated);
  ASSERT_TRUE(warm.found);
  EXPECT_TRUE(warm.optimal);
  EXPECT_EQ(warm.cnot_cost, cold.cnot_cost);
  EXPECT_GE(cache->stats().rewired_hits + cache->stats().exact_hits, 1u);
  verify_preparation_or_throw(warm.circuit, translated.to_state());
  // The rewired template stays device-conformant after routing.
  EXPECT_TRUE(respects_coupling(route_circuit(warm.circuit, *options.coupling),
                                *options.coupling));

  const SlotState permuted = base.with_permutation({2, 0, 3, 1});
  const std::uint64_t misses_before = cache->stats().misses;
  const SynthesisResult independent = synth.synthesize(permuted);
  ASSERT_TRUE(independent.found);
  if (permuted != base) {
    EXPECT_EQ(cache->stats().misses, misses_before + 1);
  }
  verify_preparation_or_throw(independent.circuit, permuted.to_state());
}

TEST(EquivalenceCache, LruEvictionHonorsEntryBound) {
  EquivalenceCacheOptions cache_options;
  cache_options.num_shards = 1;
  cache_options.max_entries = 2;
  auto cache = std::make_shared<EquivalenceCache>(cache_options);
  SearchOptions options;
  options.cache = cache;
  const AStarSynthesizer synth(options);

  Rng rng(29);
  std::vector<SlotState> targets;
  for (int i = 0; i < 5; ++i) targets.push_back(random_slot(rng, 4, 3 + i));
  for (const SlotState& t : targets) {
    const SynthesisResult r = synth.synthesize(t);
    ASSERT_TRUE(r.found);
  }
  const EquivalenceCacheStats stats = cache->stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.entries + stats.evictions, stats.insertions);

  // Evicted classes are re-searched and re-inserted correctly.
  const SynthesisResult again = synth.synthesize(targets.front());
  ASSERT_TRUE(again.found);
  verify_preparation_or_throw(again.circuit, targets.front().to_state());
}

TEST(EquivalenceCache, ConcurrentMixedBatchesStayBitIdentical) {
  // The satellite stress test: N threads re-running mixed batches against
  // one shared cache must observe bit-identical circuits cold-vs-warm and
  // coherent counters. Runs under the TSan CI job.
  Rng rng(31);
  std::vector<SlotState> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(random_slot(rng, 4, 3 + i));
  batch.push_back(*SlotState::from_state(make_dicke(4, 2)));
  batch.push_back(*SlotState::from_state(make_w(4)));

  // Cold reference results: no cache, one shard (deterministic).
  std::vector<SynthesisResult> reference;
  for (const SlotState& t : batch) {
    reference.push_back(AStarSynthesizer().synthesize(t));
    ASSERT_TRUE(reference.back().optimal);
  }

  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AStarSynthesizer synth(options);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const SynthesisResult r = synth.synthesize(batch[i]);
          if (!r.found || !r.optimal ||
              r.cnot_cost != reference[i].cnot_cost ||
              r.circuit != reference[i].circuit) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  const EquivalenceCacheStats stats = cache->stats();
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kRounds * batch.size();
  EXPECT_EQ(stats.lookups, total);
  EXPECT_EQ(stats.hits + stats.misses, total);
  EXPECT_EQ(stats.exact_hits + stats.rewired_hits, stats.hits);
  // One search per class in the best case; owners that lost a data race
  // to a concurrent independent publish stay bounded by the thread count.
  EXPECT_GE(stats.hits, total - static_cast<std::uint64_t>(kThreads) *
                                    batch.size());
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.entries, batch.size());
}

TEST(EquivalenceCache, InFlightDeduplicationRunsOneSearch) {
  // Concurrent requests for one class: exactly one owner searches, every
  // other thread blocks on the in-flight marker and then hits.
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  const SlotState target = *SlotState::from_state(make_dicke(4, 2));
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const SynthesisResult r = AStarSynthesizer(options).synthesize(target);
      if (!r.found || !r.optimal) ++failures[static_cast<std::size_t>(t)];
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);

  const EquivalenceCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads));
  // The owner search completes and publishes an optimal circuit, so no
  // waiter ever re-searches: one miss, everyone else hits.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads) - 1);
}

}  // namespace
}  // namespace qsp
