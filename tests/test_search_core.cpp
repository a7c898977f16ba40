// Tests for the search substrate: NodeArena reference stability and
// allocation accounting, and the flat 4-ary OpenQueue's pop order checked
// differentially against a std::priority_queue reference using the same
// lexicographic (f, h, id, g_at_push) order; owner_shard's spread of
// canonical classes over shards.

#include "core/search_core.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

SearchNode make_node(int n, BasisIndex index, std::int64_t g) {
  return SearchNode{SlotState::from_indices(n, {index, 0}), g, 0,
                    SearchNode::kNoParent, Move{}};
}

TEST(NodeArena, ReferencesStableAcrossGrowth) {
  NodeArena arena;
  const std::int64_t first = arena.append(make_node(4, 1, 0));
  SearchNode* before = &arena.node(first);
  // Push well past several block boundaries.
  for (int i = 0; i < 5000; ++i) {
    arena.append(make_node(4, static_cast<BasisIndex>(i & 15), i));
  }
  EXPECT_EQ(before, &arena.node(first));
  EXPECT_EQ(arena.size(), 5001u);
  EXPECT_EQ(arena.blocks(),
            (5001 + NodeArena::kBlockNodes - 1) / NodeArena::kBlockNodes);
  // Ids map back to the nodes that were appended.
  EXPECT_EQ(arena.node(first).g, 0);
  EXPECT_EQ(arena.node(4000).g, 3999);
}

TEST(NodeArena, BytesPeakTracksBlocksAndPayload) {
  NodeArena arena;
  EXPECT_EQ(arena.bytes_peak(), 0u);
  arena.append(make_node(4, 1, 0));
  const std::uint64_t one_block =
      NodeArena::kBlockNodes * sizeof(SearchNode);
  EXPECT_GE(arena.bytes_peak(), one_block);
  const std::uint64_t after_one = arena.bytes_peak();
  for (int i = 0; i < 600; ++i) {
    arena.append(make_node(4, static_cast<BasisIndex>(i & 15), i));
  }
  EXPECT_EQ(arena.blocks(), 2u);
  EXPECT_GT(arena.bytes_peak(), after_one);
  // replace_state swaps payload accounting rather than leaking it: growing
  // a node's entry list must not shrink the recorded peak.
  const std::uint64_t before_replace = arena.bytes_peak();
  SearchNode& node = arena.node(0);
  arena.replace_state(node, SlotState::from_indices(4, {0, 1, 2, 3, 4, 5}));
  EXPECT_GE(arena.bytes_peak(), before_replace);
}

TEST(OpenQueue, MatchesPriorityQueueReference) {
  using Key = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t>;
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    OpenQueue open;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ref;
    std::vector<std::int64_t> g_now;
    const int pushes = 300;
    for (int i = 0; i < pushes; ++i) {
      const std::int64_t f = static_cast<std::int64_t>(rng.next_below(40));
      const std::int64_t h = static_cast<std::int64_t>(rng.next_below(10));
      const std::int64_t id = static_cast<std::int64_t>(g_now.size());
      const std::int64_t g = f - h;
      g_now.push_back(g);
      open.push(f, h, id, g);
      ref.emplace(f, h, id, g);
      // Occasionally decrease an existing record's g and re-push, leaving
      // the old entry stale — pop_best must skip exactly those.
      if (rng.next_bool(0.3) && !g_now.empty()) {
        const auto victim =
            static_cast<std::size_t>(rng.next_below(g_now.size()));
        const std::int64_t g2 = g_now[victim] - 1;
        const std::int64_t h2 = static_cast<std::int64_t>(rng.next_below(10));
        g_now[victim] = g2;
        open.push(g2 + h2, h2, static_cast<std::int64_t>(victim), g2);
        ref.emplace(g2 + h2, h2, static_cast<std::int64_t>(victim), g2);
      }
    }
    std::uint64_t stale = 0;
    const auto g_of = [&](std::int64_t id) {
      return g_now[static_cast<std::size_t>(id)];
    };
    while (true) {
      const auto mine = open.pop_best(g_of, stale);
      // Reference: drain in order, applying the same staleness rule.
      std::optional<Key> expect;
      while (!ref.empty()) {
        const Key top = ref.top();
        ref.pop();
        if (g_now[static_cast<std::size_t>(std::get<2>(top))] ==
            std::get<3>(top)) {
          expect = top;
          break;
        }
      }
      ASSERT_EQ(mine.has_value(), expect.has_value());
      if (!mine.has_value()) break;
      EXPECT_EQ(mine->f, std::get<0>(*expect));
      EXPECT_EQ(mine->h, std::get<1>(*expect));
      EXPECT_EQ(mine->id, std::get<2>(*expect));
      EXPECT_EQ(mine->g_at_push, std::get<3>(*expect));
      // Mark popped so duplicate pushes of the same record become stale in
      // both queues.
      g_now[static_cast<std::size_t>(mine->id)] = -1000;
    }
    EXPECT_GT(stale, 0u);
  }
}

TEST(OpenQueue, MinFAndPeakSize) {
  OpenQueue open;
  EXPECT_TRUE(open.empty());
  open.push(7, 3, 0, 4);
  open.push(2, 1, 1, 1);
  open.push(5, 0, 2, 5);
  EXPECT_EQ(open.min_f(), 2);
  EXPECT_EQ(open.peak_size(), 3u);
  std::uint64_t stale = 0;
  std::vector<std::int64_t> g = {4, 1, 5};
  const auto g_of = [&](std::int64_t id) {
    return g[static_cast<std::size_t>(id)];
  };
  const auto top = open.pop_best(g_of, stale);
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->id, 1);
  EXPECT_EQ(open.min_f(), 5);
  EXPECT_EQ(open.peak_size(), 3u);
}

TEST(OwnerShard, SpreadsClassesOverPowerOfTwoShardCounts) {
  // About 3.7 k distinct U(2) canonical keys of the children of random
  // 4-qubit uniform states, as an HDA* search on a restricted coupling
  // generates them. Their slot counts are mostly equal, so the low bits
  // of their raw FNV-1a hashes are too: unmixed, one of 4 shards owned
  // 15% of them and another 35%.
  Rng rng(4);
  std::set<CanonicalKey> keys;
  const MoveGenOptions moves =
      search_move_gen_options(-1, 4096, nullptr, CanonicalLevel::kU2);
  for (int i = 0; i < 270; ++i) {
    const SlotState s =
        *SlotState::from_state(make_random_uniform(4, 3 + i % 6, rng));
    for (const Move& mv : enumerate_moves(s, moves)) {
      keys.insert(
          canonical_key(apply_move(s, mv), CanonicalLevel::kU2));
    }
  }
  ASSERT_GE(keys.size(), 3500u);
  for (const int shards : {2, 4}) {
    std::vector<std::size_t> owned(static_cast<std::size_t>(shards), 0);
    for (const CanonicalKey& key : keys) {
      const int owner = owner_shard(key, shards);
      ASSERT_GE(owner, 0);
      ASSERT_LT(owner, shards);
      ++owned[static_cast<std::size_t>(owner)];
    }
    for (int s = 0; s < shards; ++s) {
      EXPECT_GE(owned[static_cast<std::size_t>(s)] * 5, keys.size())
          << "shard " << s << " of " << shards << " owns "
          << owned[static_cast<std::size_t>(s)] << " of " << keys.size();
    }
  }
  EXPECT_EQ(owner_shard(*keys.begin(), 1), 0);
}

}  // namespace
}  // namespace qsp
