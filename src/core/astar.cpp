// The exact search is one HDA*-style kernel (Kishimoto et al.): the open
// list is partitioned across SearchOptions::num_threads shards by hashing
// each node's canonical key, so every equivalence class has exactly one
// owning shard and the duplicate-detection table needs no global locking.
// Successors are routed to their owner through mutex-striped mailboxes.
// One shard is plain A* on the calling thread: every successor is owned
// locally, nothing is mailed and no thread is spawned.
//
// The optimality certificate survives sharding: the search only
// terminates when an incumbent goal's g is <= the minimum f over every
// shard's frontier AND no successor message is still in flight (tracked
// with monotonic sent/received counters and a double-read of the idle
// state). With the admissible heuristic, any undiscovered path to a
// cheaper goal would have to pass through a frontier node of smaller f,
// which cannot exist at that point — the A* completion argument
// (termination proof sketch in docs/ARCHITECTURE.md).

#include "core/astar.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/search_cache.hpp"
#include "core/search_core.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// A shard's transposition table over raw child states, consulted before
/// canonicalization. Most children of a search are byte-identical to a
/// child the shard generated before (one state reached along several arc
/// orders). Equal entry words are the same state, hence the same class, so
/// a hit is exact: it gives the class's arena id when this shard owns the
/// class, else the canonical key it was mailed under. The table holds at
/// most kTranspositionTableEntries states in a bounded word pool and is
/// cleared when full; a cleared state only costs the canonicalization a
/// hit would have saved. Owner-thread only.
class RawStateTable {
 public:
  struct Slot {
    std::uint64_t hash = 0;
    /// Arena id when the shard owns the class, else SearchNode::kNoParent
    /// and the canonical key follows the raw words in the pool.
    std::int64_t id = SearchNode::kNoParent;
    std::uint32_t offset = 0;
    std::uint16_t raw_size = 0;  ///< 0 marks an empty slot
    std::uint16_t key_size = 0;
  };

  static std::uint64_t hash_of(const SlotState& state) {
    const std::uint64_t* words = entry_words(state.entries());
    std::uint64_t h = state.entries().size();
    for (std::size_t i = 0; i < state.entries().size(); ++i) {
      h = (h ^ words[i]) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 32;
    }
    return h;
  }

  /// The slot recording `state` (whose hash_of is `hash`), or nullptr.
  const Slot* find(const SlotState& state, std::uint64_t hash) const {
    if (slots_.empty()) return nullptr;
    const std::uint64_t* words = entry_words(state.entries());
    const std::size_t size = state.entries().size();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.raw_size == 0) return nullptr;
      if (slot.hash == hash && slot.raw_size == size &&
          std::equal(words, words + size, words_.data() + slot.offset)) {
        return &slot;
      }
    }
  }

  CanonicalKey key(const Slot& slot) const {
    const std::uint64_t* first = words_.data() + slot.offset + slot.raw_size;
    return CanonicalKey(first, first + slot.key_size);
  }

  /// Record a state find() missed, with its canonical key when another
  /// shard owns the class (`remote_key` non-null). Returns the slot's id
  /// for the caller to set once the owned class has an arena id, or
  /// nullptr when the state is too large to record. Invalidates slots
  /// returned by find().
  std::int64_t* insert(const SlotState& state, std::uint64_t hash,
                       const CanonicalKey* remote_key) {
    const std::size_t raw_size = state.entries().size();
    const std::size_t key_size = remote_key != nullptr ? remote_key->size() : 0;
    if (raw_size > 0xffff || key_size > 0xffff) return nullptr;
    if (used_ == kTranspositionTableEntries ||
        words_.size() + raw_size + key_size > kMaxWords) {
      clear();
    }
    if (2 * (used_ + 1) > slots_.size()) grow();
    Slot& slot = place(hash);
    slot.hash = hash;
    slot.id = SearchNode::kNoParent;
    slot.offset = static_cast<std::uint32_t>(words_.size());
    slot.raw_size = static_cast<std::uint16_t>(raw_size);
    slot.key_size = static_cast<std::uint16_t>(key_size);
    const std::uint64_t* words = entry_words(state.entries());
    words_.insert(words_.end(), words, words + raw_size);
    if (remote_key != nullptr) {
      words_.insert(words_.end(), remote_key->begin(), remote_key->end());
    }
    ++used_;
    return &slot.id;
  }

 private:
  /// Raw and key words the pool may hold: 2 MiB, more than any one
  /// record (at most 2 x 0xffff words).
  static constexpr std::size_t kMaxWords = std::size_t{1} << 18;
  static constexpr std::size_t kInitialSlots = 1024;

  /// The first free slot on `hash`'s probe sequence.
  Slot& place(std::uint64_t hash) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i].raw_size != 0) i = (i + 1) & mask;
    return slots_[i];
  }

  /// Double the slot array (at most 2 * kTranspositionTableEntries, so
  /// the load factor stays at most 1/2) and rehash.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.raw_size != 0) place(slot.hash) = slot;
    }
  }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    words_.clear();
    used_ = 0;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> words_;
  std::size_t used_ = 0;
};

/// A successor routed to the shard owning its canonical key. The owner
/// computes h lazily (only for classes it has never seen).
struct Mail {
  CanonicalKey key;
  SlotState child;
  std::int64_t g2 = 0;
  std::int64_t parent = SearchNode::kNoParent;
  Move via;
};

struct alignas(64) Shard {
  ClassedArena arena;
  OpenQueue open;
  RawStateTable seen;
  Mutex inbox_mutex;
  std::vector<Mail> inbox QSP_GUARDED_BY(inbox_mutex);
  /// f of the shard's best frontier entry, (re)published every time the
  /// worker is about to go idle; kInfiniteCost when the queue is empty.
  std::atomic<std::int64_t> published_min_f{0};
  /// True only while the worker has verified it holds no useful work.
  std::atomic<bool> idle{false};
  // Owner-thread-only counters, harvested after the join.
  std::uint64_t classes_counted = 0;  ///< arena size last added to shared
  std::uint64_t expanded = 0;
  std::uint64_t stale_pops = 0;
  std::uint64_t transposition_hits = 0;
};

struct SharedState {
  std::atomic<std::uint64_t> nodes_generated{0};
  /// Classes stored across shards, for SearchOptions::class_budget. Each
  /// worker adds its own arena's growth after every step.
  std::atomic<std::uint64_t> classes_stored{0};
  /// Monotonic mailbox counters: sent is incremented before a message is
  /// appended, received only after the message's effect (arena relax and
  /// min-f republication) is visible. sent == received therefore proves
  /// no successor is in flight or unprocessed.
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::int64_t> incumbent_g{kInfiniteCost};
  Mutex incumbent_mutex;
  std::int64_t incumbent_gid QSP_GUARDED_BY(incumbent_mutex) =
      SearchNode::kNoParent;
  std::atomic<bool> done{false};
  std::atomic<bool> aborted{false};
};

class HdaStar {
 public:
  HdaStar(const SearchOptions& options, const SlotState& target)
      : options_(options),
        target_(target),
        h_(search_heuristic(
            options.heuristic,
            options.routed_heuristic ? options.coupling.get() : nullptr)),
        level_(effective_canonical_level(options.canonical,
                                         options.coupling.get())),
        move_options_(search_move_gen_options(
            options.max_controls, options.full_candidate_cap,
            options.coupling.get(), level_)),
        budget_(options.time_budget_seconds, options.node_budget,
                options.class_budget),
        num_shards_(resolve_num_threads(options.num_threads)),
        shards_(static_cast<std::size_t>(num_shards_)) {
    // A caller's cost bound is an incumbent without a goal node: nothing
    // with f >= bound is queued or expanded, and the usual termination
    // test certifies that no cheaper goal exists.
    shared_.incumbent_g.store(options.cost_bound);
  }

  SynthesisResult run() {
    const Timer timer;
    SynthesisResult result;

    CanonicalKey root_key = canonical_key(target_, level_);
    Shard& root_home =
        shards_[static_cast<std::size_t>(owner_shard(root_key, num_shards_))];
    const std::int64_t root_h = h_(target_);
    root_home.arena.add_root(std::move(root_key), target_, root_h);
    if (root_h < options_.cost_bound) root_home.open.push(root_h, root_h, 0, 0);

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(num_shards_ - 1));
    for (int s = 1; s < num_shards_; ++s) {
      workers.emplace_back([this, s] { work(s); });
    }
    work(0);  // the calling thread is shard 0
    for (std::thread& w : workers) w.join();

    for (const Shard& shard : shards_) {
      result.stats.nodes_expanded += shard.expanded;
      result.stats.stale_pops += shard.stale_pops;
      result.stats.transposition_hits += shard.transposition_hits;
      result.stats.classes_stored += shard.arena.size();
      result.stats.sum_shard_peak_open_size += shard.open.peak_size();
      result.stats.arena_blocks += shard.arena.arena_blocks();
      result.stats.arena_bytes_peak += shard.arena.arena_bytes_peak();
    }
    result.stats.nodes_generated = shared_.nodes_generated.load();
    result.stats.seconds = timer.seconds();
    // Post-join harvest of the goal id. The join is a happens-before
    // edge, but the read was unguarded until the thread-safety
    // annotations flagged it — take the (now uncontended) lock so the
    // access is provable rather than merely argued.
    std::int64_t goal = SearchNode::kNoParent;
    {
      const MutexLock lock(shared_.incumbent_mutex);
      goal = shared_.incumbent_gid;
    }
    result.stats.completed =
        !shared_.aborted.load() && goal != SearchNode::kNoParent;
    result.stats.budget_exhausted = shared_.aborted.load();
    result.stats.bounded_out = !shared_.aborted.load() &&
                               goal == SearchNode::kNoParent &&
                               options_.cost_bound != kNoCostBound;

    if (goal != SearchNode::kNoParent) {
      result.found = true;
      // Certified optimal only on a clean termination with an exhaustive
      // arc set (above the candidate cap the structured fallback may omit
      // arcs); a budget abort downgrades the incumbent to an anytime
      // result.
      result.optimal = result.stats.completed &&
                       target_.total() <= options_.full_candidate_cap;
      result.cnot_cost = node_at(goal).g;
      result.circuit = build_goal_circuit(
          [this](std::int64_t gid) -> const SearchNode& {
            return node_at(gid);
          },
          goal, target_.num_qubits());
    }
    return result;
  }

 private:
  const SearchNode& node_at(std::int64_t gid) const {
    return shards_[static_cast<std::size_t>(shard_of_gid(gid))].arena.node(
        local_of_gid(gid));
  }

  void work(int s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    auto g_of = [&shard](std::int64_t id) { return shard.arena.node(id).g; };
    // Reused outgoing buffers, one per destination shard.
    std::vector<std::vector<Mail>> outbox(
        static_cast<std::size_t>(num_shards_));
    std::vector<Mail> batch;

    while (!shared_.done.load()) {
      count_classes(shard);
      if (budget_.exhausted(shared_.nodes_generated.load(),
                            shared_.classes_stored.load())) {
        // If another worker already certified termination, the budget
        // expiring a moment later must not downgrade the certificate.
        if (!shared_.done.exchange(true)) shared_.aborted.store(true);
        break;
      }

      // 1. Drain the mailbox. idle goes false before any effect so the
      // termination check can never observe a half-processed message.
      batch.clear();
      {
        const MutexLock lock(shard.inbox_mutex);
        batch.swap(shard.inbox);
      }
      if (!batch.empty()) {
        shard.idle.store(false);
        for (Mail& mail : batch) {
          relax_into_open(shard.arena, shard.open, std::move(mail.key),
                          std::move(mail.child), mail.g2, mail.parent,
                          mail.via, h_, options_.cost_bound);
        }
        shard.published_min_f.store(shard.open.min_f());
        shared_.received.fetch_add(batch.size());
        continue;
      }

      // 2. Expand the best local node that can still beat the incumbent.
      const std::int64_t incumbent = shared_.incumbent_g.load();
      if (shard.open.min_f() < incumbent) {
        shard.idle.store(false);
        const auto top = shard.open.pop_best(g_of, shard.stale_pops);
        if (top.has_value() && top->f < incumbent) {
          if (free_reducible(shard.arena.node(top->id).state, level_)) {
            offer_incumbent(top->g_at_push, make_shard_gid(s, top->id));
          } else {
            expand(s, shard, top->id, outbox);
          }
        }
        shard.published_min_f.store(shard.open.min_f());
        continue;
      }

      // 3. Nothing useful locally: publish the frontier bound, declare
      // idle, and try to certify global termination.
      shard.published_min_f.store(shard.open.min_f());
      shard.idle.store(true);
      if (try_terminate()) break;
      std::this_thread::yield();
    }
  }

  void expand(int s, Shard& shard, std::int64_t id,
              std::vector<std::vector<Mail>>& outbox) {
    ++shard.expanded;
    // Expand by reference: NodeArena references survive appends, and only
    // this worker mutates its own shard's arena. A relax cannot rebind the
    // expanded node itself (children have g2 = g + cost >= g).
    const SlotState& state = shard.arena.node(id).state;
    const std::int64_t g = shard.arena.node(id).g;
    const std::int64_t parent_gid = make_shard_gid(s, id);

    std::uint64_t generated = 0;
    for (const Move& mv : enumerate_moves(state, move_options_)) {
      if (budget_.deadline_expired()) break;  // child work can dominate
      ++generated;
      SlotState child = apply_move(state, mv);
      const std::int64_t g2 = g + mv.cost;
      // A raw state seen before skips canonicalization, and is dropped
      // where relax would be a no-op: its owned class is already as cheap.
      const std::uint64_t hash = RawStateTable::hash_of(child);
      const RawStateTable::Slot* seen = shard.seen.find(child, hash);
      if (seen != nullptr) {
        ++shard.transposition_hits;
        if (seen->id != SearchNode::kNoParent &&
            shard.arena.node(seen->id).g <= g2) {
          continue;
        }
      }
      CanonicalKey key = seen != nullptr && seen->id == SearchNode::kNoParent
                             ? shard.seen.key(*seen)
                             : canonical_key(child, level_);
      const int owner = owner_shard(key, num_shards_);
      std::int64_t* owned_id =
          seen == nullptr
              ? shard.seen.insert(child, hash, owner == s ? nullptr : &key)
              : nullptr;
      if (owner == s) {
        const std::int64_t child_id = relax_into_open(
            shard.arena, shard.open, std::move(key), std::move(child), g2,
            parent_gid, mv, h_, options_.cost_bound);
        if (owned_id != nullptr) *owned_id = child_id;
      } else {
        outbox[static_cast<std::size_t>(owner)].push_back(
            Mail{std::move(key), std::move(child), g2, parent_gid, mv});
      }
    }
    shared_.nodes_generated.fetch_add(generated);

    for (int dest = 0; dest < num_shards_; ++dest) {
      std::vector<Mail>& out = outbox[static_cast<std::size_t>(dest)];
      if (out.empty()) continue;
      // sent must lead the append: a checker that observes sent ==
      // received has proof these messages were already processed.
      shared_.sent.fetch_add(out.size());
      Shard& target = shards_[static_cast<std::size_t>(dest)];
      {
        // One bulk append per destination keeps the critical section to a
        // single grow-and-move instead of per-message push_backs.
        const MutexLock lock(target.inbox_mutex);
        target.inbox.insert(target.inbox.end(),
                            std::make_move_iterator(out.begin()),
                            std::make_move_iterator(out.end()));
      }
      out.clear();
    }
  }

  /// Publish the classes this shard stored since its last call.
  void count_classes(Shard& shard) {
    const std::uint64_t stored = shard.arena.size();
    if (stored == shard.classes_counted) return;
    shared_.classes_stored.fetch_add(stored - shard.classes_counted);
    shard.classes_counted = stored;
  }

  void offer_incumbent(std::int64_t g, std::int64_t gid) {
    const MutexLock lock(shared_.incumbent_mutex);
    if (g < shared_.incumbent_g.load()) {
      shared_.incumbent_gid = gid;
      shared_.incumbent_g.store(g);
    }
  }

  /// Certify termination: the incumbent's g is a true optimum once every
  /// shard is idle with frontier min f >= incumbent and no message is in
  /// flight. The counters are read before and after the per-shard pass;
  /// any concurrent send or delivery changes them and voids the attempt.
  /// (With no incumbent the same condition — every frontier empty, no
  /// mail — certifies exhaustion without a goal.)
  bool try_terminate() {
    const std::int64_t incumbent = shared_.incumbent_g.load();
    const std::uint64_t sent_before = shared_.sent.load();
    const std::uint64_t received_before = shared_.received.load();
    if (sent_before != received_before) return false;
    for (const Shard& shard : shards_) {
      if (!shard.idle.load()) return false;
      if (shard.published_min_f.load() < incumbent) return false;
    }
    if (shared_.sent.load() != sent_before ||
        shared_.received.load() != received_before) {
      return false;
    }
    for (const Shard& shard : shards_) {
      if (!shard.idle.load()) return false;
    }
    shared_.done.store(true);
    return true;
  }

  const SearchOptions& options_;
  const SlotState& target_;
  /// The shared searcher heuristic (search_core::search_heuristic).
  const decltype(search_heuristic(HeuristicMode::kZero, nullptr)) h_;
  const CanonicalLevel level_;
  const MoveGenOptions move_options_;
  const SearchBudget budget_;
  const int num_shards_;
  std::vector<Shard> shards_;
  SharedState shared_;
};

}  // namespace

AStarSynthesizer::AStarSynthesizer(SearchOptions options)
    : options_(options) {
  validate_search_coupling("AStarSynthesizer", options_.coupling.get());
}

SynthesisResult AStarSynthesizer::synthesize(const QuantumState& target) const {
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    throw std::invalid_argument(
        "AStarSynthesizer: target has no slot decomposition (negative or "
        "irrational amplitudes); use the workflow solver instead");
  }
  return synthesize(*slot);
}

SynthesisResult AStarSynthesizer::synthesize(const SlotState& target) const {
  // The wall clock starts before the cache probe: time spent blocked on
  // another thread's in-flight search of this class counts against this
  // search's own budget, so a timed-out wait can never double the
  // stage's wall clock.
  const Deadline overall(options_.time_budget_seconds);
  ScopedCacheProbe probe(options_.cache.get(), target,
                         options_.coupling.get(), options_.max_controls,
                         options_.time_budget_seconds);
  if (probe.hit()) return probe.result();
  SearchOptions adjusted = options_;
  adjusted.time_budget_seconds = clamp_budget(0.0, overall);
  const SynthesisResult result = HdaStar(adjusted, target).run();
  probe.publish(result);
  return result;
}

}  // namespace qsp
