#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "arch/routing.hpp"
#include "circuit/dataflow.hpp"
#include "circuit/lowering.hpp"
#include "core/canonical.hpp"
#include "prep/mflow.hpp"
#include "prep/nflow.hpp"

namespace perfbench {
namespace {

using qsp::Circuit;
using qsp::QuantumState;
using qsp::SearchCache;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string class_key(const qsp::CanonicalWitness& witness, const qsp::CacheFingerprint& fp) {
  std::string key = fp.id;
  char word[20];
  for (const std::uint64_t w : witness.key) {
    std::snprintf(word, sizeof(word), "|%llx", static_cast<unsigned long long>(w));
    key += word;
  }
  return key;
}

/// Serves recorded probe outcomes in call order. Every answer is a hit, so
/// no kernel search runs; a probe whose outcome was not recorded (a beam
/// circuit, an unpublished private search) is answered "not found" and
/// marks the replay as diverged.
class ReplayCache final : public SearchCache {
 public:
  explicit ReplayCache(const std::vector<SearchEvent>& events) : events_(events) {}

  Lookup begin(const qsp::SlotState&, const qsp::CanonicalWitness&, const qsp::CacheFingerprint&,
               double, bool consult_only) override {
    Lookup lookup;
    lookup.claim = Claim::kHit;
    lookup.result = qsp::SynthesisResult{};
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t i = next_++;
    if (i >= events_.size() || events_[i].certifying == consult_only ||
        !events_[i].result.has_value()) {
      diverged_ = true;
    } else {
      lookup.result = events_[i].result;
    }
    return lookup;
  }

  void end(const qsp::SlotState&, const qsp::CanonicalWitness&, const qsp::CacheFingerprint&,
           const qsp::SynthesisResult*) override {}

  bool diverged() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return diverged_ || next_ != events_.size();
  }

 private:
  const std::vector<SearchEvent>& events_;
  std::mutex mutex_;
  std::size_t next_ = 0;
  bool diverged_ = false;
};

QuantumState normalize_global_sign(const QuantumState& state) {
  const auto& terms = state.terms();
  if (!std::all_of(terms.begin(), terms.end(), [](const qsp::Term& t) { return t.amplitude < 0; })) {
    return state;
  }
  std::vector<qsp::Term> flipped = terms;
  for (qsp::Term& t : flipped) t.amplitude = -t.amplitude;
  return QuantumState(state.num_qubits(), std::move(flipped));
}

volatile std::size_t canonical_key_sink = 0;

template <typename F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  auto out = f();
  acc += seconds_between(t0, Clock::now());
  return out;
}

}  // namespace

bool ClassLog::seen_before(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !seen_.insert(key).second;
}

RecordingCache::RecordingCache(std::shared_ptr<SearchCache> inner, ClassLog* classes)
    : inner_(std::move(inner)), classes_(classes) {}

SearchCache::Lookup RecordingCache::begin(const qsp::SlotState& target,
                                          const qsp::CanonicalWitness& witness,
                                          const qsp::CacheFingerprint& fp,
                                          double max_wait_seconds, bool consult_only) {
  SearchEvent event;
  event.certifying = !consult_only;
  event.target = target;
  event.level = fp.level;
  event.begin = Clock::now();
  Lookup lookup;
  if (inner_ != nullptr) {
    lookup = inner_->begin(target, witness, fp, max_wait_seconds, consult_only);
  }
  event.lookup_done = Clock::now();
  event.claim = lookup.claim;
  if (lookup.claim == Claim::kHit) {
    event.result = lookup.result;
  } else {
    // Own every miss, so the search calls end() when it returns: that
    // closes its span and hands back its SearchStats. A searcher acts on
    // no claim but a hit, so this does not change what it does.
    lookup.claim = Claim::kOwner;
  }
  if (classes_ != nullptr) {
    const bool seen = classes_->seen_before(class_key(witness, fp));
    event.repeat_miss = seen && lookup.claim != Claim::kHit;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
  return lookup;
}

void RecordingCache::end(const qsp::SlotState& target, const qsp::CanonicalWitness& witness,
                         const qsp::CacheFingerprint& fp, const qsp::SynthesisResult* result) {
  const auto now = Clock::now();
  bool inner_owned = false;
  {
    // Probes of one request run one at a time; the open one is the latest.
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
      if (it->claim == Claim::kHit || it->end.has_value()) continue;
      it->end = now;
      if (result != nullptr) it->result = *result;
      inner_owned = it->claim == Claim::kOwner;
      break;
    }
  }
  if (inner_owned) inner_->end(target, witness, fp, result);
}

std::vector<SearchEvent> RecordingCache::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SearchEvent> out;
  out.swap(events_);
  return out;
}

SearchSummary summarize(const std::vector<SearchEvent>& events) {
  SearchSummary s;
  for (const SearchEvent& e : events) {
    ++s.searches;
    if (e.repeat_miss) ++s.repeat_misses;
    if (e.result.has_value() && e.result->optimal) ++s.certified;
    if (e.claim == SearchCache::Claim::kHit) ++s.hits;
    const double span = seconds_between(e.begin, e.end.value_or(e.lookup_done));
    if (e.certifying) {
      s.astar_s += span;
      if (e.end.has_value() && e.result.has_value()) {
        const qsp::SearchStats& st = e.result->stats;
        s.astar_stats_s += st.seconds;
        s.nodes_expanded += st.nodes_expanded;
        s.nodes_generated += st.nodes_generated;
        ++s.astar_reported;
        if (st.budget_exhausted) ++s.astar_exhausted;
      }
    } else {
      s.beam_s += span;
    }
  }
  return s;
}

double canonical_key_us(const std::vector<SearchEvent>& events, int reps) {
  double total = 0.0;
  int calls = 0;
  std::size_t sink = 0;
  for (const SearchEvent& e : events) {
    if (!e.target.has_value()) continue;
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) sink += qsp::canonical_key(*e.target, e.level).size();
    total += seconds_between(t0, Clock::now());
    calls += reps;
  }
  canonical_key_sink = sink;  // keeps the timed calls observable
  return calls == 0 ? 0.0 : total * 1e6 / calls;
}

StageTimes replay_request(const Request& request, const qsp::WorkflowOptions& base,
                          const std::vector<SearchEvent>& events) {
  StageTimes st;
  qsp::WorkflowOptions options = base;
  const auto replay = std::make_shared<ReplayCache>(events);
  options.cache = replay;
  const qsp::Solver solver(options);
  const QuantumState& target = request.state;
  const int n = target.num_qubits();
  const qsp::CouplingGraph* device = options.coupling.get();
  const int nw = device != nullptr ? device->num_qubits() : n;
  qsp::LoweringOptions elide;
  elide.elide_zero_rotations = true;

  // The same threshold test as Solver::prepare.
  const auto fits = [&options](const QuantumState& state) {
    const auto slot = qsp::SlotState::from_state(normalize_global_sign(state));
    if (!slot.has_value() || slot->cardinality() > options.exact_max_cardinality) return false;
    const qsp::SlotState compressed = qsp::compress_free(*slot);
    int active = 0;
    for (int q = 0; q < compressed.num_qubits(); ++q) {
      if (!compressed.qubit_constant(q)) ++active;
    }
    return active <= options.exact_max_qubits;
  };
  const auto selection_cost = [&](const Circuit& c) {
    return timed(st.select_s, [&] {
      return device == nullptr ? qsp::count_cnots_after_lowering(c, elide)
                               : qsp::lowered_cnot_count(qsp::route_circuit(c, *device, elide));
    });
  };
  const auto tail = [&](const QuantumState& s, bool* used) {
    return timed(st.tail_s, [&] { return solver.prepare_via_exact_tail(s, used); });
  };
  const auto sparse = [&] {
    const qsp::MFlowReduction reduction =
        timed(st.mflow_s, [&] { return qsp::mflow_reduce(target, fits, options.mflow); });
    st.mflow_steps += target.cardinality() - reduction.reduced.cardinality();
    Circuit circuit = tail(reduction.reduced, nullptr);
    Circuit forward(n);
    for (const qsp::Gate& g : reduction.forward_gates) forward.append(g);
    circuit.append(forward.adjoint());
    return circuit;
  };
  const auto finish = [&](Circuit circuit) {
    if (device != nullptr) {
      st.routed = true;
      st.cnots_before_route = qsp::count_cnots_after_lowering(circuit);
      circuit = timed(st.route_s, [&] { return qsp::route_circuit(circuit, *device); });
      st.cnots_after_route = qsp::lowered_cnot_count(circuit);
      if (nw > n) {
        qsp::DataflowOptions dataflow;
        dataflow.num_data_wires = n;
        timed(st.certify_s, [&] { return qsp::dataflow_lint(circuit, dataflow); });
      }
    }
    qsp::PipelineOptions pipeline;
    pipeline.level = options.opt_level;
    pipeline.pass.target.coupling = options.coupling;
    return timed(st.pipeline_s, [&] { return qsp::optimize_circuit(circuit, pipeline); });
  };

  Circuit out(nw);
  const auto m = static_cast<std::uint64_t>(target.cardinality());
  const bool sparse_path = static_cast<std::uint64_t>(n) * m < (std::uint64_t{1} << n);
  const int t = std::min(options.exact_max_qubits, n);
  if (fits(target)) {
    out = finish(tail(target, nullptr));
  } else if (sparse_path) {
    out = finish(sparse());
  } else if (t < 1) {
    out = finish(timed(st.nflow_s, [&] { return qsp::nflow_prepare(target); }));
  } else {
    const QuantumState marginal = timed(st.nflow_s, [&] { return qsp::nflow_marginal(target, t); });
    Circuit dense_tail = timed(st.nflow_s, [&] { return qsp::nflow_prepare(marginal); });
    const auto slots = qsp::SlotState::from_state(marginal);
    if (slots.has_value() && slots->total() <= options.dense_tail_total_cap) {
      bool used = false;
      Circuit exact_marginal = tail(marginal, &used);
      if (used && selection_cost(exact_marginal) < selection_cost(dense_tail)) {
        dense_tail = std::move(exact_marginal);
      }
    }
    Circuit circuit(nw);
    circuit.append(dense_tail);
    circuit.append(timed(st.nflow_s, [&] { return qsp::nflow_stages(target, t); }));
    if (target.cardinality() <= options.dual_path_max_cardinality) {
      Circuit alt = sparse();
      if (selection_cost(alt) < selection_cost(circuit)) circuit = std::move(alt);
    }
    out = finish(std::move(circuit));
  }
  st.final_cnots = qsp::count_cnots_after_lowering(out, elide);
  st.diverged = replay->diverged();
  return st;
}

}  // namespace perfbench
