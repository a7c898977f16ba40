// Request-level benchmark of the qsp library: runs one seeded workload
// through Solver::prepare or SynthesisService::submit for a fixed time,
// verifies every output, and prints every metric by name with its unit.
// The last line of stdout is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Per-request rows (JSONL, with QASM) and a summary JSON go to --out-dir.
//
// Usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                  [--out-dir DIR] [--git DESCRIBE]
// See perfbench/README.md for the workloads and the metric definitions.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/routing.hpp"
#include "circuit/lowering.hpp"
#include "circuit/qasm.hpp"
#include "corpus.hpp"
#include "flow/solver.hpp"
#include "provenance.hpp"
#include "service/synthesis_service.hpp"
#include "sim/verifier.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Set-up is timed in batches spread over the run: kSetupBatches batches
/// of kSetupBatch set-ups each, every batch timed as one unit.
constexpr int kSetupBatches = 40;
constexpr int kSetupBatch = 5;
constexpr int kCanonicalKeyReps = 20;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/results";
  std::string git = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else if (flag == "--out-dir") a.out_dir = value;
    else if (flag == "--git") a.git = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

/// What the benchmark keeps of one completed request.
struct Sample {
  std::size_t index = 0;  ///< request index within the pass
  std::size_t pass = 0;
  double latency_s = 0.0;
  double run_s = 0.0;  ///< prepare's own time (service: ServiceResponse::seconds)
  bool produced = false;  ///< found a circuit without timing out or throwing
  bool used_exact_tail = false;
  std::int64_t pipeline_cnots_removed = 0;
  std::uint64_t checksum = 0;
  SearchSummary search;  ///< traced phases only
};

/// The first pass's output per request: what rows, verification and
/// cnot_total are built from.
struct FirstOutput {
  std::optional<qsp::WorkflowResult> result;
  std::string error;
  std::string qasm;
  std::uint64_t checksum = 0;
  std::int64_t cnots = -1;
  std::vector<SearchEvent> events;  ///< traced phases only
  bool verified = false;
  std::string failure;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<FirstOutput> first;
  /// Distinct later-pass outputs whose checksum differs from the first
  /// pass, keyed by (request index, checksum); each is verified on its own.
  std::map<std::pair<std::size_t, std::uint64_t>, qsp::Circuit> divergent;
  double wall_s = 0.0;
  std::optional<CacheDelta> cache;
  std::uint64_t cache_bytes = 0;
};

qsp::LoweringOptions elide_zero() {
  qsp::LoweringOptions o;
  o.elide_zero_rotations = true;
  return o;
}

qsp::WorkflowOptions options_for(const Request& r) {
  qsp::WorkflowOptions o;
  o.coupling = r.coupling;
  return o;
}

/// Client-side bookkeeping after a request completes.
void record(Phase& ph, std::size_t index, std::size_t pass, double latency_s, double run_s,
            std::optional<qsp::WorkflowResult> result, std::string error,
            std::vector<SearchEvent> events) {
  Sample s;
  s.index = index;
  s.pass = pass;
  s.latency_s = latency_s;
  s.run_s = run_s;
  s.produced = result.has_value() && result->found && !result->timed_out;
  if (result.has_value()) {
    s.used_exact_tail = result->used_exact_tail;
    s.pipeline_cnots_removed = result->passes.cnot_cost_delta();
  }
  s.search = summarize(events);
  std::string qasm;
  if (s.produced) {
    qasm = qsp::to_qasm(result->circuit);
    s.checksum = fnv1a64(qasm);
  }
  FirstOutput& first = ph.first[index];
  if (pass == 0) {
    first.error = std::move(error);
    if (s.produced) {
      first.cnots = qsp::count_cnots_after_lowering(result->circuit, elide_zero());
      first.qasm = std::move(qasm);
      first.checksum = s.checksum;
    }
    first.result = std::move(result);
    first.events = std::move(events);
  } else if (s.produced && s.checksum != first.checksum) {
    ph.divergent.try_emplace({index, s.checksum}, result->circuit);
  }
  ph.samples.push_back(std::move(s));
}

using Recorders = std::map<std::string, std::shared_ptr<RecordingCache>>;
using Solvers = std::map<std::string, std::unique_ptr<qsp::Solver>>;

/// One Solver per device of the workload; with `recorders`, each carries a
/// recording cache that times its searches.
Solvers make_solvers(const Workload& w, Recorders* recorders) {
  Solvers solvers;
  for (const Request& r : w.requests) {
    if (solvers.count(r.device) != 0) continue;
    qsp::WorkflowOptions o = options_for(r);
    if (recorders != nullptr) {
      (*recorders)[r.device] = std::make_shared<RecordingCache>(nullptr, nullptr);
      o.cache = (*recorders)[r.device];
    }
    solvers[r.device] = std::make_unique<qsp::Solver>(o);
  }
  return solvers;
}

/// Closed loop, one client: whole passes over the corpus until `seconds`
/// have elapsed. Bookkeeping between requests is excluded from wall_s, and
/// so is `setup_batch`, run between requests every seconds / kSetupBatches.
Phase run_solver(const Workload& w, const Solvers& solvers, const Recorders* recorders,
                 double seconds, const std::function<void()>* setup_batch = nullptr) {
  Phase ph;
  ph.first.resize(w.requests.size());
  const auto start = Clock::now();
  double bookkeeping_s = 0.0;
  double next_setup_s = 0.0;
  for (std::size_t pass = 0; pass == 0 || since(start) < seconds; ++pass) {
    for (std::size_t i = 0; i < w.requests.size(); ++i) {
      if (setup_batch != nullptr && next_setup_s < seconds && since(start) >= next_setup_s) {
        const auto t = Clock::now();
        (*setup_batch)();
        bookkeeping_s += since(t);
        next_setup_s += seconds / kSetupBatches;
      }
      const Request& r = w.requests[i];
      std::optional<qsp::WorkflowResult> result;
      std::string error;
      const auto t0 = Clock::now();
      try {
        result = solvers.at(r.device)->prepare(r.state);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const auto t1 = Clock::now();
      const double latency = std::chrono::duration<double>(t1 - t0).count();
      std::vector<SearchEvent> events;
      if (recorders != nullptr) events = recorders->at(r.device)->take();
      record(ph, i, pass, latency, latency, std::move(result), std::move(error), std::move(events));
      bookkeeping_s += since(t1);
    }
  }
  ph.wall_s = since(start) - bookkeeping_s;
  return ph;
}

/// One cold service, nproc-1 workers, one client thread keeping a window
/// of outstanding requests larger than the worker count. Whole passes are
/// submitted until `seconds` have elapsed; then the window drains. While
/// submitting, the client runs `setup_batch` every seconds / kSetupBatches
/// in place of a wait, when the window is full and no request is ready.
Phase run_service(const Workload& w, qsp::SynthesisService& service, double seconds,
                  bool traced, const std::function<void()>* setup_batch = nullptr) {
  struct Outstanding {
    std::size_t index;
    std::size_t pass;
    Clock::time_point submitted;
    std::future<qsp::ServiceResponse> future;
    std::shared_ptr<RecordingCache> recorder;
  };
  struct Done {
    std::size_t index, pass;
    double latency_s, run_s;
    std::optional<qsp::WorkflowResult> result;
    std::string error;
    std::vector<SearchEvent> events;
  };
  ClassLog classes;
  // Poll with a 1 us timer slack so completions are seen within ~20 us.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const std::size_t window = 8 * (static_cast<std::size_t>(service.num_workers()) + 1);
  const qsp::EquivalenceCacheStats before = service.cache_stats();
  std::deque<Outstanding> outstanding;
  std::vector<Done> done;
  std::size_t next = 0, pass = 0;
  bool submitting = true;
  double next_setup_s = 0.0;
  const auto start = Clock::now();
  while (submitting || !outstanding.empty()) {
    while (submitting && outstanding.size() < window) {
      const Request& r = w.requests[next];
      qsp::ServiceRequest request{r.state, options_for(r)};
      std::shared_ptr<RecordingCache> recorder;
      if (traced) {
        recorder = std::make_shared<RecordingCache>(service.cache(), &classes);
        request.options.cache = recorder;
      }
      const auto t = Clock::now();
      outstanding.push_back({next, pass, t, service.submit(std::move(request)), recorder});
      if (++next == w.requests.size()) {
        next = 0;
        ++pass;
        submitting = since(start) < seconds;
      }
    }
    bool progressed = false;
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      Done d{it->index, it->pass, since(it->submitted), 0.0, std::nullopt, {}, {}};
      try {
        qsp::ServiceResponse response = it->future.get();
        d.run_s = response.seconds;
        d.result = std::move(response.result);
      } catch (const std::exception& e) {
        d.error = e.what();
      }
      if (it->recorder != nullptr) d.events = it->recorder->take();
      done.push_back(std::move(d));
      it = outstanding.erase(it);
      progressed = true;
    }
    if (!progressed && !outstanding.empty()) {
      if (setup_batch != nullptr && next_setup_s < seconds && since(start) >= next_setup_s) {
        (*setup_batch)();
        next_setup_s += seconds / kSetupBatches;
      } else {
        outstanding.front().future.wait_for(std::chrono::microseconds(20));
      }
    }
  }
  Phase ph;
  ph.wall_s = since(start);
  ph.cache = cache_delta(before, service.cache_stats());
  ph.cache_bytes = service.cache_stats().bytes;
  ph.first.resize(w.requests.size());
  // Completion order differs from submission order; record pass 0 of each
  // request before any later pass compares against it.
  std::stable_sort(done.begin(), done.end(),
                   [](const Done& a, const Done& b) { return a.pass < b.pass; });
  for (Done& d : done) {
    record(ph, d.index, d.pass, d.latency_s, d.run_s, std::move(d.result), std::move(d.error),
           std::move(d.events));
  }
  return ph;
}

std::unique_ptr<qsp::SynthesisService> make_service() {
  qsp::SynthesisServiceOptions options;
  const int hw = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  options.num_workers = hw - 1;
  return std::make_unique<qsp::SynthesisService>(options);
}

/// Correctness gate: simulate every first-pass output (and every later
/// output that differs from it) with the independent verifier, and check
/// register width and device conformance.
std::string check_output(const Request& r, const qsp::Circuit& c) {
  const int width = r.coupling != nullptr ? r.coupling->num_qubits() : r.n;
  if (c.num_qubits() != width) return "register width " + std::to_string(c.num_qubits());
  if (r.coupling != nullptr && !qsp::respects_coupling(c, *r.coupling)) {
    return "breaks coupling " + r.device;
  }
  const qsp::VerificationResult v = qsp::verify_preparation(c, r.state);
  if (!v.ok) return "verification failed: " + v.message;
  return "";
}

struct Verification {
  std::uint64_t failed_samples = 0;
  double verify_s = 0.0;
  int verified = 0;
};

Verification verify_phase(const Workload& w, Phase& ph) {
  Verification out;
  for (std::size_t i = 0; i < ph.first.size(); ++i) {
    FirstOutput& f = ph.first[i];
    if (!f.result.has_value()) {
      f.failure = "exception: " + f.error;
    } else if (!f.result->found || f.result->timed_out) {
      f.failure = "not found or timed out";
    } else {
      const auto t0 = Clock::now();
      f.failure = check_output(w.requests[i], f.result->circuit);
      out.verify_s += since(t0);
      ++out.verified;
    }
    f.verified = f.failure.empty();
  }
  std::set<std::pair<std::size_t, std::uint64_t>> bad_repeats;
  for (const auto& [key, circuit] : ph.divergent) {
    const auto t0 = Clock::now();
    const std::string failure = check_output(w.requests[key.first], circuit);
    out.verify_s += since(t0);
    ++out.verified;
    if (!failure.empty()) {
      std::cerr << "perfbench: " << w.requests[key.first].instance << " (repeat): " << failure
                << "\n";
      bad_repeats.insert(key);
    }
  }
  // A repeat with its first pass's checksum is the same circuit and shares
  // that verdict.
  for (const Sample& s : ph.samples) {
    const FirstOutput& f = ph.first[s.index];
    const bool ok = s.produced && (s.checksum == f.checksum
                                       ? f.verified
                                       : bad_repeats.count({s.index, s.checksum}) == 0);
    if (!ok) ++out.failed_samples;
  }
  for (std::size_t i = 0; i < ph.first.size(); ++i) {
    if (!ph.first[i].verified) {
      std::cerr << "perfbench: " << w.requests[i].instance << ": " << ph.first[i].failure << "\n";
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::vector<double> latencies_ms(const Phase& ph) {
  std::vector<double> v;
  for (const Sample& s : ph.samples) v.push_back(s.latency_s * 1e3);
  return v;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Per-layer metrics of a traced phase, with per-instance replays.
std::vector<Metric> layer_metrics(const Workload& w, const Phase& traced, double p50_untraced_ms,
                                  const Verification& verification,
                                  std::vector<std::optional<StageTimes>>& replays) {
  replays.assign(w.requests.size(), std::nullopt);
  int agree = 0, replayed = 0;
  std::vector<SearchEvent> roots;
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const FirstOutput& f = traced.first[i];
    for (const SearchEvent& e : f.events) roots.push_back(e);
    if (!f.result.has_value() || !f.result->found) continue;
    try {
      replays[i] = replay_request(w.requests[i], options_for(w.requests[i]), f.events);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: replay of " << w.requests[i].instance << " threw: " << e.what()
                << "\n";
      continue;
    }
    ++replayed;
    if (replays[i]->final_cnots == f.cnots) ++agree;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.samples.size()));
  double prepare_s = 0, attributed_s = 0, astar_s = 0, beam_s = 0, astar_stats_s = 0;
  double mflow_s = 0, nflow_s = 0, tail_s = 0, select_s = 0, route_s = 0, certify_s = 0,
         pipeline_s = 0, queue_s = 0, mflow_steps = 0, removed = 0;
  double routed_before = 0, routed_after = 0;
  std::uint64_t expanded = 0, generated = 0;
  int searches = 0, certified = 0, attempts = 0, selected = 0, reported = 0, exhausted = 0,
      repeat_misses = 0;
  for (const Sample& s : traced.samples) {
    prepare_s += s.run_s;
    queue_s += s.latency_s - s.run_s;
    astar_s += s.search.astar_s;
    beam_s += s.search.beam_s;
    astar_stats_s += s.search.astar_stats_s;
    expanded += s.search.nodes_expanded;
    generated += s.search.nodes_generated;
    searches += s.search.searches;
    certified += s.search.certified;
    reported += s.search.astar_reported;
    exhausted += s.search.astar_exhausted;
    repeat_misses += s.search.repeat_misses;
    removed += static_cast<double>(s.pipeline_cnots_removed);
    if (s.search.searches > 0) {
      ++attempts;
      if (s.used_exact_tail) ++selected;
    }
    attributed_s += s.search.astar_s + s.search.beam_s;
    if (const auto& r = replays[s.index]; r.has_value()) {
      mflow_s += r->mflow_s;
      mflow_steps += r->mflow_steps;
      nflow_s += r->nflow_s;
      tail_s += r->tail_s;
      select_s += r->select_s;
      route_s += r->route_s;
      certify_s += r->certify_s;
      pipeline_s += r->pipeline_s;
      attributed_s += r->attributed_s();
      if (r->routed) {
        routed_before += static_cast<double>(r->cnots_before_route);
        routed_after += static_cast<double>(r->cnots_after_route);
      }
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double p50_traced = median(latencies_ms(traced));
  const CacheDelta cache = traced.cache.value_or(CacheDelta{});
  std::vector<Metric> m = {
      {"flow.prepare_ms", prepare_s * 1e3 / n, "ms", "mean prepare wall time per request"},
      {"flow.tail_ms", tail_s * 1e3 / n, "ms", "replayed exact-tail assembly, searches served"},
      {"trace.coverage_frac", ratio(attributed_s, prepare_s), "frac", "attributed / prepare"},
      {"trace.overhead_frac", ratio(p50_traced, p50_untraced_ms) - 1.0, "frac",
       "traced p50 " + fmt(p50_traced) + " ms vs untraced " + fmt(p50_untraced_ms) + " ms"},
      {"trace.replay_agree_frac", ratio(agree, replayed), "frac",
       std::to_string(agree) + " of " + std::to_string(replayed) + " instances"},
      {"trace.requests", static_cast<double>(traced.samples.size()), "count", "traced requests"},
      {"prep.mflow_ms", mflow_s * 1e3 / n, "ms", "mflow_reduce per request"},
      {"prep.mflow_steps", mflow_steps / n, "count", "m-flow merges per request"},
      {"prep.nflow_ms", nflow_s * 1e3 / n, "ms", "n-flow marginal/stages per request"},
      {"core.us_per_node", ratio(astar_stats_s * 1e6, static_cast<double>(generated)), "us",
       "A* seconds per generated node"},
      {"core.canonical_key_us", canonical_key_us(roots, kCanonicalKeyReps), "us",
       std::to_string(roots.size()) + " search roots"},
      {"core.astar_ms", astar_s * 1e3 / n, "ms", "certifying search spans per request"},
      {"core.beam_ms", beam_s * 1e3 / n, "ms", "beam spans per request"},
      {"core.searches", searches / n, "count", "kernel probes per request"},
      {"core.nodes_expanded", static_cast<double>(expanded) / n, "count", "per request"},
      {"core.nodes_generated", static_cast<double>(generated) / n, "count", "per request"},
      {"core.optimal_frac", ratio(certified, searches), "frac",
       std::to_string(certified) + " of " + std::to_string(searches) + " probes"},
      {"core.selected_frac", ratio(selected, attempts), "frac",
       std::to_string(selected) + " of " + std::to_string(attempts) + " exact attempts"},
      {"core.budget_exhausted_frac", ratio(exhausted, reported), "frac",
       std::to_string(exhausted) + " of " + std::to_string(reported) + " A* runs"},
      {"service.queue_wait_ms", queue_s * 1e3 / n, "ms", "client latency - worker time"},
      {"service.run_ms", w.service ? prepare_s * 1e3 / n : 0.0, "ms", "ServiceResponse::seconds"},
      {"service.cache_lookups", static_cast<double>(cache.lookups), "count", "hit-rate base"},
      {"service.cache_hit_rate", cache.hit_rate, "frac",
       std::to_string(cache.hits) + " of " + std::to_string(cache.lookups) + " lookups"},
      {"service.cache_insertions", static_cast<double>(cache.insertions), "count", ""},
      {"service.repeat_misses", static_cast<double>(repeat_misses), "count",
       "misses on a class already looked up"},
      {"service.inflight_waits", static_cast<double>(cache.inflight_waits), "count", ""},
      {"service.cache_bytes", static_cast<double>(traced.cache_bytes), "bytes", ""},
      {"arch.route_ms", route_s * 1e3 / n, "ms", "route_circuit per request"},
      {"arch.routed_cnot_ratio", ratio(routed_after, routed_before), "frac",
       "CNOTs after / before routing"},
      {"circuit.pipeline_ms", pipeline_s * 1e3 / n, "ms", "optimize_circuit per request"},
      {"circuit.pipeline_cnots_removed", removed / n, "count", "per request"},
      {"circuit.certify_ms", certify_s * 1e3 / n, "ms", "dataflow_lint per request"},
      {"circuit.select_ms", select_s * 1e3 / n, "ms", "lowered-cost selection per request"},
      {"sim.verify_ms", ratio(verification.verify_s * 1e3, verification.verified), "ms",
       "per verified circuit"},
  };
  return m;
}

void write_outputs(const Args& args, const Workload& w, const Phase& ph,
                   const std::vector<std::optional<StageTimes>>& replays,
                   const Provenance& prov, const std::vector<Metric>& metrics) {
  namespace fs = std::filesystem;
  fs::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + w.name + "-seed" + std::to_string(args.seed) +
                           "-trace" + std::to_string(args.trace);
  std::map<std::size_t, std::vector<double>> lat;
  for (const Sample& s : ph.samples) lat[s.index].push_back(s.latency_s * 1e3);
  std::ofstream rows(stem + ".jsonl");
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const Request& r = w.requests[i];
    const FirstOutput& f = ph.first[i];
    char checksum[20];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(f.checksum));
    std::ostringstream row;
    row << "{\"workload\":" << json_string(w.name) << ",\"instance\":" << json_string(r.instance)
        << ",\"family\":" << json_string(r.family) << ",\"n\":" << r.n << ",\"m\":" << r.m
        << ",\"device\":" << json_string(r.device)
        << ",\"path\":" << json_string(w.service ? "service" : "solver");
    if (f.result.has_value()) {
      row << ",\"sparse_path\":" << (f.result->sparse_path ? "true" : "false")
          << ",\"used_exact_tail\":" << (f.result->used_exact_tail ? "true" : "false")
          << ",\"budget_exhausted\":" << (f.result->budget_exhausted ? "true" : "false");
    }
    row << ",\"cnot\":" << f.cnots;
    if (r.table4_kernel_cnot >= 0) row << ",\"table4_kernel_cnot\":" << r.table4_kernel_cnot;
    row << ",\"latency_ms\":" << fmt(median(lat[i])) << ",\"repeats\":" << lat[i].size()
        << ",\"verified\":" << (f.verified ? "true" : "false")
        << ",\"checksum\":" << json_string(checksum);
    if (!f.failure.empty()) row << ",\"failure\":" << json_string(f.failure);
    if (args.trace == 1) {
      const SearchSummary s = summarize(f.events);
      row << ",\"searches\":" << s.searches << ",\"cache_hits\":" << s.hits;
      if (replays[i].has_value()) {
        const StageTimes& st = *replays[i];
        row << ",\"replay_cnot\":" << st.final_cnots
            << ",\"replay_diverged\":" << (st.diverged ? "true" : "false")
            << ",\"replay_ms\":{\"mflow\":" << fmt(st.mflow_s * 1e3)
            << ",\"nflow\":" << fmt(st.nflow_s * 1e3) << ",\"tail\":" << fmt(st.tail_s * 1e3)
            << ",\"select\":" << fmt(st.select_s * 1e3) << ",\"route\":" << fmt(st.route_s * 1e3)
            << ",\"certify\":" << fmt(st.certify_s * 1e3)
            << ",\"pipeline\":" << fmt(st.pipeline_s * 1e3) << "}";
      }
    }
    row << ",\"provenance\":" << prov.json() << ",\"qasm\":" << json_string(f.qasm) << "}";
    rows << row.str() << "\n";
  }
  std::ofstream summary(stem + ".summary.json");
  summary << "{\"workload\":" << json_string(w.name) << ",\"provenance\":" << prov.json()
          << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    summary << (i ? "," : "") << json_string(metrics[i].name) << ":{\"value\":"
            << fmt(metrics[i].value) << ",\"unit\":" << json_string(metrics[i].unit)
            << ",\"note\":" << json_string(metrics[i].note) << "}";
  }
  summary << "}}\n";
}

int run(const Args& args) {
  const auto process_start = Clock::now();
  const Provenance prov = collect_provenance(args.git, args.seed);

  // Set-up: seeded corpus generation plus Solver/SynthesisService
  // construction. The first set-up is timed from process start and its
  // objects serve the run. More set-ups are timed in batches spread over
  // the untraced run, and the median of the first set-up and the batch
  // means is reported. A shared machine's speed can drift over tens of
  // seconds, so a burst at start-up samples one moment of it; a batch
  // timed as one unit averages out the jitter of single thread spawns.
  Workload w = make_workload(args.workload, args.seed);
  Solvers solvers;
  std::unique_ptr<qsp::SynthesisService> service;
  if (w.service) {
    service = make_service();
  } else {
    solvers = make_solvers(w, nullptr);
  }
  std::vector<double> setups = {since(process_start)};
  const std::function<void()> setup_batch = [&] {
    // Everything set up stays alive until the batch is timed, so the
    // services' shutdown (joining their workers) is not timed.
    std::vector<Workload> workloads;
    std::vector<Solvers> fresh_solvers;
    std::vector<std::unique_ptr<qsp::SynthesisService>> fresh_services;
    workloads.reserve(kSetupBatch);
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupBatch; ++i) {
      workloads.push_back(make_workload(args.workload, args.seed));
      if (workloads.back().service) {
        fresh_services.push_back(make_service());
      } else {
        fresh_solvers.push_back(make_solvers(workloads.back(), nullptr));
      }
    }
    setups.push_back(since(t0) / kSetupBatch);
  };

  std::cout << "# perfbench workload=" << w.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "# provenance " << prov.json() << "\n"
            << "# corpus " << w.requests.size() << " requests/pass, checksum "
            << corpus_checksum(w) << "\n";

  const auto run_phase = [&](double seconds, bool traced) {
    const std::function<void()>* batch = args.trace == 0 && !traced ? &setup_batch : nullptr;
    if (!w.service && !traced) return run_solver(w, solvers, nullptr, seconds, batch);
    if (!w.service) {
      Recorders recorders;
      const Solvers traced_solvers = make_solvers(w, &recorders);
      return run_solver(w, traced_solvers, &recorders, seconds);
    }
    if (service == nullptr) service = make_service();  // cold service per phase
    Phase ph = run_service(w, *service, seconds, traced, batch);
    service.reset();
    return ph;
  };

  std::vector<Metric> metrics;
  std::vector<std::optional<StageTimes>> replays(w.requests.size());
  Phase main_phase;
  Verification verification;
  std::uint64_t failed = 0, attempted = 0;
  if (args.trace == 0) {
    main_phase = run_phase(args.seconds, false);
    // A run too short for every batch tops up after it.
    while (setups.size() < static_cast<std::size_t>(kSetupBatches) + 1) setup_batch();
    verification = verify_phase(w, main_phase);
    failed = verification.failed_samples;
    attempted = main_phase.samples.size();
    std::int64_t cnot_total = 0;
    for (const FirstOutput& f : main_phase.first) cnot_total += std::max<std::int64_t>(0, f.cnots);
    const std::vector<double> lat = latencies_ms(main_phase);
    const Tail tail = tail_latency(lat, w.tail_pct);
    std::size_t completed = 0;
    for (const Sample& s : main_phase.samples) completed += s.produced ? 1 : 0;
    metrics = {
        {"setup_s", median(setups), "s",
         "median of the first set-up and " + std::to_string(setups.size() - 1) + " batch means of " +
             std::to_string(kSetupBatch)},
        {"latency_p50_ms", median(lat), "ms", std::to_string(lat.size()) + " requests"},
        {"latency_tail_ms", tail.value, "ms",
         "p" + fmt(tail.pct) + " of " + std::to_string(tail.samples) + " samples, " +
             std::to_string(tail.beyond) + " beyond" +
             (tail.rule_met ? "" : " (fewer than 10 beyond p" + fmt(w.tail_pct) + ": maximum)")},
        {"requests_per_s", static_cast<double>(completed) / main_phase.wall_s, "1/s",
         std::to_string(completed) + " completed in " + fmt(main_phase.wall_s) + " s"},
        {"cnot_total", static_cast<double>(cnot_total), "count",
         "one pass of " + std::to_string(w.requests.size()) + " requests"},
        {"peak_rss_mb", peak_rss_mb(), "MB", "benchmark process"},
    };
  } else {
    // Untraced and traced halves of the run; their p50s give the overhead.
    Phase untraced = run_phase(args.seconds / 2, false);
    main_phase = run_phase(args.seconds / 2, true);
    verification = verify_phase(w, main_phase);
    const Verification v0 = verify_phase(w, untraced);
    failed = verification.failed_samples + v0.failed_samples;
    attempted = main_phase.samples.size() + untraced.samples.size();
    verification.verify_s += v0.verify_s;
    verification.verified += v0.verified;
    metrics = layer_metrics(w, main_phase, median(latencies_ms(untraced)), verification, replays);
    // 0 whenever the program is correct, so it cannot be an end-to-end
    // metric (those are never 0); both halves of the run count.
    metrics.push_back({"failed_frac", failed_frac(failed, attempted), "frac",
                       std::to_string(failed) + " of " + std::to_string(attempted) + " requests"});
  }

  std::uint64_t outputs = fnv1a64("");
  for (const FirstOutput& f : main_phase.first) outputs = fnv1a64(f.qasm, outputs);
  std::cout << "# failed_frac = " << fmt(failed_frac(failed, attempted)) << " (" << failed
            << " of " << attempted << " requests; " << main_phase.divergent.size()
            << " distinct repeat outputs differed from their first pass and were verified"
            << " separately)\n"
            << "# first-pass output checksum " << outputs << "\n";
  if (w.name == "dense_tail" || w.name == "service_mixed") {
    for (std::size_t i = 0; i < w.requests.size(); ++i) {
      const FirstOutput& f = main_phase.first[i];
      if (w.requests[i].family != "dicke" || w.requests[i].n < 5) continue;
      std::cout << "# " << w.requests[i].instance << ": cnot " << f.cnots;
      if (w.requests[i].table4_kernel_cnot >= 0) {
        std::cout << " (table4_dicke kernel-only " << w.requests[i].table4_kernel_cnot << ")";
      }
      if (args.trace == 1) {
        std::cout << ", cache hits " << summarize(f.events).hits;
      }
      std::cout << "\n";
    }
  }
  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << fmt(m.value) << " " << m.unit
              << (m.note.empty() ? "" : "  # " + m.note) << "\n";
  }
  write_outputs(args, w, main_phase, replays, prov, metrics);

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": " << fmt(metrics[i].value)
         << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
