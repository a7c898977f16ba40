// Figure 7 reproduction: CPU time versus qubit count for (a) dense states
// m = 2^{n-1} and (b) sparse states m = n, comparing n-flow, m-flow and
// ours. Prints one data series per method (seconds, averaged per n) —
// the same series the paper plots on a log axis.
//
// Sections (c)/(d) go beyond the paper: thread scaling of the exact
// kernel (the HDA* search of core/astar.hpp at 1, 2 and 8 shards),
// asserting that every thread count reproduces the one-shard cost and
// certificate while reporting wall time and the queue-pressure stats
// (summed per-shard peak open size, stale pops); and thread scaling of
// the anytime beam (core/beam.hpp), asserting bit-identical circuits at
// every thread count. The JSON field `speedup_vs_serial` is the speedup
// over the one-shard run.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/astar.hpp"
#include "core/beam.hpp"
#include "state/state_factory.hpp"
#include "table5_common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace qsp;
using namespace qsp::bench;

void sweep(const std::string& title, bool dense, int n_min, int n_max,
           int samples, double time_limit, int mflow_cap) {
  std::cout << title << "\n";
  const std::string family = dense ? "dense" : "sparse";
  TextTable table({"n", "m", "n-flow [s]", "m-flow [s]", "ours [s]"});
  for (int n = n_min; n <= n_max; ++n) {
    const int m = dense ? (1 << (n - 1)) : n;
    std::vector<Method> skip{Method::kHybrid};
    if (n > mflow_cap) skip.push_back(Method::kMFlow);
    const SweepRow row = run_cell(n, m, samples, time_limit,
                                  dense ? 0x700u + static_cast<unsigned>(n)
                                        : 0x800u + static_cast<unsigned>(n),
                                  /*verify=*/false, skip);
    emit_sweep_json("fig7_runtime", family, row);
    auto sec = [&](int i) {
      return row.per_method[i].tle
                 ? std::string("TLE")
                 : TextTable::fmt(row.per_method[i].mean_seconds, 4);
    };
    table.add_row({TextTable::fmt(n), TextTable::fmt(m), sec(1), sec(0),
                   sec(3)});
  }
  std::cout << table.render() << "\n";
}

/// Exact-kernel thread scaling on instances one shard certifies. Every
/// thread count must reproduce the one-shard cnot_cost and optimal flag —
/// a runtime check of the sharded certificate, not just a timing.
void thread_scaling() {
  std::cout << "(c) exact kernel thread scaling (sharded HDA*)\n";
  struct Instance {
    std::string name;
    QuantumState state;
  };
  std::vector<Instance> instances;
  instances.push_back({"Dicke(4,2)", make_dicke(4, 2)});
  Rng rng(0x7C);
  instances.push_back({"rand(4,10)", make_random_uniform(4, 10, rng)});
  instances.push_back({"rand(4,12)", make_random_uniform(4, 12, rng)});
  instances.push_back({"rand(5,5)", make_random_uniform(5, 5, rng)});
  if (!smoke_mode()) {
    instances.push_back({"rand(5,6)", make_random_uniform(5, 6, rng)});
  }

  const std::vector<int> thread_counts = smoke_mode()
                                             ? std::vector<int>{1, 2}
                                             : std::vector<int>{1, 2, 8};
  TextTable table({"instance", "threads", "time [s]", "speedup", "CNOTs",
                   "optimal", "sum shard peak", "stale pops"});
  bool first_instance = true;
  for (const Instance& inst : instances) {
    if (!first_instance) table.add_separator();
    first_instance = false;
    double serial_seconds = 0.0;
    std::int64_t serial_cost = -1;
    for (const int threads : thread_counts) {
      SearchOptions options;
      options.num_threads = threads;
      const AStarSynthesizer synth(options);
      const SynthesisResult res = synth.synthesize(inst.state);
      if (!res.found) {
        std::cerr << "exact kernel failed on " << inst.name << "\n";
        std::exit(1);
      }
      if (threads == 1) {
        serial_seconds = res.stats.seconds;
        serial_cost = res.cnot_cost;
      } else if (res.cnot_cost != serial_cost || !res.optimal) {
        std::cerr << "CERTIFICATE MISMATCH on " << inst.name << " at "
                  << threads << " threads: cost " << res.cnot_cost
                  << " vs one shard " << serial_cost << "\n";
        std::exit(1);
      }
      const double speedup =
          res.stats.seconds > 0.0 ? serial_seconds / res.stats.seconds : 1.0;
      table.add_row({inst.name, TextTable::fmt(threads),
                     TextTable::fmt(res.stats.seconds, 4),
                     TextTable::fmt(speedup, 2) + "x",
                     TextTable::fmt(res.cnot_cost),
                     res.optimal ? "yes" : "NO",
                     TextTable::fmt(res.stats.sum_shard_peak_open_size),
                     TextTable::fmt(res.stats.stale_pops)});
      json_row("fig7_runtime",
               {{"instance", inst.name},
                {"family", "exact_kernel"},
                {"method", "astar"},
                {"cnot_cost", res.cnot_cost},
                {"optimal", res.optimal},
                {"seconds", res.stats.seconds},
                {"threads", threads},
                {"speedup_vs_serial", speedup},
                {"sum_shard_peak_open_size", res.stats.sum_shard_peak_open_size},
                {"stale_pops", res.stats.stale_pops}});
    }
  }
  std::cout << table.render() << "\n";
}

/// Beam-kernel thread scaling on the anytime path: the sharded beam
/// (core/beam.hpp) must reproduce the one-shard descent's circuit and
/// cnot_cost bit for bit at every thread count — re-checked here at every
/// bench run, alongside wall time and generated-node counts per cell.
void beam_thread_scaling() {
  std::cout << "(d) beam kernel thread scaling (sharded beam)\n";
  struct Instance {
    std::string name;
    QuantumState state;
    int beam_width;
  };
  std::vector<Instance> instances;
  instances.push_back({"Dicke(4,2)", make_dicke(4, 2), 128});
  instances.push_back({"Dicke(5,1)", make_dicke(5, 1), 256});
  Rng rng(0x7D);
  instances.push_back({"rand(5,6)", make_random_uniform(5, 6, rng), 256});
  if (!smoke_mode()) {
    instances.push_back({"Dicke(5,2)", make_dicke(5, 2), 256});
    instances.push_back({"rand(5,8)", make_random_uniform(5, 8, rng), 512});
  }

  const std::vector<int> thread_counts = smoke_mode()
                                             ? std::vector<int>{1, 2}
                                             : std::vector<int>{1, 2, 8};
  TextTable table({"instance", "threads", "time [s]", "speedup", "CNOTs",
                   "nodes", "classes"});
  bool first_instance = true;
  for (const Instance& inst : instances) {
    if (!first_instance) table.add_separator();
    first_instance = false;
    double serial_seconds = 0.0;
    SynthesisResult serial;
    for (const int threads : thread_counts) {
      BeamOptions options;
      options.beam_width = inst.beam_width;
      options.num_threads = threads;
      const BeamSynthesizer synth(options);
      const SynthesisResult res = synth.synthesize(inst.state);
      if (!res.found) {
        std::cerr << "beam kernel failed on " << inst.name << "\n";
        std::exit(1);
      }
      if (threads == 1) {
        serial_seconds = res.stats.seconds;
        serial = res;
      } else if (res.cnot_cost != serial.cnot_cost ||
                 res.circuit != serial.circuit ||
                 res.stats.nodes_generated != serial.stats.nodes_generated) {
        std::cerr << "BEAM DETERMINISM MISMATCH on " << inst.name << " at "
                  << threads << " threads: cost " << res.cnot_cost
                  << " vs one shard " << serial.cnot_cost << "\n";
        std::exit(1);
      }
      const double speedup =
          res.stats.seconds > 0.0 ? serial_seconds / res.stats.seconds : 1.0;
      table.add_row({inst.name, TextTable::fmt(threads),
                     TextTable::fmt(res.stats.seconds, 4),
                     TextTable::fmt(speedup, 2) + "x",
                     TextTable::fmt(res.cnot_cost),
                     TextTable::fmt(res.stats.nodes_generated),
                     TextTable::fmt(res.stats.classes_stored)});
      json_row("fig7_runtime",
               {{"instance", inst.name},
                {"family", "beam_kernel"},
                {"method", "beam"},
                {"cnot_cost", res.cnot_cost},
                {"optimal", res.optimal},
                {"seconds", res.stats.seconds},
                {"threads", threads},
                {"speedup_vs_serial", speedup},
                {"nodes_generated", res.stats.nodes_generated},
                {"classes_stored", res.stats.classes_stored}});
    }
  }
  std::cout << table.render() << "\n";
}

}  // namespace

int main() {
  using namespace qsp;
  using namespace qsp::bench;
  print_banner(
      "Figure 7: CPU time analysis",
      "Wall-clock seconds per instance (averaged). The paper's claims:\n"
      "comparable CPU time to the baselines, better scaling with n; the\n"
      "m-flow hits the time limit on large dense instances. Section (c)\n"
      "adds exact-kernel thread scaling with the certificate re-checked\n"
      "at every thread count; section (d) adds beam-kernel thread\n"
      "scaling with bit-identity across thread counts re-checked.");

  const bool full = full_mode();
  const bool smoke = smoke_mode();
  const int samples = full ? 10 : (smoke ? 1 : 3);
  const double limit = full ? 3600.0 : (smoke ? 5.0 : 60.0);

  sweep("(a) dense states (m = 2^(n-1))", /*dense=*/true, 6,
        full ? 18 : (smoke ? 8 : 12), samples, limit,
        full ? 16 : (smoke ? 8 : 10));
  sweep("(b) sparse states (m = n)", /*dense=*/false, 6,
        full ? 20 : (smoke ? 9 : 14), samples, limit,
        full ? 20 : (smoke ? 9 : 14));
  thread_scaling();
  beam_thread_scaling();

  std::cout << "Shape targets from the paper: all methods are fast on\n"
               "sparse states; on dense states m-flow grows super-\n"
               "exponentially and TLEs first, while ours tracks n-flow.\n"
               "Sections (c)/(d): speedup grows with instance hardness and\n"
               "the machine's core count; on a single-core host the sharded\n"
               "kernels only add coordination overhead. Section (d)\n"
               "re-checks that the beam is bit-identical at every thread\n"
               "count.\n";
  return 0;
}
