// Microbenchmarks for the exact-synthesis primitives: canonical keys,
// move enumeration, arc application, heuristics, the A* kernel (serial
// and sharded HDA*) on the paper's headline instance, and statevector
// simulation.
//
// Two layers:
//  - Optional Google Benchmark suites (only when the build found
//    libbenchmark; QSP_HAVE_GBENCH) for interactive perf work.
//  - A hand-timed kernel sweep that always runs and emits one
//    canonical-schema json_row per kernel cell — this is what
//    bench/baseline/micro_core.jsonl and tools/bench_compare.py consume,
//    so it must not depend on libbenchmark being installed. Each kernel
//    row carries a deterministic output checksum: bench_compare uses it
//    to prove the scalar and AVX2 dispatch paths (util/simd.hpp) compute
//    bit-identical results end to end, not just per primitive.

#include <complex>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "core/astar.hpp"
#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/moves.hpp"
#include "phase/complex_statevector.hpp"
#include "sim/statevector.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

#ifdef QSP_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace qsp;

SlotState benchmark_state(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  return *SlotState::from_state(make_random_uniform(n, m, rng));
}

// ---------------------------------------------------------------------------
// Hand-timed kernel sweep (always built)
// ---------------------------------------------------------------------------

/// FNV-1a over raw bytes: the cross-ISA determinism witness attached to
/// every kernel row.
std::uint64_t checksum_bytes(const void* data, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t checksum_vector(const std::vector<T>& v) {
  return checksum_bytes(v.data(), v.size() * sizeof(T));
}

/// Repeat `body` until the measurement window closes; returns seconds per
/// iteration. One untimed warmup run first.
template <typename F>
double time_kernel(F&& body, std::uint64_t* iters_out) {
  const double min_seconds = qsp::bench::smoke_mode() ? 0.02 : 0.15;
  body();  // warmup (touch caches, fault pages)
  Timer timer;
  std::uint64_t iters = 0;
  do {
    body();
    ++iters;
  } while (timer.seconds() < min_seconds);
  if (iters_out != nullptr) *iters_out = iters;
  return timer.seconds() / static_cast<double>(iters);
}

void kernel_row(const char* kernel, int n, double seconds_per_iter,
                std::uint64_t iters, std::uint64_t checksum) {
  qsp::bench::json_row(
      "micro_core",
      {{"kernel", kernel},
       {"n", n},
       {"seconds_per_iter", seconds_per_iter},
       {"iters", iters},
       {"checksum", checksum},
       {"isa", simd::isa_name(simd::active_isa())}});
}

void emit_canonical_rows() {
  struct Cell {
    const char* kernel;
    CanonicalLevel level;
    int n;
  };
  const Cell cells[] = {
      {"canonical_u2", CanonicalLevel::kU2, 4},
      {"canonical_u2", CanonicalLevel::kU2, 8},
      {"canonical_pu2exact", CanonicalLevel::kPU2Exact, 4},
      {"canonical_pu2exact", CanonicalLevel::kPU2Exact, 6},
      {"canonical_pu2greedy", CanonicalLevel::kPU2Greedy, 6},
      {"canonical_pu2greedy", CanonicalLevel::kPU2Greedy, 10},
  };
  for (const Cell& cell : cells) {
    const SlotState s = benchmark_state(cell.n, 2 * cell.n, 1);
    CanonicalKey key;
    std::uint64_t iters = 0;
    const double spi = time_kernel(
        [&] { key = canonical_key(s, cell.level); }, &iters);
    kernel_row(cell.kernel, cell.n, spi, iters, checksum_vector(key));
  }
}

void emit_heuristic_rows() {
  for (const int n : {6, 10, 14}) {
    const SlotState s = benchmark_state(n, n, 4);
    std::int64_t h = 0;
    std::uint64_t iters = 0;
    const double spi = time_kernel(
        [&] { h = heuristic_lower_bound(s, HeuristicMode::kComponent); },
        &iters);
    kernel_row("heuristic_component", n, spi, iters,
               static_cast<std::uint64_t>(h));
  }
}

void emit_compress_free_row() {
  std::vector<BasisIndex> idx;
  for (BasisIndex x = 0; x < 16; ++x) idx.push_back(x);
  const SlotState s = SlotState::from_indices(4, idx);
  const std::uint64_t ck = compress_free(s).total();
  std::uint64_t total = 0;
  std::uint64_t iters = 0;
  const double spi = time_kernel(
      [&] { total += compress_free(s).total(); }, &iters);
  (void)total;
  kernel_row("compress_free", 4, spi, iters, ck);
}

std::uint64_t checksum_amp(const Statevector& sv) {
  return checksum_vector(sv.amplitudes());
}

std::uint64_t checksum_amp(const ComplexStatevector& sv) {
  return checksum_bytes(
      sv.amplitudes().data(),
      sv.amplitudes().size() * sizeof(std::complex<double>));
}

/// Time one gate sequence on `sv`, attaching as checksum the amplitudes
/// after a single deterministic application on a copy of the initial
/// state. The timing loop then iterates on `sv` freely: rotation drift
/// there cannot leak into the checksum, so the row is reproducible no
/// matter how many iterations the measurement window admits.
template <typename SV, typename Body>
void sv_kernel_row(const char* kernel, int n, SV& sv, Body&& body) {
  SV probe = sv;
  body(probe);
  const std::uint64_t ck = checksum_amp(probe);
  std::uint64_t iters = 0;
  const double spi = time_kernel([&] { body(sv); }, &iters);
  kernel_row(kernel, n, spi, iters, ck);
}

void emit_statevector_rows() {
  const int n = qsp::bench::smoke_mode() ? 14 : 18;
  const double theta = 0.3;

  const auto warmed = [](int qubits) {
    Statevector sv(qubits);
    for (int q = 0; q < qubits; ++q) sv.apply(Gate::ry(q, 0.2 + 0.01 * q));
    return sv;
  };

  {
    // CNOT on a non-trivial state: block swaps over contiguous strides.
    Statevector sv = warmed(n);
    const Gate fwd = Gate::cnot(0, n - 1);
    const Gate bwd = Gate::cnot(n - 1, 0);
    sv_kernel_row("sv_cnot", n, sv, [&](Statevector& s) {
      s.apply(fwd);
      s.apply(bwd);
    });
  }

  {
    // Plain Ry: the dense rotate-pairs kernel, full 2^(n-1) pair sweep.
    Statevector sv = warmed(n);
    const Gate plus = Gate::ry(n / 2, theta);
    const Gate minus = Gate::ry(n / 2, -theta);
    sv_kernel_row("sv_ry", n, sv, [&](Statevector& s) {
      s.apply(plus);
      s.apply(minus);
    });
  }

  {
    // Multi-controlled Ry: masked pair sweep (run decomposition path).
    Statevector sv = warmed(n);
    const std::vector<ControlLiteral> controls = {{1, true}, {n - 2, false}};
    const Gate plus = Gate::mcry(controls, n / 2, theta);
    const Gate minus = Gate::mcry(controls, n / 2, -theta);
    sv_kernel_row("sv_mcry", n, sv, [&](Statevector& s) {
      s.apply(plus);
      s.apply(minus);
    });
  }

  {
    // Uniformly controlled Ry: per-pattern angles, table-driven runs.
    Statevector sv = warmed(n);
    const std::vector<int> controls = {0, 1, n - 1};
    std::vector<double> angles(8);
    std::vector<double> neg(8);
    for (std::size_t s = 0; s < angles.size(); ++s) {
      angles[s] = 0.1 + 0.05 * static_cast<double>(s);
      neg[s] = -angles[s];
    }
    const Gate plus = Gate::ucry(controls, n / 2, angles);
    const Gate minus = Gate::ucry(controls, n / 2, neg);
    sv_kernel_row("sv_ucry", n, sv, [&](Statevector& s) {
      s.apply(plus);
      s.apply(minus);
    });
  }

  {
    // Complex path: Rz diagonal (unit-complex scaling) plus UCRz runs.
    const int nc = n - 2;
    ComplexStatevector sv(nc);
    for (int q = 0; q < nc; ++q) sv.apply(Gate::ry(q, 0.2 + 0.01 * q));
    const std::vector<int> controls = {0, nc - 1};
    std::vector<double> angles(4);
    std::vector<double> neg(4);
    for (std::size_t s = 0; s < angles.size(); ++s) {
      angles[s] = 0.2 + 0.05 * static_cast<double>(s);
      neg[s] = -angles[s];
    }
    const Gate rz_plus = Gate::rz(nc / 2, theta);
    const Gate rz_minus = Gate::rz(nc / 2, -theta);
    const Gate uc_plus = Gate::ucrz(controls, nc / 2, angles);
    const Gate uc_minus = Gate::ucrz(controls, nc / 2, neg);
    sv_kernel_row("csv_rz_ucrz", nc, sv, [&](ComplexStatevector& s) {
      s.apply(rz_plus);
      s.apply(uc_plus);
      s.apply(uc_minus);
      s.apply(rz_minus);
    });
  }
}

/// One canonical-schema json_row per exact-kernel instance (end-to-end
/// searches), with queue- and arena-pressure stats next to the timing.
void emit_search_rows() {
  struct Cell {
    const char* instance;
    QuantumState state;
  };
  Rng rng(9);
  const Cell cells[] = {{"Dicke(4,2)", make_dicke(4, 2)},
                        {"rand(4,5)", make_random_uniform(4, 5, rng)}};
  for (const Cell& cell : cells) {
    for (const int threads : {1, 2, 8}) {
      SearchOptions options;
      options.num_threads = threads;
      const SynthesisResult res =
          AStarSynthesizer(options).synthesize(cell.state);
      qsp::bench::json_row(
          "micro_core",
          {{"instance", cell.instance},
           {"method", "astar"},
           {"cnot_cost", res.cnot_cost},
           {"optimal", res.optimal},
           {"seconds", res.stats.seconds},
           {"threads", threads},
           {"sum_shard_peak_open_size", res.stats.sum_shard_peak_open_size},
           {"stale_pops", res.stats.stale_pops},
           {"arena_blocks", res.stats.arena_blocks},
           {"arena_bytes_peak", res.stats.arena_bytes_peak},
           {"isa", simd::isa_name(simd::active_isa())}});
    }
  }
}

void emit_kernel_json() {
  emit_canonical_rows();
  emit_heuristic_rows();
  emit_compress_free_row();
  emit_statevector_rows();
  emit_search_rows();
}

// ---------------------------------------------------------------------------
// Google Benchmark suites (optional)
// ---------------------------------------------------------------------------

#ifdef QSP_HAVE_GBENCH

void BM_CanonicalKeyU2(benchmark::State& state) {
  const SlotState s = benchmark_state(static_cast<int>(state.range(0)), 8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonical_key(s, CanonicalLevel::kU2));
  }
}
BENCHMARK(BM_CanonicalKeyU2)->Arg(4)->Arg(6)->Arg(8);

void BM_CanonicalKeyPU2Exact(benchmark::State& state) {
  const SlotState s = benchmark_state(static_cast<int>(state.range(0)), 8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonical_key(s, CanonicalLevel::kPU2Exact));
  }
}
BENCHMARK(BM_CanonicalKeyPU2Exact)->Arg(4)->Arg(5)->Arg(6);

void BM_CanonicalKeyPU2Greedy(benchmark::State& state) {
  const SlotState s = benchmark_state(static_cast<int>(state.range(0)), 8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonical_key(s, CanonicalLevel::kPU2Greedy));
  }
}
BENCHMARK(BM_CanonicalKeyPU2Greedy)->Arg(4)->Arg(6)->Arg(8);

void BM_EnumerateMoves(benchmark::State& state) {
  const SlotState s =
      benchmark_state(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)), 2);
  MoveGenOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_moves(s, options));
  }
}
BENCHMARK(BM_EnumerateMoves)->Args({4, 8})->Args({4, 16})->Args({6, 12});

void BM_ApplyMove(benchmark::State& state) {
  const SlotState s = benchmark_state(4, 8, 3);
  const auto moves = enumerate_moves(s, MoveGenOptions{});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(apply_move(s, moves[i % moves.size()]));
    ++i;
  }
}
BENCHMARK(BM_ApplyMove);

void BM_HeuristicComponent(benchmark::State& state) {
  const SlotState s = benchmark_state(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        heuristic_lower_bound(s, HeuristicMode::kComponent));
  }
}
BENCHMARK(BM_HeuristicComponent)->Arg(6)->Arg(10)->Arg(14);

/// Attach the queue-pressure stats of the last run so regressions in
/// open-list discipline show up next to the timing.
void attach_search_counters(benchmark::State& state,
                            const SynthesisResult& res) {
  state.counters["sum_shard_peak_open"] =
      static_cast<double>(res.stats.sum_shard_peak_open_size);
  state.counters["stale_pops"] = static_cast<double>(res.stats.stale_pops);
  state.counters["classes"] = static_cast<double>(res.stats.classes_stored);
  state.counters["arena_bytes_peak"] =
      static_cast<double>(res.stats.arena_bytes_peak);
}

void BM_AStarDicke42(benchmark::State& state) {
  const QuantumState target = make_dicke(4, 2);
  const AStarSynthesizer synth;
  SynthesisResult res;
  for (auto _ : state) {
    res = synth.synthesize(target);
    benchmark::DoNotOptimize(res);
  }
  attach_search_counters(state, res);
}
BENCHMARK(BM_AStarDicke42)->Unit(benchmark::kMillisecond);

void BM_AStarRandom45(benchmark::State& state) {
  Rng rng(9);
  const QuantumState target = make_random_uniform(4, 5, rng);
  const AStarSynthesizer synth;
  SynthesisResult res;
  for (auto _ : state) {
    res = synth.synthesize(target);
    benchmark::DoNotOptimize(res);
  }
  attach_search_counters(state, res);
}
BENCHMARK(BM_AStarRandom45)->Unit(benchmark::kMillisecond);

void BM_ParallelAStarDicke42(benchmark::State& state) {
  const QuantumState target = make_dicke(4, 2);
  SearchOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  const AStarSynthesizer synth(options);
  SynthesisResult res;
  for (auto _ : state) {
    res = synth.synthesize(target);
    benchmark::DoNotOptimize(res);
  }
  attach_search_counters(state, res);
}
BENCHMARK(BM_ParallelAStarDicke42)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_StatevectorCnot(benchmark::State& state) {
  Statevector sv(static_cast<int>(state.range(0)));
  sv.apply(Gate::ry(0, 0.3));
  const Gate cnot = Gate::cnot(0, 1);
  for (auto _ : state) {
    sv.apply(cnot);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_StatevectorCnot)->Arg(10)->Arg(16)->Arg(20);

void BM_CompressFree(benchmark::State& state) {
  // Product-heavy state: every qubit separable.
  std::vector<BasisIndex> idx;
  for (BasisIndex x = 0; x < 16; ++x) idx.push_back(x);
  const SlotState s = SlotState::from_indices(4, idx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress_free(s));
  }
}
BENCHMARK(BM_CompressFree);

#endif  // QSP_HAVE_GBENCH

}  // namespace

int main(int argc, char** argv) {
#ifdef QSP_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#else
  (void)argc;
  (void)argv;
#endif
  emit_kernel_json();
  return 0;
}
