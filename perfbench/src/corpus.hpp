#pragma once
// Seeded request workloads. Every workload is one pass of requests built
// from the seed alone; the library only ever sees the generated states.
// The same seed gives the same corpus bit for bit (corpus_checksum), and
// another seed gives a different corpus of the same shape (corpus_shape).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "state/quantum_state.hpp"

namespace perfbench {

struct Request {
  std::string instance;  ///< unique within the workload's pass
  std::string family;    ///< dicke, w, dense_uniform, dense_real, uniform4, table5, wide_sparse
  int n = 0;
  int m = 0;
  qsp::QuantumState state{1};
  std::string device = "all";  ///< all, line4, line5, grid4x4
  std::shared_ptr<const qsp::CouplingGraph> coupling;  ///< null = all-to-all
  /// Kernel-only CNOT count that bench/table4_dicke reports for this Dicke
  /// state (-1 = none), carried next to the production-path count.
  std::int64_t table4_kernel_cnot = -1;
};

struct Workload {
  std::string name;
  /// Requests go through SynthesisService::submit (else Solver::prepare).
  bool service = false;
  /// Fixed tail percentile reported as latency_tail_ms; fixed per
  /// workload so a faster program cannot change which percentile is read.
  double tail_pct = 90.0;
  std::vector<Request> requests;  ///< one pass
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// FNV-1a over every request's identity, device and amplitudes.
std::uint64_t corpus_checksum(const Workload& workload);

/// Seed-independent shape: "family:n:m:device" per request, in order.
std::vector<std::string> corpus_shape(const Workload& workload);

/// Default seed of the benchmark, and the held-out seed kept for checking
/// a claimed gain on inputs the change was not tuned on.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 20240101;

}  // namespace perfbench
