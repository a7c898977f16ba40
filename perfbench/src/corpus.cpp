#include "corpus.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "state/state_factory.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using qsp::BasisIndex;
using qsp::CouplingGraph;
using qsp::QuantumState;
using qsp::Rng;
using qsp::Term;

std::shared_ptr<const CouplingGraph> make_device(const std::string& name) {
  if (name == "all") return nullptr;
  if (name == "line4") return std::make_shared<const CouplingGraph>(CouplingGraph::line(4));
  if (name == "line5") return std::make_shared<const CouplingGraph>(CouplingGraph::line(5));
  if (name == "grid4x4") return std::make_shared<const CouplingGraph>(CouplingGraph::grid(4, 4));
  throw std::invalid_argument("unknown device " + name);
}

Request request(std::string instance, std::string family, QuantumState state,
                const std::string& device = "all") {
  Request r;
  r.instance = std::move(instance);
  r.family = std::move(family);
  r.n = state.num_qubits();
  r.m = state.cardinality();
  r.state = std::move(state);
  r.device = device;
  // Each request carries its own device description, as a request sent
  // to a service would.
  r.coupling = make_device(device);
  return r;
}

/// Relabel qubits: bit perm[q] of the new index is bit q of the old one.
QuantumState permuted(const QuantumState& s, const std::vector<int>& perm) {
  std::vector<Term> terms;
  for (const Term& t : s.terms()) {
    BasisIndex idx = 0;
    for (int q = 0; q < s.num_qubits(); ++q) {
      if (qsp::get_bit(t.index, q) != 0) idx |= BasisIndex{1} << perm[q];
    }
    terms.push_back(Term{idx, t.amplitude});
  }
  return QuantumState(s.num_qubits(), std::move(terms));
}

QuantumState translated(const QuantumState& s, BasisIndex mask) {
  std::vector<Term> terms;
  for (const Term& t : s.terms()) terms.push_back(Term{t.index ^ mask, t.amplitude});
  return QuantumState(s.num_qubits(), std::move(terms));
}

/// Interleave groups round-robin so every stretch of a pass mixes them.
std::vector<Request> interleave(std::vector<std::vector<Request>> groups) {
  std::vector<Request> out;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& g : groups) {
      if (i < g.size()) {
        out.push_back(std::move(g[i]));
        any = true;
      }
    }
    if (!any) return out;
  }
}

Workload dense_tail(Rng& rng) {
  Workload w{"dense_tail", false, 90.0, {}};
  std::vector<Request> named;
  Request d63 = request("dicke_6_3", "dicke", qsp::make_dicke(6, 3));
  d63.table4_kernel_cnot = 16;
  Request d52 = request("dicke_5_2", "dicke", qsp::make_dicke(5, 2));
  d52.table4_kernel_cnot = 14;
  named.push_back(std::move(d63));
  named.push_back(std::move(d52));
  named.push_back(request("dicke_6_2", "dicke", qsp::make_dicke(6, 2)));
  named.push_back(request("w_6", "w", qsp::make_w(6)));
  std::vector<Request> uniform, real;
  for (int n = 5; n <= 8; ++n) {
    const int m = 1 << (n - 1);
    uniform.push_back(request("dense_uniform_n" + std::to_string(n), "dense_uniform",
                              qsp::make_random_uniform(n, m, rng)));
    real.push_back(request("dense_real_n" + std::to_string(n), "dense_real",
                           qsp::make_random_real(n, m, rng)));
  }
  w.requests = interleave({std::move(named), std::move(uniform), std::move(real)});
  return w;
}

/// A random X-translation and qubit relabelling of `s`: a state of the
/// same equivalence class, so the same exact-search work all-to-all.
QuantumState class_member(const QuantumState& s, Rng& rng, bool permute) {
  const auto mask = static_cast<BasisIndex>(rng.next_below(BasisIndex{1} << s.num_qubits()));
  std::vector<int> perm(static_cast<std::size_t>(s.num_qubits()));
  std::iota(perm.begin(), perm.end(), 0);
  if (permute) rng.shuffle(perm);
  return permuted(translated(s, mask), perm);
}

/// The fixed pool of 4-qubit classes: `per_m` random uniform states for
/// each m in [3, 6], drawn from `pool`. m stops at 6: from m = 7 some
/// line(4) searches take 0.4-1.1 s and exhaust the 1 s A* budget, which
/// would make the CNOT count depend on machine load.
std::vector<std::pair<std::string, QuantumState>> four_qubit_pool(Rng& pool, int per_m) {
  std::vector<std::pair<std::string, QuantumState>> states;
  for (int k = 0; k < per_m; ++k) {
    for (int m = 3; m <= 6; ++m) {
      std::string name = "u4_m";
      name += std::to_string(m) + "_" + std::to_string(k);
      states.emplace_back(std::move(name), qsp::make_random_uniform(4, m, pool));
    }
  }
  states.emplace_back("dicke_4_2", qsp::make_dicke(4, 2));
  states.emplace_back("w_4", qsp::make_w(4));
  return states;
}

std::string family_of(const std::string& name) {
  return name.rfind("u4_", 0) == 0 ? "uniform4" : name.substr(0, name.find('_'));
}

Workload exact_small(Rng& pool, Rng& rng) {
  Workload w{"exact_small", false, 90.0, {}};
  // The seed picks a class member of every pooled state: translated and
  // relabelled all-to-all, translated only on the line (relabelling is not
  // free there). Search times vary by orders of magnitude between classes,
  // so drawing the classes themselves from the seed would make the
  // latency figures measure the draw, not the program.
  std::vector<Request> all, line;
  for (const auto& [name, state] : four_qubit_pool(pool, 24)) {
    all.push_back(request(name, family_of(name), class_member(state, rng, true), "all"));
    line.push_back(request(name + "@line4", family_of(name), class_member(state, rng, false),
                           "line4"));
  }
  w.requests = interleave({std::move(all), std::move(line)});
  return w;
}

Workload sparse_table5(Rng& rng) {
  Workload w{"sparse_table5", false, 99.0, {}};
  constexpr int kPerCell = 20;
  for (int k = 0; k < kPerCell; ++k) {
    for (int n = 10; n <= 20; n += 2) {
      for (const int m : {n, 2 * n}) {
        w.requests.push_back(request("t5_n" + std::to_string(n) + "_m" + std::to_string(m) +
                                         "_" + std::to_string(k),
                                     "table5", qsp::make_random_uniform(n, m, rng)));
      }
    }
  }
  return w;
}

Workload service_mixed(Rng& pool, Rng& rng) {
  Workload w{"service_mixed", true, 90.0, {}};
  // Ten 4-qubit classes from the fixed pool, each requested as a seeded
  // class member, a repeat of it, an X-translated and a qubit-permuted
  // variant, all-to-all and on line(5). All-to-all, every variant lands in
  // one permutation class (exact and rewired hits); on the line,
  // permutations leave the class (routed templates searched afresh).
  auto classes = four_qubit_pool(pool, 2);
  std::vector<Request> small;
  for (const auto& [name, pooled] : classes) {
    const QuantumState base = class_member(pooled, rng, false);
    const auto mask = static_cast<BasisIndex>(1 + rng.next_below(15));
    std::vector<int> perm(4);
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
    for (const std::string device : {"all", "line5"}) {
      const std::string at = "@" + device;
      small.push_back(request(name + at, family_of(name), base, device));
      small.push_back(request(name + "_x" + at, family_of(name), translated(base, mask), device));
      small.push_back(request(name + "_p" + at, family_of(name), permuted(base, perm), device));
      small.push_back(request(name + "_r" + at, family_of(name), base, device));
    }
  }
  // Wide sparse states on a 16-qubit grid: spare device wires are
  // workspace, so routing and the static ancilla certification do work.
  // Pooled states, X-translated by the seed (translation keeps every
  // pairwise Hamming distance, so the reduction does the same work).
  std::vector<Request> wide;
  for (int k = 0; k < 4; ++k) {
    for (const int n : {10, 12, 14}) {
      const QuantumState pooled = qsp::make_random_uniform(n, n, pool);
      wide.push_back(request("wide_n" + std::to_string(n) + "_" + std::to_string(k),
                             "wide_sparse", class_member(pooled, rng, false), "grid4x4"));
    }
  }
  // Heavy repeats that miss the cache on every request at the seed commit.
  std::vector<Request> heavy;
  const QuantumState dense6 = class_member(qsp::make_random_uniform(6, 32, pool), rng, false);
  for (int k = 0; k < 3; ++k) {
    heavy.push_back(request("dicke_6_3_r" + std::to_string(k), "dicke", qsp::make_dicke(6, 3)));
    heavy.push_back(request("dense_n6_r" + std::to_string(k), "dense_uniform", dense6));
  }
  // Spread the heavy requests out over the pass.
  std::vector<Request> light = interleave({std::move(small), std::move(wide)});
  const std::size_t stride = light.size() / heavy.size();
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    for (std::size_t j = 0; j < stride && !light.empty(); ++j) {
      w.requests.push_back(std::move(light.front()));
      light.erase(light.begin());
    }
    w.requests.push_back(std::move(heavy[i]));
  }
  for (auto& r : light) w.requests.push_back(std::move(r));
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dense_tail", "exact_small",
                                                 "sparse_table5", "service_mixed"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  // Each workload draws from its own stream so adding one never shifts
  // another's inputs.
  Rng rng(seed * 0x9e3779b97f4a7c15ull ^ fnv1a64(name));
  // Fixed pools of classes for the workloads whose seed only picks class
  // members (see exact_small); independent of the seed by design.
  Rng pool(fnv1a64("pool:" + name));
  if (name == "dense_tail") return dense_tail(rng);
  if (name == "exact_small") return exact_small(pool, rng);
  if (name == "sparse_table5") return sparse_table5(rng);
  if (name == "service_mixed") return service_mixed(pool, rng);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t corpus_checksum(const Workload& workload) {
  std::uint64_t h = fnv1a64(workload.name);
  for (const Request& r : workload.requests) {
    h = fnv1a64(r.instance + "|" + r.device + "|" + std::to_string(r.n), h);
    for (const Term& t : r.state.terms()) {
      char bytes[sizeof(BasisIndex) + sizeof(double)];
      std::memcpy(bytes, &t.index, sizeof(BasisIndex));
      std::memcpy(bytes + sizeof(BasisIndex), &t.amplitude, sizeof(double));
      h = fnv1a64(std::string_view(bytes, sizeof(bytes)), h);
    }
  }
  return h;
}

std::vector<std::string> corpus_shape(const Workload& workload) {
  std::vector<std::string> shape;
  for (const Request& r : workload.requests) {
    shape.push_back(r.family + ":" + std::to_string(r.n) + ":" + std::to_string(r.m) + ":" +
                    r.device);
  }
  return shape;
}

}  // namespace perfbench
