#pragma once
// Shared fixtures for the differential pass harness: seeded random-circuit
// corpora spanning every gate kind the pipeline rewrites (X, Ry, CNOT, CRy,
// MCRy, UCRy and the z-axis Rz/UCRz), coupled corpora whose circuits are
// native for a device, and preparation-overlap helpers. Built as the
// qsp_test_util static library and linked into every test binary, so the
// pass, peephole and QASM property tests draw from the same distribution.

#include <cstdint>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "util/rng.hpp"

namespace qsp::test {

struct CorpusOptions {
  /// Register widths the corpus spans.
  std::vector<int> widths = {2, 3, 4, 5};
  int circuits_per_width = 6;
  int gates_per_circuit = 40;
  std::uint64_t seed = 0xC0FFEE;
  /// Include z-axis gates (Rz/UCRz), which force the complex-statevector
  /// verification path.
  bool with_phase_gates = true;
  /// Fraction of rotation angles drawn below the dead-rotation epsilon.
  double near_zero_fraction = 0.15;
  /// Fraction of gates that duplicate a recently emitted gate, seeding
  /// cancellation and fusion opportunities the passes should find.
  double duplicate_fraction = 0.25;
};

/// One random gate over an n-qubit register (n >= 2). Draws across every
/// kind; MCRy needs n >= 3 and is replaced by CRy on two wires.
Gate random_gate(int n, Rng& rng, const CorpusOptions& options);

/// Random circuit of `size` gates, duplicate-seeded per CorpusOptions.
Circuit random_circuit(int n, int size, Rng& rng,
                       const CorpusOptions& options = {});

/// The standard corpus: circuits_per_width circuits per width, seeded, so
/// every property test sees the same instances.
std::vector<Circuit> random_circuit_corpus(const CorpusOptions& options = {});

/// Random circuit that is native for `device` (respects_coupling holds):
/// single-qubit x/ry/rz plus CNOTs on coupling edges only, with the same
/// duplicate seeding as random_circuit.
Circuit random_coupled_circuit(const CouplingGraph& device, int size, Rng& rng,
                               const CorpusOptions& options = {});

/// |<a|b>| of the states the two circuits prepare from |0...0>, via the
/// conjugate inner product; uses the complex statevector when either
/// circuit carries z-axis, iSwap or RZZ gates. Registers must match.
/// Because the modulus discards the global phase, this is the
/// cross-gate-set equivalence check for legalized circuits: a circuit
/// and its lower_onto(target) image must score 1 for every target even
/// when the native decompositions differ from CNOT by a global phase.
double preparation_overlap(const Circuit& a, const Circuit& b);

/// FNV-1a checksum of a gate sequence: kind, wires, control polarity and
/// every angle rounded to 1e-9, so the value is the same in builds that
/// contract floating-point arithmetic differently. Continues from `hash`,
/// so several circuits chain into one corpus checksum.
inline constexpr std::uint64_t kGateChecksumSeed = 1469598103934665603ull;
std::uint64_t gate_sequence_checksum(const Circuit& circuit,
                                     std::uint64_t hash = kGateChecksumSeed);

}  // namespace qsp::test
