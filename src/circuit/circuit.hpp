#pragma once
// Ordered gate list over an n-qubit register. Gates are applied left to
// right: state' = U_l ... U_2 U_1 |state>.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace qsp {

class Circuit {
 public:
  explicit Circuit(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  const std::vector<Gate>& gates() const { return gates_; }
  std::size_t size() const { return gates_.size(); }
  bool empty() const { return gates_.empty(); }

  /// Append one gate; it must fit the register.
  void append(Gate gate);

  /// Append every gate of `other` (register widths must match; a narrower
  /// circuit may be appended onto a wider register).
  void append(const Circuit& other);

  /// Release spare gate capacity (the gates are moved, not copied), so a
  /// circuit kept after building holds exactly size() gates.
  void shrink_to_fit() { gates_.shrink_to_fit(); }
  std::size_t capacity() const { return gates_.capacity(); }

  /// Reversed circuit of adjoint gates; undoes this circuit.
  Circuit adjoint() const;

  /// Total CNOT cost under the Table-I cost model (see cost_model.hpp).
  std::int64_t cnot_cost() const;

  /// Wire-parallel circuit depth: gates on disjoint wires share a layer,
  /// gates sharing any wire (target or control) stack. 0 when empty.
  std::size_t depth() const;

  /// Gate-count histogram by kind.
  std::map<GateKind, std::size_t> gate_counts() const;

  /// One gate per line.
  std::string to_string() const;

  /// ASCII circuit diagram (one wire per qubit); intended for small
  /// circuits in examples and figure reproductions.
  std::string draw() const;

  friend bool operator==(const Circuit&, const Circuit&) = default;

 private:
  int num_qubits_;
  std::vector<Gate> gates_;
};

}  // namespace qsp
