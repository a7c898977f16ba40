#pragma once
// Build and run provenance stamped on every benchmark output, so numbers
// from different commits, compilers or ISAs are never compared blindly.

#include <cstdint>
#include <string>

namespace perfbench {

struct Provenance {
  std::string git = "unknown";  ///< `git describe --always --dirty`, read at run time
  std::string compiler;         ///< __VERSION__
  std::string build_type;
  std::string isa;              ///< qsp::simd::isa_name(qsp::simd::active_isa())
  std::string simd_override;    ///< QSP_SIMD, or "unset"
  unsigned nproc = 0;
  std::uint64_t seed = 0;

  /// Compact JSON object.
  std::string json() const;
};

Provenance collect_provenance(const std::string& git, std::uint64_t seed);

/// JSON string literal with the necessary escapes.
std::string json_string(const std::string& s);

}  // namespace perfbench
