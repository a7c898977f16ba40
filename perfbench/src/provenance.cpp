#include "provenance.hpp"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Provenance::json() const {
  return "{\"git\":" + json_string(git) + ",\"compiler\":" + json_string(compiler) +
         ",\"build_type\":" + json_string(build_type) + ",\"isa\":" + json_string(isa) +
         ",\"qsp_simd\":" + json_string(simd_override) + ",\"nproc\":" + std::to_string(nproc) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

Provenance collect_provenance(const std::string& git, std::uint64_t seed) {
  Provenance p;
  p.git = git.empty() ? "unknown" : git;
#if defined(__clang__)
  p.compiler = __VERSION__;
#elif defined(__GNUC__)
  p.compiler = "GCC " __VERSION__;
#else
  p.compiler = "unknown";
#endif
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.isa = qsp::simd::isa_name(qsp::simd::active_isa());
  const char* simd = std::getenv("QSP_SIMD");
  p.simd_override = simd != nullptr ? simd : "unset";
  p.nproc = std::thread::hardware_concurrency();
  p.seed = seed;
  return p;
}

}  // namespace perfbench
