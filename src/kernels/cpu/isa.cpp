#include "kernels/cpu/isa.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace qserve::cpu {

namespace {

// -1 = no programmatic override.
std::atomic<int> g_isa_override{-1};

Isa detect_host_isa() {
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vnni")) {
    return Isa::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

Isa clamp_to_detected(Isa isa) {
  return static_cast<int>(isa) <= static_cast<int>(detected_isa())
             ? isa
             : detected_isa();
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

std::optional<Isa> parse_isa(const char* s) {
  if (s == nullptr) return std::nullopt;
  if (std::strcmp(s, "scalar") == 0) return Isa::kScalar;
  if (std::strcmp(s, "avx2") == 0) return Isa::kAvx2;
  if (std::strcmp(s, "avx512") == 0 || std::strcmp(s, "avx512vnni") == 0)
    return Isa::kAvx512;
  return std::nullopt;
}

Isa detected_isa() {
  static const Isa detected = detect_host_isa();
  return detected;
}

Isa active_isa() {
  const int pinned = g_isa_override.load(std::memory_order_relaxed);
  if (pinned >= 0) return clamp_to_detected(static_cast<Isa>(pinned));
  if (const auto env = parse_isa(std::getenv("QSERVE_ISA")))
    return clamp_to_detected(*env);
  return detected_isa();
}

void set_isa(Isa isa) {
  g_isa_override.store(static_cast<int>(clamp_to_detected(isa)),
                       std::memory_order_relaxed);
}

void clear_isa_override() {
  g_isa_override.store(-1, std::memory_order_relaxed);
}

}  // namespace qserve::cpu
