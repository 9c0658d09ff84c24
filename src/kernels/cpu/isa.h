// Runtime ISA selection for the CPU GEMM microkernels.
//
// The hot INT8 dot-product loops have three implementations (scalar, AVX2,
// AVX-512 VNNI) that are bitwise-identical in their INT32 accumulators; this
// header picks which one runs. Resolution order for active_isa():
//   1. set_isa(...) — programmatic override (tests, benches),
//   2. the QSERVE_ISA environment variable ("scalar" / "avx2" / "avx512"),
//   3. the best ISA the host CPU reports via CPUID.
// Requests for an ISA the host does not support clamp down to detected_isa(),
// so QSERVE_ISA=avx512 on an AVX2 machine degrades gracefully instead of
// faulting on the first 512-bit instruction.
#pragma once

#include <optional>

namespace qserve::cpu {

// Ordered by capability: every level can execute the levels below it.
enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,    // vpmaddwd 16-bit-widened dot products (+ FMA, F16C)
  kAvx512 = 2,  // AVX-512 VNNI vpdpbusd dot products
};

const char* isa_name(Isa isa);

// Parse a QSERVE_ISA-style string; nullopt for anything unrecognized.
std::optional<Isa> parse_isa(const char* s);

// Best ISA supported by this host (CPUID; cached after the first call).
Isa detected_isa();

// The ISA the dispatch tables currently resolve to (see resolution order
// above). The env variable is re-read on each call so tests can toggle it;
// the cost is one getenv per GEMM call, far off the hot path.
Isa active_isa();

// Pin the active ISA (clamped to detected_isa()); kScalar is always honored.
void set_isa(Isa isa);

// Drop the set_isa pin, returning control to QSERVE_ISA / detection.
void clear_isa_override();

}  // namespace qserve::cpu
