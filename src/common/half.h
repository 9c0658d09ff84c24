// Software IEEE 754 binary16 ("half") emulation.
//
// The GPU kernels in the paper hold activations, scales and attention
// intermediates in FP16. This environment has no hardware half type, so we
// emulate it with exact bit-level conversions. Round-tripping a float through
// `Half` reproduces the precision loss a real FP16 register would introduce,
// which matters for the KV4-attention FP16-accumulation experiments (§5.3).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace qserve {

namespace detail {

// C++17 stand-in for std::bit_cast (C++20).
template <typename To, typename From>
inline To bit_cast(const From& from) {
  static_assert(sizeof(To) == sizeof(From), "bit_cast size mismatch");
  To to;
  std::memcpy(&to, &from, sizeof(To));
  return to;
}

// Scalar float -> binary16 bits with round-to-nearest-even.
inline uint16_t float_to_half_bits(float f) {
  const uint32_t x = bit_cast<uint32_t>(f);
  const uint32_t sign = (x >> 16) & 0x8000u;
  const uint32_t abs = x & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {  // inf or NaN
    const uint32_t mant = (abs > 0x7F800000u) ? 0x0200u : 0;  // quiet NaN
    return static_cast<uint16_t>(sign | 0x7C00u | mant);
  }
  if (abs >= 0x477FF000u) {  // overflow to inf (>= 65520 after rounding)
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x38800000u) {  // subnormal half or zero
    if (abs < 0x33000000u) return static_cast<uint16_t>(sign);  // underflow
    // value = M * 2^(E-126) with M the 24-bit significand; the subnormal
    // half mantissa is M >> (126 - E), rounded to nearest even.
    const int shift = 126 - static_cast<int>(abs >> 23);  // 14..24
    uint32_t mant = (abs & 0x007FFFFFu) | 0x00800000u;
    const uint32_t dropped = mant & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    mant >>= shift;
    if (dropped > halfway || (dropped == halfway && (mant & 1))) ++mant;
    return static_cast<uint16_t>(sign | mant);  // carry into exp=1 is valid
  }
  // Normal case.
  uint32_t bits = sign | ((abs - 0x38000000u) >> 13);
  const uint32_t dropped = abs & 0x1FFFu;
  if (dropped > 0x1000u || (dropped == 0x1000u && (bits & 1))) ++bits;
  return static_cast<uint16_t>(bits);
}

inline float half_bits_to_float(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1Fu;
  const uint32_t mant = h & 0x3FFu;

  if (exp == 0x1Fu) {  // inf / NaN
    return bit_cast<float>(sign | 0x7F800000u | (mant << 13));
  }
  if (exp == 0) {
    if (mant == 0) return bit_cast<float>(sign);  // zero
    // Subnormal: normalize.
    int e = -1;
    uint32_t m = mant;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x400u) == 0);
    return bit_cast<float>(sign | ((127 - 15 - e) << 23) |
                                ((m & 0x3FFu) << 13));
  }
  return bit_cast<float>(sign | ((exp + 112) << 23) | (mant << 13));
}

}  // namespace detail

// Value type wrapping binary16 bits. Arithmetic promotes to float; assign
// back to Half to model an FP16 register write.
class Half {
 public:
  constexpr Half() = default;
  Half(float f) : bits_(detail::float_to_half_bits(f)) {}  // NOLINT(implicit)

  operator float() const { return detail::half_bits_to_float(bits_); }

  static constexpr Half from_bits(uint16_t b) {
    Half h;
    h.bits_ = b;
    return h;
  }
  uint16_t bits() const { return bits_; }

  Half& operator+=(float rhs) { return *this = Half(float(*this) + rhs); }
  Half& operator-=(float rhs) { return *this = Half(float(*this) - rhs); }
  Half& operator*=(float rhs) { return *this = Half(float(*this) * rhs); }
  Half& operator/=(float rhs) { return *this = Half(float(*this) / rhs); }

  static float max() { return 65504.0f; }

 private:
  uint16_t bits_ = 0;
};

// Round a float through FP16 precision (the common use in kernels). Where
// the compiler targets F16C, the round trip is two conversion instructions
// (round-to-nearest-even, subnormals and overflow as IEEE specifies), which
// give Half's bits for every non-NaN input; a NaN becomes Half's one quiet
// NaN of the same sign. Either way the result is float(Half(f)) bit for bit.
inline float to_half_precision(float f) {
#if defined(__F16C__)
  if (__builtin_expect(f != f, 0))
    return detail::bit_cast<float>(
        (detail::bit_cast<uint32_t>(f) & 0x80000000u) | 0x7FC00000u);
  return _cvtsh_ss(_cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT));
#else
  return float(Half(f));
#endif
}

// FP16-precision quantization scale abs_max / qmax, guarded against zero
// rows (scale 1) and against rounding to zero (smallest normal half).
inline float fp16_scale(float abs_max, float qmax) {
  float s = abs_max / qmax;
  if (s <= 0.0f) s = 1.0f;
  s = to_half_precision(s);
  if (s <= 0.0f) s = 6.103515625e-05f;  // smallest normal half
  return s;
}

}  // namespace qserve
