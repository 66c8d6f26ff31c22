// Philox4x32-10 and the float32 Box-Muller noise kernel.
//
// Bitwise equality between the scalar reference (CounterNoise::normal4)
// and every SIMD build holds by construction, not by tolerance:
//  - Philox is integer math;
//  - the Box-Muller transform below is written once, as templates the
//    scalar path instantiates on float and the vector paths on GCC
//    vector types, and uses only add/mul/sub/sqrt, int<->float
//    conversion and bit operations — each correctly rounded in IEEE
//    binary32, hence identical in a scalar and a vector lane;
//  - this file is compiled with -ffp-contract=off (src/common/
//    CMakeLists.txt), so no ISA build may fuse a multiply-add.
#include "common/philox.h"

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/simd.h"

#if FEDCL_HAVE_V4_KERNELS
#include <immintrin.h>
#endif

#define FEDCL_NOISE_INLINE inline __attribute__((always_inline))

namespace fedcl {

namespace {

// Philox4x32 round constants (Salmon et al., "Parallel Random Numbers:
// As Easy as 1, 2, 3", SC'11).
constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;  // sqrt(3) - 1

inline void philox_round(std::uint32_t (&c)[4], std::uint32_t k0,
                         std::uint32_t k1) {
  const std::uint64_t p0 = static_cast<std::uint64_t>(kPhiloxM0) * c[0];
  const std::uint64_t p1 = static_cast<std::uint64_t>(kPhiloxM1) * c[2];
  const std::uint32_t hi0 = static_cast<std::uint32_t>(p0 >> 32);
  const std::uint32_t lo0 = static_cast<std::uint32_t>(p0);
  const std::uint32_t hi1 = static_cast<std::uint32_t>(p1 >> 32);
  const std::uint32_t lo1 = static_cast<std::uint32_t>(p1);
  const std::uint32_t n0 = hi1 ^ c[1] ^ k0;
  const std::uint32_t n1 = lo1;
  const std::uint32_t n2 = hi0 ^ c[3] ^ k1;
  const std::uint32_t n3 = lo0;
  c[0] = n0;
  c[1] = n1;
  c[2] = n2;
  c[3] = n3;
}

// ---- the float32 transform, shared by the scalar and vector paths ----

// W lanes of 32-bit words; U64 views the same bytes as W/2 64-bit lanes.
template <int W>
struct Lanes {
  typedef std::uint32_t U __attribute__((vector_size(4 * W)));
  typedef std::int32_t I __attribute__((vector_size(4 * W)));
  typedef float F __attribute__((vector_size(4 * W)));
  typedef std::uint64_t U64 __attribute__((vector_size(4 * W)));
};

// Bit reinterpretation as a builtin: std::bit_cast is an ordinary
// function at -O0, and a vector returned across the boundary between
// a default-target callee and an AVX caller changes ABI.
template <class To, class From>
FEDCL_NOISE_INLINE To bits_as(From x) {
  return __builtin_bit_cast(To, x);
}
FEDCL_NOISE_INLINE float to_float(std::int32_t x) {
  return static_cast<float>(x);
}
template <class I>
FEDCL_NOISE_INLINE auto to_float(I x) {
  return __builtin_convertvector(x, typename Lanes<sizeof(I) / 4>::F);
}
FEDCL_NOISE_INLINE float select(bool m, float a, float b) { return m ? a : b; }
FEDCL_NOISE_INLINE std::int32_t select(bool m, std::int32_t a,
                                       std::int32_t b) {
  return m ? a : b;
}
template <class I, class V>
FEDCL_NOISE_INLINE V select(I m, V a, V b) {
  return (V)((m & (I)a) | (~m & (I)b));
}
FEDCL_NOISE_INLINE float sqrt_lanes(float x) { return std::sqrt(x); }
template <class F>
FEDCL_NOISE_INLINE F sqrt_lanes(F x) {
  F r;
  for (unsigned l = 0; l < sizeof(F) / 4; ++l) r[l] = __builtin_sqrtf(x[l]);
  return r;
}

// sqrt(-2 ln u1) with u1 = ((w >> 1) + 0.5) * 2^-31. ln is the Cephes
// logf polynomial (frexp by bit masking, mantissa folded to
// [sqrt(1/2), sqrt(2)), degree-9 polynomial, exponent added back in
// two parts), accurate to ~1 ulp with no division.
template <class F, class I, class U>
FEDCL_NOISE_INLINE F radius_of(U w) {
  const F u1 = (to_float((I)(w >> 1)) + 0.5f) * 0x1.0p-31f;
  const I bits = bits_as<I>(u1);
  const F m = bits_as<F>((bits & 0x007FFFFF) | 0x3F000000);
  const auto small = m < 0.70710678f;
  const I e = select(small, (bits >> 23) - 127, (bits >> 23) - 126);
  const F x = select(small, m + m - 1.0f, m - 1.0f);
  const F fe = to_float(e);
  const F z = x * x;
  F y = 7.0376836292e-2f * x - 1.1514610310e-1f;
  y = y * x + 1.1676998740e-1f;
  y = y * x - 1.2420140846e-1f;
  y = y * x + 1.4249322787e-1f;
  y = y * x - 1.6668057665e-1f;
  y = y * x + 2.0000714765e-1f;
  y = y * x - 2.4999993993e-1f;
  y = y * x + 3.3333331174e-1f;
  y = y * x * z;
  y = y + -2.12194440e-4f * fe;
  y = y - 0.5f * z;
  const F ln = (x + y) + 0.693359375f * fe;
  const F r2 = -2.0f * ln;
  return sqrt_lanes(select(r2 > 0.0f, r2, F{}));
}

// (cos phi, sin phi) for phi uniform on the circle: quadrant q from
// the top two bits of w, offset t in [-1/2, 1/2) of a quarter turn from
// the next 24, phi = q * pi/2 + t * pi/2. Cephes sinf/cosf polynomials
// on |t * pi/2| <= pi/4; the quadrant is applied exactly (swap and sign
// flips).
template <class F, class I, class U>
FEDCL_NOISE_INLINE void angle_of(U w, F& cos_phi, F& sin_phi) {
  const I k = (I)((w >> 6) & 0xFFFFFFu) - 0x800000;
  const F theta = ((to_float(k) + 0.5f) * 0x1.0p-24f) * 1.57079632679f;
  const F z = theta * theta;
  F s = -1.9515295891e-4f * z + 8.3321608736e-3f;
  s = s * z - 1.6666654611e-1f;
  s = s * z * theta + theta;
  F c = 2.443315711809948e-5f * z - 1.388731625493765e-3f;
  c = c * z + 4.166664568298827e-2f;
  c = c * z * z - 0.5f * z + 1.0f;
  const U q = w >> 30;
  const auto swap = (I)(q & 1u) != 0;
  const F a = select(swap, s, c);
  const F b = select(swap, c, s);
  cos_phi = bits_as<F>(bits_as<U>(a) ^ (((q ^ (q >> 1)) & 1u) << 31));
  sin_phi = bits_as<F>(bits_as<U>(b) ^ ((q >> 1) << 31));
}

// ---- W-lane Philox ----

// out = low32(x) * m per 64-bit lane (the even-lane widening multiply).
#if FEDCL_HAVE_V4_KERNELS
// Spelled with intrinsics: GCC lowers a generic 64-bit vector multiply
// to vpmullq (15-cycle latency) or a 3-multiply sequence. The wider
// variants are plain `inline` with a target, taking references, so a
// non-inlining (-O0) build still passes the vectors in memory.
FEDCL_ISA_AVX512 inline void mul_even(const Lanes<16>::U64& x,
                                      std::uint32_t m, Lanes<16>::U64& out) {
  // The maskz form: _mm512_mul_epu32 trips GCC 12's uninitialized
  // warning through its undefined pass-through operand.
  out = (Lanes<16>::U64)_mm512_maskz_mul_epu32(
      0xFF, (__m512i)x, (__m512i)(Lanes<16>::U64{} + m));
}
FEDCL_ISA_AVX2 inline void mul_even(const Lanes<8>::U64& x, std::uint32_t m,
                                    Lanes<8>::U64& out) {
  out = (Lanes<8>::U64)_mm256_mul_epu32(
      (__m256i)x, (__m256i)(Lanes<8>::U64{} + m));
}
FEDCL_NOISE_INLINE void mul_even(const Lanes<4>::U64& x, std::uint32_t m,
                                 Lanes<4>::U64& out) {
  out = (Lanes<4>::U64)_mm_mul_epu32(
      (__m128i)x, (__m128i)(Lanes<4>::U64{} + m));
}
#else
template <class V>
FEDCL_NOISE_INLINE void mul_even(const V& x, std::uint32_t m, V& out) {
  out = (x & 0xFFFFFFFFull) * static_cast<std::uint64_t>(m);
}
#endif

template <int W>
FEDCL_NOISE_INLINE void mul_hi_lo(typename Lanes<W>::U a, std::uint32_t m,
                                  typename Lanes<W>::U& hi,
                                  typename Lanes<W>::U& lo) {
  using U = typename Lanes<W>::U;
  using U64 = typename Lanes<W>::U64;
  U64 even, odd;
  mul_even((U64)a, m, even);
  mul_even((U64)a >> 32, m, odd);
  lo = (U)((even & 0xFFFFFFFFull) | (odd << 32));
  hi = (U)((even >> 32) | (odd & 0xFFFFFFFF00000000ull));
}

template <int W>
FEDCL_NOISE_INLINE void philox_lanes(typename Lanes<W>::U (&c)[4],
                                     std::uint32_t k0, std::uint32_t k1) {
  using U = typename Lanes<W>::U;
#pragma GCC unroll 10
  for (int r = 0; r < 10; ++r) {
    U hi0, lo0, hi1, lo1;
    mul_hi_lo<W>(c[0], kPhiloxM0, hi0, lo0);
    mul_hi_lo<W>(c[2], kPhiloxM1, hi1, lo1);
    const U n0 = hi1 ^ c[1] ^ k0;
    const U n2 = hi0 ^ c[3] ^ k1;
    c[0] = n0;
    c[1] = lo1;
    c[2] = n2;
    c[3] = lo0;
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
}

// d[j] = d[j] * scale + stddev * z(first + j), j in [0, n), W blocks
// per step. Walks the 64-element groups of noise_slot(): a group that
// lies wholly inside the range is written with vector loads/stores, a
// group cut by either end of the range lane by lane — with the same
// float operations, so slicing never changes a value.
template <int W>
FEDCL_NOISE_INLINE void scale_add_lanes(std::uint64_t key, std::uint64_t stream,
                                        std::uint64_t first, float* d,
                                        std::int64_t n, float scale,
                                        float stddev) {
  using U = typename Lanes<W>::U;
  using I = typename Lanes<W>::I;
  using F = typename Lanes<W>::F;
  const std::uint64_t last = first + static_cast<std::uint64_t>(n);
  U lane;
  for (int l = 0; l < W; ++l) lane[l] = static_cast<std::uint32_t>(l);
  for (std::uint64_t g0 = first - first % kNoiseGroup; g0 < last;
       g0 += kNoiseGroup) {
    const bool whole = g0 >= first && g0 + kNoiseGroup <= last;
    for (std::uint64_t h = 0; h < kNoiseBlocksPerGroup; h += W) {
      // W divides 2^32 and the base block, so the low counter word
      // cannot carry into the high one across the lanes.
      const std::uint64_t base = g0 / kNoiseGroup * kNoiseBlocksPerGroup + h;
      U c[4] = {static_cast<std::uint32_t>(base) + lane,
                U{} + static_cast<std::uint32_t>(base >> 32),
                U{} + static_cast<std::uint32_t>(stream),
                U{} + static_cast<std::uint32_t>(stream >> 32)};
      philox_lanes<W>(c, static_cast<std::uint32_t>(key),
                      static_cast<std::uint32_t>(key >> 32));
      F z[4], cos_phi, sin_phi;
      const F r01 = radius_of<F, I>(c[0]);
      const F r23 = radius_of<F, I>(c[2]);
      angle_of<F, I>(c[1], cos_phi, sin_phi);
      z[0] = r01 * cos_phi;
      z[1] = r01 * sin_phi;
      angle_of<F, I>(c[3], cos_phi, sin_phi);
      z[2] = r23 * cos_phi;
      z[3] = r23 * sin_phi;
      for (std::uint64_t k = 0; k < 4; ++k) {
        const std::uint64_t i0 = g0 + k * kNoiseBlocksPerGroup + h;
        if (whole) {
          float* p = d + (i0 - first);
          F v;
          std::memcpy(&v, p, sizeof(F));
          v = v * scale + stddev * z[k];
          std::memcpy(p, &v, sizeof(F));
          continue;
        }
        for (int l = 0; l < W; ++l) {
          const std::uint64_t i = i0 + static_cast<std::uint64_t>(l);
          if (i < first || i >= last) continue;
          float& x = d[i - first];
          x = x * scale + stddev * z[k][l];
        }
      }
    }
  }
}

// One out-of-line build per ISA level. `flatten` pulls the whole
// kernel, including the target-specific multiplies, into each.
// FEDCL_KERNEL_CLONES cannot do this: it recompiles one body at one
// lane width, and without the per-ISA widening multiply GCC lowers the
// 64-bit products to vpmullq or a three-multiply sequence. One thread
// of a Xeon with AVX-512, 2^16 elements per call: these builds run at
// ~200 (4 lanes), ~400 (8 lanes, AVX2) and ~630 (16 lanes) Mfloat/s;
// one generic 16-lane body compiled for default/haswell/x86-64-v4 ran
// at 87/55/358.
__attribute__((flatten)) void scale_add_baseline(
    std::uint64_t key, std::uint64_t stream, std::uint64_t first, float* d,
    std::int64_t n, float scale, float stddev) {
  scale_add_lanes<4>(key, stream, first, d, n, scale, stddev);
}

#if FEDCL_HAVE_V4_KERNELS
FEDCL_ISA_AVX2 __attribute__((flatten)) void scale_add_avx2(
    std::uint64_t key, std::uint64_t stream, std::uint64_t first, float* d,
    std::int64_t n, float scale, float stddev) {
  scale_add_lanes<8>(key, stream, first, d, n, scale, stddev);
}

FEDCL_ISA_AVX512 __attribute__((flatten)) void scale_add_avx512(
    std::uint64_t key, std::uint64_t stream, std::uint64_t first, float* d,
    std::int64_t n, float scale, float stddev) {
  scale_add_lanes<16>(key, stream, first, d, n, scale, stddev);
}
#endif

NoiseIsa best_noise_isa() {
#if FEDCL_HAVE_V4_KERNELS
  if (fedcl_cpu_has_v4()) return NoiseIsa::kAvx512;
  if (fedcl_cpu_has_avx2()) return NoiseIsa::kAvx2;
#endif
  return NoiseIsa::kBaseline;
}

}  // namespace

PhiloxBlock philox4x32(std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
                       std::uint32_t c3, std::uint32_t k0, std::uint32_t k1) {
  std::uint32_t c[4] = {c0, c1, c2, c3};
  for (int r = 0; r < 10; ++r) {
    philox_round(c, k0, k1);
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  return PhiloxBlock{{c[0], c[1], c[2], c[3]}};
}

float noise_radius(std::uint32_t w) {
  return radius_of<float, std::int32_t>(w);
}

void CounterNoise::normal4(std::uint64_t stream, std::uint64_t block,
                           float z[4]) const {
  const PhiloxBlock b = philox4x32(
      static_cast<std::uint32_t>(block), static_cast<std::uint32_t>(block >> 32),
      static_cast<std::uint32_t>(stream),
      static_cast<std::uint32_t>(stream >> 32),
      static_cast<std::uint32_t>(key_), static_cast<std::uint32_t>(key_ >> 32));
  const float r01 = radius_of<float, std::int32_t>(b.v[0]);
  const float r23 = radius_of<float, std::int32_t>(b.v[2]);
  float cos_phi, sin_phi;
  angle_of<float, std::int32_t>(b.v[1], cos_phi, sin_phi);
  z[0] = r01 * cos_phi;
  z[1] = r01 * sin_phi;
  angle_of<float, std::int32_t>(b.v[3], cos_phi, sin_phi);
  z[2] = r23 * cos_phi;
  z[3] = r23 * sin_phi;
}

double CounterNoise::normal(std::uint64_t stream, std::uint64_t i) const {
  const NoiseSlot slot = noise_slot(i);
  float z[4];
  normal4(stream, slot.block, z);
  return z[slot.normal];
}

void CounterNoise::scale_add(float* d, std::int64_t n, std::uint64_t stream,
                             float scale, float stddev,
                             std::uint64_t first) const {
  static const NoiseIsa isa = best_noise_isa();
  scale_add_normal(isa, key_, stream, first, d, n, scale, stddev);
}

void CounterNoise::add_scaled(float* dst, std::int64_t n, std::uint64_t stream,
                              double stddev) const {
  scale_add(dst, n, stream, 1.0f, static_cast<float>(stddev));
}

bool noise_isa_supported(NoiseIsa isa) {
  switch (isa) {
    case NoiseIsa::kBaseline:
      return true;
#if FEDCL_HAVE_V4_KERNELS
    case NoiseIsa::kAvx2:
      return fedcl_cpu_has_avx2();
    case NoiseIsa::kAvx512:
      return fedcl_cpu_has_v4();
#endif
    default:
      return false;
  }
}

void scale_add_normal(NoiseIsa isa, std::uint64_t key, std::uint64_t stream,
                      std::uint64_t first, float* d, std::int64_t n,
                      float scale, float stddev) {
  if (n <= 0) return;
  FEDCL_CHECK(noise_isa_supported(isa)) << "noise ISA not supported here";
#if FEDCL_HAVE_V4_KERNELS
  if (isa == NoiseIsa::kAvx512) {
    scale_add_avx512(key, stream, first, d, n, scale, stddev);
    return;
  }
  if (isa == NoiseIsa::kAvx2) {
    scale_add_avx2(key, stream, first, d, n, scale, stddev);
    return;
  }
#endif
  scale_add_baseline(key, stream, first, d, n, scale, stddev);
}

}  // namespace fedcl
