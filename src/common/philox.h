// Counter-based (stateless) random numbers for parallel DP noise.
//
// The sequential Rng in common/rng.h hands one SplitMix64 stream from
// draw to draw, which forces every consumer into a single visit order.
// The Philox4x32-10 generator here removes that coupling. It is a pure
// function
//
//     (key, stream, counter)  ->  four 32-bit words
//
// with no carried state, so ANY thread can produce ANY noise element
// without stream hand-off, and the result is independent of visit
// order, thread count and instruction set by construction.
//
// Keying scheme used by every Gaussian draw in dp/ and core/ (see
// DESIGN.md §7):
//   key     = one 64-bit draw from the caller's Rng. The Rng is already
//             forked per (experiment seed, round, client), so the draw
//             encodes seed/client/round; each sanitize call (one
//             example, or one client update) takes exactly one key.
//   stream  = parameter-tensor index within the model.
//   counter = block index within the stream; each block yields four
//             float32 normals (Box-Muller over its two word pairs).
//
// Philox is the generator of JAX/XLA and cuRAND; 10 rounds of the
// 4x32 variant passes BigCrush. Not cryptographic.
#pragma once

#include <cstdint>

namespace fedcl {

struct PhiloxBlock {
  std::uint32_t v[4];
};

// One Philox4x32-10 block: counter (c0..c3) encrypted under key
// (k0, k1). Pure function, branch-free, ~20 32x32 multiplies.
PhiloxBlock philox4x32(std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
                       std::uint32_t c3, std::uint32_t k0, std::uint32_t k1);

// The element -> (block, normal) mapping of a noise stream, shared by
// the scalar reference and every SIMD width. Elements come in groups
// of 64 backed by 16 consecutive blocks: element i of group g is
// normal (i / 16) % 4 of block 16g + i % 16. A 16-lane vector of
// blocks therefore fills four contiguous 16-element runs with no
// transpose, and narrower ISAs walk the same 16 blocks in slices.
inline constexpr std::uint64_t kNoiseGroup = 64;
inline constexpr std::uint64_t kNoiseBlocksPerGroup = 16;

struct NoiseSlot {
  std::uint64_t block;
  unsigned normal;  // 0..3 within the block
};

constexpr NoiseSlot noise_slot(std::uint64_t i) {
  return {(i / kNoiseGroup) * kNoiseBlocksPerGroup + i % kNoiseBlocksPerGroup,
          static_cast<unsigned>((i / kNoiseBlocksPerGroup) % 4)};
}

// Box-Muller over one block (w0, w1, w2, w3), all in float32:
//   r(w)   = sqrt(-2 ln u1),  u1 = ((w >> 1) + 0.5) * 2^-31 in (0, 1],
//   normal 0 = r(w0) cos(phi(w1)), normal 1 = r(w0) sin(phi(w1)),
//   normal 2 = r(w2) cos(phi(w3)), normal 3 = r(w2) sin(phi(w3)),
// where phi(w) is uniform on the circle: quadrant from the top two
// bits of w, offset within the quadrant from the next 24. u1 keeps 31
// random bits, so the smallest u1 is 2^-32 and |z| reaches
// r(0) = sqrt(64 ln 2) ~ 6.66 sigma (a 24-bit u1 would stop at 5.77).
// Only add/mul/sub/sqrt/int<->float conversion and bit operations are
// used, each correctly rounded, so every ISA computes the same bits.
float noise_radius(std::uint32_t w);

// Stateless standard-normal access keyed by a 64-bit key.
class CounterNoise {
 public:
  explicit CounterNoise(std::uint64_t key) : key_(key) {}

  // The four normals of block `block` in stream `stream` — the scalar
  // reference the vector kernels must match bit for bit.
  void normal4(std::uint64_t stream, std::uint64_t block, float z[4]) const;

  // Gaussian element i of `stream` (random access: one block).
  double normal(std::uint64_t stream, std::uint64_t i) const;

  // The fused noise kernel: d[j] = d[j] * scale + stddev * z(first + j)
  // for j in [0, n), where z(i) = normal(stream, i) in float32. SIMD
  // (best ISA the CPU has), bitwise identical to the scalar reference
  // for any slicing of the element range.
  void scale_add(float* d, std::int64_t n, std::uint64_t stream, float scale,
                 float stddev, std::uint64_t first = 0) const;

  // dst[i] += stddev * normal(stream, i) for i in [0, n).
  void add_scaled(float* dst, std::int64_t n, std::uint64_t stream,
                  double stddev) const;

  std::uint64_t key() const { return key_; }

 private:
  std::uint64_t key_;
};

// Every instruction-set build of the kernel, for tests that check each
// one against the reference; scale_add picks the best supported.
enum class NoiseIsa { kBaseline, kAvx2, kAvx512 };
bool noise_isa_supported(NoiseIsa isa);
void scale_add_normal(NoiseIsa isa, std::uint64_t key, std::uint64_t stream,
                      std::uint64_t first, float* d, std::int64_t n,
                      float scale, float stddev);

}  // namespace fedcl
