// Fast-vs-naive checks for the optimized kernels (matmul variants,
// span-based im2col/col2im, fused conv input gradient, fused DP
// sanitizer) and the counter-based Philox noise generator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "common/philox.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dp/fused_sanitize.h"
#include "dp/gaussian.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/tensor_list.h"
#include "testing/kernel_check.h"

namespace fedcl {
namespace {

namespace t = fedcl::tensor;
using t::ConvSpec;
using t::Tensor;
using t::list::PerExampleGrads;
using t::list::TensorList;
using testing::expect_matmul_close;
using testing::naive_col2im;
using testing::naive_im2col;
using testing::naive_matmul_nn;
using testing::naive_matmul_nt;
using testing::naive_matmul_tn;
using testing::rng_fill;

// Shape sweep covering the kernel regimes: tiny (serial, below the
// k-block), deep-k (multiple 128-blocks), wide-n, and one size past
// the m*k*n >= 2^18 threading threshold.
struct MmShape {
  std::int64_t m, k, n;
};
const MmShape kShapes[] = {
    {1, 1, 1}, {3, 5, 2}, {7, 300, 9}, {17, 64, 33}, {64, 130, 48},
};

TEST(KernelCheck, MatmulNNMatchesNaive) {
  for (const auto& s : kShapes) {
    const Tensor a = rng_fill({s.m, s.k}, 101 + s.m);
    const Tensor b = rng_fill({s.k, s.n}, 202 + s.n);
    const Tensor c = t::matmul(a, b);
    expect_matmul_close(c, naive_matmul_nn(a.data(), b.data(), s.m, s.k, s.n),
                        s.k, "matmul_nn");
  }
}

TEST(KernelCheck, MatmulTNMatchesNaive) {
  for (const auto& s : kShapes) {
    const Tensor a = rng_fill({s.k, s.m}, 303 + s.m);
    const Tensor b = rng_fill({s.k, s.n}, 404 + s.n);
    const Tensor c = t::matmul_tn(a, b);
    expect_matmul_close(c, naive_matmul_tn(a.data(), b.data(), s.k, s.m, s.n),
                        s.k, "matmul_tn");
  }
}

TEST(KernelCheck, MatmulNTMatchesNaive) {
  // m below and above the pack threshold (16) exercises both the
  // dot-product and packed-transpose NT paths.
  for (const auto& s : kShapes) {
    const Tensor a = rng_fill({s.m, s.k}, 505 + s.m);
    const Tensor b = rng_fill({s.n, s.k}, 606 + s.n);
    const Tensor c = t::matmul_nt(a, b);
    expect_matmul_close(c, naive_matmul_nt(a.data(), b.data(), s.m, s.k, s.n),
                        s.k, "matmul_nt");
  }
}

const ConvSpec kConvSpecs[] = {
    // in_h, in_w, in_c, kh, kw, stride, pad
    {8, 8, 1, 3, 3, 1, 1},   // all-interior plus border clamping
    {8, 8, 3, 5, 5, 1, 2},   // the model-zoo conv shape, multi-channel
    {9, 7, 2, 3, 3, 2, 1},   // non-square, strided
    {6, 6, 4, 2, 2, 2, 0},   // pad-free tiling
    {5, 5, 1, 5, 5, 1, 4},   // pad wider than the image interior
    {12, 12, 1, 5, 5, 1, 2}, // Fed-CDP CNN conv1 (5-float segments)
    {6, 6, 8, 5, 5, 1, 2},   // Fed-CDP CNN conv2
    {7, 7, 3, 3, 3, 2, 0},   // strided, unpadded, overlapping windows
};

TEST(KernelCheck, Im2colMatchesNaiveBitwise) {
  for (const auto& spec : kConvSpecs) {
    for (std::int64_t n : {1, 3}) {
      const Tensor x =
          rng_fill({n, spec.in_h, spec.in_w, spec.in_c}, 700 + spec.pad);
      const Tensor fast = t::im2col(x, spec);
      const Tensor naive = naive_im2col(x, spec);
      ASSERT_EQ(fast.numel(), naive.numel());
      for (std::int64_t i = 0; i < fast.numel(); ++i) {
        ASSERT_EQ(fast.at(i), naive.at(i)) << "element " << i;
      }
    }
  }
}

TEST(KernelCheck, Im2colScratchReuseAcrossSizesAndThreads) {
  // im2col unfolds from a per-thread padded copy and conv_input_grad
  // keeps per-thread tiles. Sizes change back to back on one thread
  // (a larger buffer must not leak stale border values into a smaller
  // image), and pools of 1, 2 and 8 threads run every shape at once;
  // every result must be bitwise the single-threaded one.
  struct Case {
    ConvSpec spec;
    Tensor x, delta, w, cols, dx;
  };
  std::vector<Case> cases;
  for (const auto& spec : kConvSpecs) {
    Case c{spec,
           rng_fill({2, spec.in_h, spec.in_w, spec.in_c}, 1100 + spec.in_h),
           rng_fill({2 * spec.out_h() * spec.out_w(), 3}, 1200 + spec.in_c),
           rng_fill({spec.patch_size(), 3}, 1300 + spec.kernel_h),
           {},
           {}};
    c.cols = naive_im2col(c.x, spec);
    c.dx = t::conv_input_grad(c.delta, c.w, spec, 2);
    cases.push_back(std::move(c));
  }
  auto same = [](const Tensor& a, const Tensor& b) {
    const std::size_t bytes =
        sizeof(float) * static_cast<std::size_t>(a.numel());
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(), bytes) == 0;
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[pass == 0 ? i : cases.size() - 1 - i];
      EXPECT_TRUE(same(t::im2col(c.x, c.spec), c.cols)) << "case " << i;
      EXPECT_TRUE(same(t::conv_input_grad(c.delta, c.w, c.spec, 2), c.dx))
          << "case " << i;
    }
  }
  for (std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const std::size_t tasks = 4 * cases.size();
    std::vector<char> ok(tasks, 0);
    pool.parallel_for(tasks, [&](std::size_t task) {
      const Case& c = cases[(task * 5) % cases.size()];
      ok[task] = same(t::im2col(c.x, c.spec), c.cols) &&
                 same(t::conv_input_grad(c.delta, c.w, c.spec, 2), c.dx);
    });
    for (std::size_t task = 0; task < tasks; ++task)
      EXPECT_TRUE(ok[task]) << threads << " threads, task " << task;
  }
}

TEST(KernelCheck, Col2imMatchesNaiveBitwise) {
  for (const auto& spec : kConvSpecs) {
    for (std::int64_t n : {1, 3}) {
      const Tensor cols = rng_fill(
          {n * spec.out_h() * spec.out_w(), spec.patch_size()},
          800 + spec.kernel_h);
      const Tensor fast = t::col2im(cols, spec, n);
      const Tensor naive = naive_col2im(cols, spec, n);
      ASSERT_EQ(fast.numel(), naive.numel());
      for (std::int64_t i = 0; i < fast.numel(); ++i) {
        ASSERT_EQ(fast.at(i), naive.at(i)) << "element " << i;
      }
    }
  }
}

TEST(KernelCheck, Im2colCol2imAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for the linear maps to be mutual
  // adjoints — the property conv backward depends on.
  const ConvSpec spec{8, 8, 2, 3, 3, 1, 1};
  const std::int64_t n = 2;
  const Tensor x = rng_fill({n, spec.in_h, spec.in_w, spec.in_c}, 900);
  const Tensor y = rng_fill(
      {n * spec.out_h() * spec.out_w(), spec.patch_size()}, 901);
  const Tensor cx = t::im2col(x, spec);
  const Tensor cy = t::col2im(y, spec, n);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cx.numel(); ++i)
    lhs += static_cast<double>(cx.at(i)) * static_cast<double>(y.at(i));
  for (std::int64_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x.at(i)) * static_cast<double>(cy.at(i));
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

TEST(KernelCheck, ConvInputGradMatchesUnfused) {
  for (const auto& spec : kConvSpecs) {
    const std::int64_t n = 3, oc = 4;
    const std::int64_t rows = n * spec.out_h() * spec.out_w();
    const Tensor delta = rng_fill({rows, oc}, 1000 + spec.in_c);
    const Tensor w = rng_fill({spec.patch_size(), oc}, 1001 + spec.in_c);
    const Tensor fused = t::conv_input_grad(delta, w, spec, n);
    const Tensor dcols = t::matmul_nt(delta, w);
    const Tensor unfused = t::col2im(dcols, spec, n);
    ASSERT_EQ(fused.numel(), unfused.numel());
    for (std::int64_t i = 0; i < fused.numel(); ++i) {
      EXPECT_NEAR(fused.at(i), unfused.at(i),
                  1e-5 * std::max(1.0, std::abs(
                             static_cast<double>(unfused.at(i)))))
          << "element " << i;
    }
  }
}

PerExampleGrads sample_grads(std::int64_t batch, std::uint64_t seed) {
  PerExampleGrads grads;
  grads.batch = batch;
  grads.shapes = {{7, 3}, {3}, {4, 5}, {5}};
  Rng rng(seed);
  for (const auto& shape : grads.shapes) {
    std::int64_t numel = 1;
    for (std::int64_t d : shape) numel *= d;
    grads.rows.push_back(Tensor::randn({batch, numel}, rng));
  }
  return grads;
}

TEST(KernelCheck, FusedSanitizeMatchesNaiveReference) {
  // The fused scale+noise pass against a from-scratch reference:
  // per-tensor float-rounded norms, clip scale, and per-element
  // counter noise queried through the random-access normal().
  const std::int64_t batch = 4;
  PerExampleGrads grads = sample_grads(batch, 42);
  PerExampleGrads original = sample_grads(batch, 42);
  const dp::ParamGroups groups = {{0, 1}, {2, 3}};
  const double bound = 1.5, stddev = 0.25;

  std::vector<std::uint64_t> keys = {11, 22, 33, 44};
  const std::vector<double> norms = dp::batch_group_norms(grads, groups);
  dp::batch_scale_noise(grads, groups, norms,
                        std::vector<double>(batch, bound),
                        std::vector<double>(batch, stddev), keys);

  for (std::int64_t j = 0; j < batch; ++j) {
    // Reference norms and scales for example j.
    std::vector<float> scales(grads.rows.size(), 1.0f);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      double joint = 0.0;
      for (std::size_t p : groups[g]) {
        const std::int64_t width = original.rows[p].numel() / batch;
        double s = 0.0;
        for (std::int64_t i = 0; i < width; ++i) {
          const double v = original.rows[p].at(j * width + i);
          s += v * v;
        }
        const double tn = static_cast<double>(
            static_cast<float>(std::sqrt(s)));
        joint += tn * tn;
      }
      const double norm = std::sqrt(joint);
      EXPECT_DOUBLE_EQ(norm, norms[static_cast<std::size_t>(j) * groups.size() + g]);
      if (norm > bound) {
        for (std::size_t p : groups[g])
          scales[p] = static_cast<float>(bound / norm);
      }
    }
    const CounterNoise noise(keys[static_cast<std::size_t>(j)]);
    for (std::size_t p = 0; p < grads.rows.size(); ++p) {
      const std::int64_t width = grads.rows[p].numel() / batch;
      for (std::int64_t i = 0; i < width; ++i) {
        const float expected = static_cast<float>(
            original.rows[p].at(j * width + i) * scales[p] +
            static_cast<float>(stddev *
                               noise.normal(p, static_cast<std::uint64_t>(i))));
        EXPECT_NEAR(grads.rows[p].at(j * width + i), expected,
                    1e-6f * std::max(1.0f, std::abs(expected)))
            << "example " << j << " param " << p << " element " << i;
      }
    }
  }
}

TEST(KernelCheck, FusedSingleExampleMatchesBatchRow) {
  // view_of (single-example hook) and view_of_example (batched hook)
  // must run the identical kernel: bitwise equality, not closeness.
  const std::int64_t batch = 3;
  PerExampleGrads batched = sample_grads(batch, 7);
  PerExampleGrads source = sample_grads(batch, 7);
  const dp::ParamGroups groups = {{0, 1}, {2, 3}};
  const double bound = 1.2, stddev = 0.5;
  std::vector<std::uint64_t> keys = {5, 6, 7};
  const std::vector<double> norms = dp::batch_group_norms(batched, groups);
  dp::batch_scale_noise(batched, groups, norms,
                        std::vector<double>(batch, bound),
                        std::vector<double>(batch, stddev), keys);
  for (std::int64_t j = 0; j < batch; ++j) {
    TensorList one = source.example(j);
    const dp::ExampleView ex = dp::view_of(one);
    const std::vector<double> ex_norms = dp::group_norms(ex, groups);
    dp::scale_noise(ex, groups, ex_norms, bound, stddev,
                    CounterNoise(keys[static_cast<std::size_t>(j)]));
    for (std::size_t p = 0; p < one.size(); ++p) {
      const std::int64_t width = batched.rows[p].numel() / batch;
      for (std::int64_t i = 0; i < width; ++i) {
        ASSERT_EQ(one[p].at(i), batched.rows[p].at(j * width + i))
            << "example " << j << " param " << p << " element " << i;
      }
    }
  }
}

TEST(PhiloxNoise, KnownAnswerVectors) {
  // Random123 kat_vectors for philox4x32-10.
  const PhiloxBlock zero = philox4x32(0, 0, 0, 0, 0, 0);
  EXPECT_EQ(zero.v[0], 0x6627e8d5u);
  EXPECT_EQ(zero.v[1], 0xe169c58du);
  EXPECT_EQ(zero.v[2], 0xbc57ac4cu);
  EXPECT_EQ(zero.v[3], 0x9b00dbd8u);
  const PhiloxBlock ones = philox4x32(0xffffffffu, 0xffffffffu, 0xffffffffu,
                                      0xffffffffu, 0xffffffffu, 0xffffffffu);
  EXPECT_EQ(ones.v[0], 0x408f276du);
  EXPECT_EQ(ones.v[1], 0x41c83b0eu);
  EXPECT_EQ(ones.v[2], 0xa20bc7c6u);
  EXPECT_EQ(ones.v[3], 0x6d5451fdu);
}

TEST(PhiloxNoise, BitwiseIdenticalAcrossThreadCounts) {
  const std::int64_t batch = 16;
  const dp::ParamGroups groups = {{0, 1}, {2, 3}};
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(batch));
  for (std::size_t j = 0; j < keys.size(); ++j) keys[j] = 1000 + j;
  auto run = [&](std::size_t n_threads) {
    PerExampleGrads grads = sample_grads(batch, 1234);
    ThreadPool pool(n_threads);
    const std::vector<double> norms =
        dp::batch_group_norms(grads, groups, &pool);
    dp::batch_scale_noise(grads, groups, norms,
                          std::vector<double>(batch, 1.0),
                          std::vector<double>(batch, 0.75), keys, &pool);
    return grads;
  };
  const PerExampleGrads g1 = run(1);
  const PerExampleGrads g2 = run(2);
  const PerExampleGrads g8 = run(8);
  for (std::size_t p = 0; p < g1.rows.size(); ++p) {
    for (std::int64_t i = 0; i < g1.rows[p].numel(); ++i) {
      ASSERT_EQ(g1.rows[p].at(i), g2.rows[p].at(i)) << "p " << p << " i " << i;
      ASSERT_EQ(g1.rows[p].at(i), g8.rows[p].at(i)) << "p " << p << " i " << i;
    }
  }
}

TEST(PhiloxNoise, IndependentOfVisitOrder) {
  // Element i of a stream has one value no matter how it is reached:
  // sequential fill, random access, reverse traversal.
  const CounterNoise noise(0xDEADBEEFu);
  const std::int64_t n = 33;
  std::vector<float> fill(static_cast<std::size_t>(n), 0.0f);
  noise.add_scaled(fill.data(), n, /*stream=*/3, /*stddev=*/1.0);
  for (std::int64_t i = n - 1; i >= 0; --i) {
    const float expected = static_cast<float>(
        noise.normal(3, static_cast<std::uint64_t>(i)));
    EXPECT_EQ(fill[static_cast<std::size_t>(i)], expected) << "element " << i;
  }
  // Streams do not collide: same element index, different stream.
  EXPECT_NE(noise.normal(3, 0), noise.normal(4, 0));
  // Keys do not collide either.
  const CounterNoise other(0xDEADBEF0u);
  EXPECT_NE(noise.normal(3, 0), other.normal(3, 0));
}

TEST(PhiloxNoise, MechanismBatchMatchesExampleLoopBitwise) {
  const dp::GaussianMechanism mechanism(/*noise_scale=*/2.0,
                                        /*sensitivity=*/1.5);
  const std::int64_t batch = 5;
  PerExampleGrads batched = sample_grads(batch, 77);
  PerExampleGrads looped = sample_grads(batch, 77);
  Rng rng_a(9), rng_b(9);
  // The one per-example noise path, unclipped (bound +inf): one key per
  // example in ascending order, then the fused fill. It must lay down
  // what GaussianMechanism::sanitize gives each example on its own.
  const dp::ParamGroups groups = dp::single_group(batched.rows.size());
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(batch));
  for (auto& k : keys) k = rng_a.next_u64();
  dp::batch_scale_noise(
      batched, groups, dp::batch_group_norms(batched, groups),
      std::vector<double>(static_cast<std::size_t>(batch),
                          std::numeric_limits<double>::infinity()),
      std::vector<double>(static_cast<std::size_t>(batch),
                          mechanism.noise_stddev()),
      keys);
  for (std::int64_t j = 0; j < batch; ++j) {
    TensorList one = looped.example(j);
    mechanism.sanitize(one, rng_b);
    looped.set_example(j, one);
  }
  // Identical draws consumed from the caller's Rng...
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
  // ...and identical noise laid down.
  for (std::size_t p = 0; p < batched.rows.size(); ++p) {
    for (std::int64_t i = 0; i < batched.rows[p].numel(); ++i) {
      ASSERT_EQ(batched.rows[p].at(i), looped.rows[p].at(i))
          << "p " << p << " i " << i;
    }
  }
}

// Every instruction-set build of the noise kernel the host can run,
// then the dispatched entry point (kBaseline stands in for it below).
std::vector<NoiseIsa> supported_noise_isas() {
  std::vector<NoiseIsa> isas;
  for (NoiseIsa isa : {NoiseIsa::kBaseline, NoiseIsa::kAvx2,
                       NoiseIsa::kAvx512}) {
    if (noise_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

std::uint32_t float_bits(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(PhiloxNoise, FastFillMatchesScalarReferenceOnEveryIsa) {
  const std::uint64_t key = 0x0123456789ABCDEFull;
  const std::uint64_t stream = 5;
  const CounterNoise noise(key);
  for (const std::int64_t n : {0, 1, 3, 4, 5, 63, 64, 65, 4099}) {
    std::vector<float> base(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
      base[static_cast<std::size_t>(i)] = 0.01f * static_cast<float>(i % 97);
    auto check = [&](const std::vector<float>& zeros_fill,
                     const std::vector<float>& fused_fill,
                     const char* which) {
      for (std::int64_t i = 0; i < n; ++i) {
        const std::size_t u = static_cast<std::size_t>(i);
        const float z = static_cast<float>(
            noise.normal(stream, static_cast<std::uint64_t>(i)));
        ASSERT_EQ(float_bits(zeros_fill[u]), float_bits(z))
            << which << " n " << n << " element " << i;
        // d * scale + stddev * z with every product rounded on its own.
        volatile float scaled = base[u] * 0.75f;
        volatile float noised = 2.5f * z;
        const float expected = scaled + noised;
        ASSERT_EQ(float_bits(fused_fill[u]), float_bits(expected))
            << which << " n " << n << " element " << i;
      }
    };
    for (NoiseIsa isa : supported_noise_isas()) {
      std::vector<float> zeros(static_cast<std::size_t>(n), 0.0f);
      scale_add_normal(isa, key, stream, 0, zeros.data(), n, 1.0f, 1.0f);
      std::vector<float> fused = base;
      scale_add_normal(isa, key, stream, 0, fused.data(), n, 0.75f, 2.5f);
      check(zeros, fused, "isa build");
    }
    std::vector<float> zeros(static_cast<std::size_t>(n), 0.0f);
    noise.add_scaled(zeros.data(), n, stream, 1.0);
    std::vector<float> fused = base;
    noise.scale_add(fused.data(), n, stream, 0.75f, 2.5f);
    check(zeros, fused, "dispatched");
  }
}

TEST(PhiloxNoise, SlicedFillMatchesWholeFill) {
  // Any cut of the element range — inside a 64-element group or on
  // its edge — lays down the same bits as one whole fill.
  const CounterNoise noise(77);
  const std::int64_t n = 4099;
  std::vector<float> whole(static_cast<std::size_t>(n), 1.0f);
  noise.scale_add(whole.data(), n, 2, 0.5f, 3.0f);
  std::vector<float> sliced(static_cast<std::size_t>(n), 1.0f);
  const std::int64_t cuts[] = {0, 1, 37, 64, 100, 1000, 1024, 4097, n};
  for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
    const std::int64_t b = cuts[c], e = cuts[c + 1];
    noise.scale_add(sliced.data() + b, e - b, 2, 0.5f, 3.0f,
                    static_cast<std::uint64_t>(b));
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    ASSERT_EQ(float_bits(sliced[u]), float_bits(whole[u])) << "element " << i;
  }
}

TEST(PhiloxNoise, TailReachesSixAndAHalfSigma) {
  // u1 keeps 31 random bits: the smallest u1 the mapping produces is
  // 2^-32 (words 0 and 1), so a draw can reach sqrt(64 ln 2) ~ 6.66
  // sigma; a 24-bit u1 would stop at 5.77.
  EXPECT_GE(noise_radius(0u), 6.5f);
  EXPECT_EQ(noise_radius(0u), noise_radius(1u));
  EXPECT_LT(noise_radius(0u), 6.7f);
  EXPECT_GT(noise_radius(0u), noise_radius(2u));
  // u1 = 1 at the other end: radius 0, never NaN.
  EXPECT_EQ(noise_radius(0xFFFFFFFFu), 0.0f);
}

TEST(PhiloxNoise, MechanismSanitizeDrawsOneKeyAndIsPoolInvariant) {
  const dp::GaussianMechanism mechanism(/*noise_scale=*/1.5,
                                        /*sensitivity=*/2.0);
  const float stddev = static_cast<float>(mechanism.noise_stddev());
  // Client updates are sanitized concurrently, one per pool task, as the
  // trainer's per-client parallel_for does. Each update has a parameter
  // that is not a whole number of 64-element groups.
  constexpr std::size_t kClients = 6;
  auto run = [&](std::size_t n_threads, std::vector<TensorList>& updates) {
    for (std::size_t c = 0; c < kClients; ++c)
      updates.push_back({Tensor::zeros({40, 30}), Tensor::zeros({17})});
    std::vector<std::uint64_t> next_draw(kClients);
    ThreadPool pool(n_threads);
    pool.parallel_for(kClients, [&](std::size_t c) {
      Rng rng(2024 + c);
      mechanism.sanitize(updates[c], rng);
      next_draw[c] = rng.next_u64();
    });
    for (std::size_t c = 0; c < kClients; ++c) {
      // Exactly one u64 consumed: the next draw is the reference's second.
      Rng reference(2024 + c);
      const CounterNoise noise(reference.next_u64());
      EXPECT_EQ(next_draw[c], reference.next_u64()) << "client " << c;
      for (std::size_t p = 0; p < updates[c].size(); ++p) {
        for (std::int64_t i = 0; i < updates[c][p].numel(); ++i) {
          const float z = static_cast<float>(
              noise.normal(p, static_cast<std::uint64_t>(i)));
          ASSERT_EQ(float_bits(updates[c][p].at(i)), float_bits(stddev * z))
              << "client " << c << " p " << p << " i " << i;
        }
      }
    }
  };
  std::vector<TensorList> u1;
  run(1, u1);
  for (const std::size_t n_threads : {2, 8}) {
    std::vector<TensorList> un;
    run(n_threads, un);
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t p = 0; p < u1[c].size(); ++p) {
        for (std::int64_t i = 0; i < u1[c][p].numel(); ++i) {
          ASSERT_EQ(float_bits(u1[c][p].at(i)), float_bits(un[c][p].at(i)))
              << n_threads << " threads, client " << c << " p " << p
              << " i " << i;
        }
      }
    }
  }
}

TEST(PhiloxNoise, MomentsAreSane) {
  const CounterNoise noise(31337);
  const std::int64_t n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double z = noise.normal(0, static_cast<std::uint64_t>(i));
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

}  // namespace
}  // namespace fedcl
