// Fast-vs-naive kernel checking helpers shared by tests.
//
// Each optimized kernel (blocked matmul, span-based im2col/col2im, the
// fused DP sanitizer, the batched per-example gradient engine) is
// checked against a deliberately naive reference: straight loops,
// double accumulation where the reference is numerical, and the exact
// float order where the comparison must be bitwise. Inputs come from
// seeded per-op RNG fills so every shape in a sweep exercises
// different data.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/tensor_list.h"

namespace fedcl::testing {

using tensor::ConvSpec;
using tensor::Shape;
using tensor::Tensor;

// Seeded standard-normal fill; one fresh Rng per op keeps checks
// independent of evaluation order in a sweep.
inline Tensor rng_fill(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(shape, rng);
}

// C = A B in double precision, naive triple loop.
inline std::vector<double> naive_matmul_nn(const float* a, const float* b,
                                           std::int64_t m, std::int64_t k,
                                           std::int64_t n) {
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t kk = 0; kk < k; ++kk)
      for (std::int64_t j = 0; j < n; ++j)
        c[i * n + j] += static_cast<double>(a[i * k + kk]) *
                        static_cast<double>(b[kk * n + j]);
  return c;
}

// C = A^T B, A: [k, m].
inline std::vector<double> naive_matmul_tn(const float* a, const float* b,
                                           std::int64_t k, std::int64_t m,
                                           std::int64_t n) {
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (std::int64_t kk = 0; kk < k; ++kk)
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j)
        c[i * n + j] += static_cast<double>(a[kk * m + i]) *
                        static_cast<double>(b[kk * n + j]);
  return c;
}

// C = A B^T, B: [n, k].
inline std::vector<double> naive_matmul_nt(const float* a, const float* b,
                                           std::int64_t m, std::int64_t k,
                                           std::int64_t n) {
  std::vector<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t kk = 0; kk < k; ++kk)
        c[i * n + j] += static_cast<double>(a[i * k + kk]) *
                        static_cast<double>(b[j * k + kk]);
  return c;
}

// Float kernels accumulate k terms in single precision; bound the
// comparison by a k-scaled tolerance around the double reference.
inline void expect_matmul_close(const Tensor& got,
                                const std::vector<double>& ref,
                                std::int64_t k, const char* what) {
  ASSERT_EQ(static_cast<std::size_t>(got.numel()), ref.size()) << what;
  const double tol = 1e-5 * std::sqrt(static_cast<double>(k)) + 1e-6;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const double scale = std::max(1.0, std::abs(ref[static_cast<std::size_t>(i)]));
    EXPECT_NEAR(got.at(i), ref[static_cast<std::size_t>(i)], tol * scale)
        << what << " element " << i;
  }
}

// The original per-element im2col, kept verbatim as the reference for
// the span-based fast path (which must match it bitwise — it moves the
// same floats, just in larger pieces).
inline Tensor naive_im2col(const Tensor& x, const ConvSpec& spec) {
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  Tensor cols({n * oh * ow, patch});
  const float* px = x.data();
  float* pc = cols.data();
  const std::int64_t hw_stride = spec.in_w * spec.in_c;
  for (std::int64_t b = 0; b < n; ++b) {
    const float* img = px + b * spec.in_h * hw_stride;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        float* row = pc + ((b * oh + y) * ow + xo) * patch;
        const std::int64_t ys = y * spec.stride - spec.pad;
        const std::int64_t xs = xo * spec.stride - spec.pad;
        std::int64_t k = 0;
        for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
          const std::int64_t yy = ys + kh;
          for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw) {
            const std::int64_t xx = xs + kw;
            if (yy >= 0 && yy < spec.in_h && xx >= 0 && xx < spec.in_w) {
              const float* src = img + yy * hw_stride + xx * spec.in_c;
              for (std::int64_t c = 0; c < spec.in_c; ++c) row[k++] = src[c];
            } else {
              for (std::int64_t c = 0; c < spec.in_c; ++c) row[k++] = 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

// The original per-element col2im (adjoint scatter), same role.
inline Tensor naive_col2im(const Tensor& cols, const ConvSpec& spec,
                           std::int64_t n) {
  const std::int64_t oh = spec.out_h(), ow = spec.out_w();
  const std::int64_t patch = spec.patch_size();
  Tensor x({n, spec.in_h, spec.in_w, spec.in_c});
  const float* pc = cols.data();
  float* px = x.data();
  const std::int64_t hw_stride = spec.in_w * spec.in_c;
  for (std::int64_t b = 0; b < n; ++b) {
    float* img = px + b * spec.in_h * hw_stride;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        const float* row = pc + ((b * oh + y) * ow + xo) * patch;
        const std::int64_t ys = y * spec.stride - spec.pad;
        const std::int64_t xs = xo * spec.stride - spec.pad;
        std::int64_t k = 0;
        for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
          const std::int64_t yy = ys + kh;
          for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw) {
            const std::int64_t xx = xs + kw;
            if (yy >= 0 && yy < spec.in_h && xx >= 0 && xx < spec.in_w) {
              float* dst = img + yy * hw_stride + xx * spec.in_c;
              for (std::int64_t c = 0; c < spec.in_c; ++c) dst[c] += row[k++];
            } else {
              k += spec.in_c;
            }
          }
        }
      }
    }
  }
  return x;
}

// Per-example gradients the long way: the batched engine's arithmetic
// with none of its shortcuts. The backward runs all the way to the
// input, every convolution unfolds with naive_im2col, weight gradients
// are matmul_tn_into accumulations into zero-filled rows, the conv
// input gradient is the unfused per-image matmul_nn_into tile scattered
// by naive_col2im, the softmax is composed from tensor ops, and every
// activation backward is its own pass. The engine must match it bit
// for bit; layers with stochastic state (Dropout) must be given a
// model whose streams are where the engine's were.
inline tensor::list::PerExampleGrads reference_per_example_gradients(
    nn::Sequential& model, const Tensor& x,
    const std::vector<std::int64_t>& labels, double* out_loss = nullptr) {
  namespace t = fedcl::tensor;
  struct Step {
    Tensor input, output, cols, mask;
    ConvSpec spec;
    std::vector<std::int64_t> argmax;
    std::size_t weight_index = 0;
  };
  const std::int64_t batch = x.dim(0);
  const auto& params = model.parameters();
  std::vector<Step> steps(model.layer_count());
  auto add_bias = [&](Tensor& y, std::size_t weight_index) {
    const Tensor& bias = params[weight_index + 1].value();
    for (std::int64_t e = 0; e < y.numel(); ++e)
      y.at(e) += bias.at(e % bias.numel());
  };
  Tensor h = x;
  std::size_t param_index = 0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    nn::Layer& layer = model.layer(i);
    Step& st = steps[i];
    st.input = h;
    if (dynamic_cast<nn::Linear*>(&layer) != nullptr) {
      st.weight_index = param_index;
      param_index += 2;
      h = t::matmul(h, params[st.weight_index].value());
      add_bias(h, st.weight_index);
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      st.spec = ConvSpec{h.dim(1), h.dim(2), conv->in_channels(),
                         conv->kernel(), conv->kernel(), conv->stride(),
                         conv->pad()};
      st.weight_index = param_index;
      param_index += 2;
      st.cols = naive_im2col(h, st.spec);
      h = t::matmul(st.cols, params[st.weight_index].value());
      add_bias(h, st.weight_index);
      h = h.reshape({batch, st.spec.out_h(), st.spec.out_w(),
                     conv->out_channels()});
    } else if (auto* avg = dynamic_cast<nn::AvgPool2d*>(&layer)) {
      const std::int64_t n = h.dim(0), ih = h.dim(1), iw = h.dim(2),
                         c = h.dim(3), k = avg->kernel();
      const std::int64_t oh = (ih - k) / k + 1, ow = (iw - k) / k + 1;
      const float inv = 1.0f / static_cast<float>(k * k);
      Tensor y({n, oh, ow, c});
      for (std::int64_t b = 0; b < n; ++b)
        for (std::int64_t oy = 0; oy < oh; ++oy)
          for (std::int64_t ox = 0; ox < ow; ++ox)
            for (std::int64_t ch = 0; ch < c; ++ch) {
              float s = 0.0f;
              for (std::int64_t ky = 0; ky < k; ++ky)
                for (std::int64_t kx = 0; kx < k; ++kx)
                  s += h.at(((b * ih + oy * k + ky) * iw + ox * k + kx) * c +
                            ch) *
                       inv;
              y.at(((b * oh + oy) * ow + ox) * c + ch) = s;
            }
      h = y;
    } else if (auto* mp = dynamic_cast<nn::MaxPool2d*>(&layer)) {
      const std::int64_t n = h.dim(0), ih = h.dim(1), iw = h.dim(2),
                         c = h.dim(3), k = mp->kernel();
      const std::int64_t oh = ih / k, ow = iw / k;
      Tensor y({n, oh, ow, c});
      st.argmax.resize(static_cast<std::size_t>(y.numel()));
      for (std::int64_t b = 0; b < n; ++b)
        for (std::int64_t oy = 0; oy < oh; ++oy)
          for (std::int64_t ox = 0; ox < ow; ++ox)
            for (std::int64_t ch = 0; ch < c; ++ch) {
              std::int64_t best = -1;
              for (std::int64_t ky = 0; ky < k; ++ky)
                for (std::int64_t kx = 0; kx < k; ++kx) {
                  const std::int64_t at =
                      ((b * ih + oy * k + ky) * iw + ox * k + kx) * c + ch;
                  if (best < 0 || h.at(at) > h.at(best)) best = at;
                }
              const std::int64_t o = ((b * oh + oy) * ow + ox) * c + ch;
              y.at(o) = h.at(best);
              st.argmax[static_cast<std::size_t>(o)] = best;
            }
      h = y;
    } else if (auto* drop = dynamic_cast<nn::Dropout*>(&layer)) {
      if (drop->training() && drop->p() > 0.0) {
        st.mask = drop->sample_mask(h.shape());
        h = t::mul(h, st.mask);
      }
    } else if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
      h = h.reshape({h.dim(0), h.numel() / h.dim(0)});
    } else if (auto* scale = dynamic_cast<nn::InputScale*>(&layer)) {
      h = t::mul_scalar(t::add_scalar(h, scale->shift()), scale->scale());
    } else if (auto* act = dynamic_cast<nn::ActivationLayer*>(&layer)) {
      switch (act->kind()) {
        case nn::Activation::kRelu: h = t::relu(h); break;
        case nn::Activation::kSigmoid: h = t::sigmoid(h); break;
        case nn::Activation::kTanh: h = t::tanh(h); break;
      }
    } else {
      FEDCL_CHECK(false) << "reference: unsupported layer " << layer.name();
    }
    st.output = h;
  }

  const std::int64_t classes = h.dim(1);
  const Tensor e =
      t::exp(t::sub(h, t::broadcast_col(t::row_max(h), classes)));
  Tensor delta = t::div(e, t::broadcast_col(t::row_sum(e), classes));
  if (out_loss != nullptr) {
    double total = 0.0;
    for (std::int64_t j = 0; j < batch; ++j)
      total += -std::log(
          static_cast<double>(
              delta.at(j * classes + labels[static_cast<std::size_t>(j)])) +
          1e-30);
    *out_loss = total / static_cast<double>(batch);
  }
  for (std::int64_t j = 0; j < batch; ++j)
    delta.at(j * classes + labels[static_cast<std::size_t>(j)]) -= 1.0f;

  std::vector<Shape> shapes;
  for (const auto& p : params) shapes.push_back(p.value().shape());
  tensor::list::PerExampleGrads grads =
      tensor::list::make_per_example(batch, std::move(shapes));

  for (std::size_t i = model.layer_count(); i-- > 0;) {
    nn::Layer& layer = model.layer(i);
    Step& st = steps[i];
    const Shape& in_shape = st.input.shape();
    if (auto* lin = dynamic_cast<nn::Linear*>(&layer)) {
      const std::int64_t in = lin->in_features(), out = lin->out_features();
      for (std::int64_t j = 0; j < batch; ++j) {
        t::matmul_tn_into(st.input.data() + j * in, delta.data() + j * out,
                          grads.rows[st.weight_index].data() + j * in * out,
                          1, in, out);
        std::memcpy(grads.rows[st.weight_index + 1].data() + j * out,
                    delta.data() + j * out, sizeof(float) * out);
      }
      delta = t::matmul_nt(delta, params[st.weight_index].value());
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      const std::int64_t patches = st.spec.out_h() * st.spec.out_w();
      const std::int64_t width = st.spec.patch_size();
      const std::int64_t oc = conv->out_channels();
      for (std::int64_t j = 0; j < batch; ++j) {
        const float* d = delta.data() + j * patches * oc;
        t::matmul_tn_into(st.cols.data() + j * patches * width, d,
                          grads.rows[st.weight_index].data() + j * width * oc,
                          patches, width, oc);
        float* db = grads.rows[st.weight_index + 1].data() + j * oc;
        for (std::int64_t p = 0; p < patches; ++p)
          for (std::int64_t o = 0; o < oc; ++o) db[o] += d[p * oc + o];
      }
      const Tensor wt = t::transpose2d(params[st.weight_index].value());
      Tensor dcols({batch * patches, width});
      for (std::int64_t b = 0; b < batch; ++b)
        t::matmul_nn_into(delta.data() + b * patches * oc, wt.data(),
                          dcols.data() + b * patches * width, patches, oc,
                          width);
      delta = naive_col2im(dcols, st.spec, batch);
    } else if (auto* avg = dynamic_cast<nn::AvgPool2d*>(&layer)) {
      const std::int64_t n = in_shape[0], ih = in_shape[1], iw = in_shape[2],
                         c = in_shape[3], k = avg->kernel();
      const std::int64_t oh = (ih - k) / k + 1, ow = (iw - k) / k + 1;
      const float inv = 1.0f / static_cast<float>(k * k);
      Tensor dx(in_shape);
      for (std::int64_t b = 0; b < n; ++b)
        for (std::int64_t oy = 0; oy < oh; ++oy)
          for (std::int64_t ox = 0; ox < ow; ++ox)
            for (std::int64_t ch = 0; ch < c; ++ch)
              for (std::int64_t ky = 0; ky < k; ++ky)
                for (std::int64_t kx = 0; kx < k; ++kx)
                  dx.at(((b * ih + oy * k + ky) * iw + ox * k + kx) * c + ch) +=
                      delta.at(((b * oh + oy) * ow + ox) * c + ch) * inv;
      delta = dx;
    } else if (dynamic_cast<nn::MaxPool2d*>(&layer) != nullptr) {
      Tensor dx(in_shape);
      for (std::size_t o = 0; o < st.argmax.size(); ++o)
        dx.at(st.argmax[o]) += delta.at(static_cast<std::int64_t>(o));
      delta = dx;
    } else if (dynamic_cast<nn::Dropout*>(&layer) != nullptr) {
      if (st.mask.defined()) delta = t::mul(delta, st.mask);
    } else if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
      delta = delta.reshape(in_shape);
    } else if (auto* scale = dynamic_cast<nn::InputScale*>(&layer)) {
      delta = t::mul_scalar(delta, scale->scale());
    } else if (auto* act = dynamic_cast<nn::ActivationLayer*>(&layer)) {
      Tensor dx(delta.shape());
      for (std::int64_t e = 0; e < dx.numel(); ++e) {
        const float d = delta.at(e), y = st.output.at(e);
        switch (act->kind()) {
          case nn::Activation::kRelu: dx.at(e) = y > 0.0f ? d : 0.0f; break;
          case nn::Activation::kSigmoid: dx.at(e) = d * y * (1.0f - y); break;
          case nn::Activation::kTanh: dx.at(e) = d * (1.0f - y * y); break;
        }
      }
      delta = dx;
    }
  }
  return grads;
}

// Bitwise comparison of two gradient row sets (memcmp, so -0 != +0
// and NaN payloads count).
inline void expect_grads_bitwise_equal(
    const tensor::list::PerExampleGrads& got,
    const tensor::list::PerExampleGrads& want) {
  ASSERT_EQ(got.batch, want.batch);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t p = 0; p < got.rows.size(); ++p) {
    ASSERT_EQ(got.shapes[p], want.shapes[p]) << "param " << p;
    ASSERT_EQ(got.rows[p].shape(), want.rows[p].shape()) << "param " << p;
    EXPECT_EQ(std::memcmp(got.rows[p].data(), want.rows[p].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.rows[p].numel())),
              0)
        << "param " << p;
  }
}

}  // namespace fedcl::testing
