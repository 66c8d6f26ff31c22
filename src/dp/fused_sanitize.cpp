#include "dp/fused_sanitize.h"

#include <cmath>

#include "common/error.h"
#include "common/thread_pool.h"

namespace fedcl::dp {

namespace {

// Shared per-example kernel: per-param clip scales resolved from the
// group norms, then one fused traversal per tensor. `norms` points at
// this example's groups.size() entries.
void scale_noise_impl(const ExampleView& ex, const ParamGroups& groups,
                      const double* norms, double bound, double stddev,
                      const CounterNoise& noise) {
  // scale == 1.0f for unclipped params: x * 1.0f is exact, so the fused
  // loop below stays branch-free without perturbing unclipped values.
  std::vector<float> scales(ex.size(), 1.0f);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const double norm = norms[g];
    if (norm > bound) {
      const float scale = static_cast<float>(bound / norm);
      for (std::size_t p : groups[g]) {
        FEDCL_CHECK_LT(p, ex.size());
        scales[p] = scale;
      }
    }
  }
  const float fstddev = static_cast<float>(stddev);
  for (std::size_t p = 0; p < ex.size(); ++p) {
    float* d = ex[p].data;
    const std::int64_t n = ex[p].numel;
    const float s = scales[p];
    if (fstddev == 0.0f) {
      if (s != 1.0f) {
        for (std::int64_t i = 0; i < n; ++i) d[i] *= s;
      }
      continue;
    }
    noise.scale_add(d, n, static_cast<std::uint64_t>(p), s, fstddev);
  }
}

}  // namespace

ExampleView view_of(TensorList& grad) {
  ExampleView ex;
  ex.reserve(grad.size());
  for (std::size_t p = 0; p < grad.size(); ++p) {
    ex.push_back(ParamSpan{grad[p].data(), grad[p].numel()});
  }
  return ex;
}

ExampleView view_of_example(tensor::list::PerExampleGrads& grads,
                            std::int64_t j) {
  ExampleView ex;
  ex.reserve(grads.rows.size());
  for (auto& rows : grads.rows) {
    const std::int64_t width = rows.numel() / grads.batch;
    ex.push_back(ParamSpan{rows.data() + j * width, width});
  }
  return ex;
}

std::vector<double> group_norms(const ExampleView& ex,
                                const ParamGroups& groups) {
  std::vector<double> norms;
  norms.reserve(groups.size());
  for (const auto& group : groups) {
    // Same accumulation order as l2_norm_subset / the sliced path:
    // per-tensor sum of squares rounded through float, joint sqrt last.
    double joint = 0.0;
    for (std::size_t p : group) {
      FEDCL_CHECK_LT(p, ex.size());
      const float* d = ex[p].data;
      double s = 0.0;
      for (std::int64_t i = 0; i < ex[p].numel; ++i)
        s += static_cast<double>(d[i]) * static_cast<double>(d[i]);
      const double tensor_norm =
          static_cast<double>(static_cast<float>(std::sqrt(s)));
      joint += tensor_norm * tensor_norm;
    }
    norms.push_back(std::sqrt(joint));
  }
  return norms;
}

void scale_noise(const ExampleView& ex, const ParamGroups& groups,
                 const std::vector<double>& norms, double bound, double stddev,
                 const CounterNoise& noise) {
  FEDCL_CHECK_EQ(norms.size(), groups.size());
  scale_noise_impl(ex, groups, norms.data(), bound, stddev, noise);
}

std::vector<double> batch_group_norms(tensor::list::PerExampleGrads& grads,
                                      const ParamGroups& groups,
                                      ThreadPool* pool) {
  const std::int64_t batch = grads.batch;
  std::vector<double> norms(static_cast<std::size_t>(batch) * groups.size());
  ThreadPool& p = pool != nullptr ? *pool : compute_pool();
  p.parallel_for_chunks(
      static_cast<std::size_t>(batch), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          const ExampleView ex =
              view_of_example(grads, static_cast<std::int64_t>(j));
          const std::vector<double> ex_norms = group_norms(ex, groups);
          for (std::size_t g = 0; g < groups.size(); ++g)
            norms[j * groups.size() + g] = ex_norms[g];
        }
      });
  return norms;
}

void batch_scale_noise(tensor::list::PerExampleGrads& grads,
                       const ParamGroups& groups,
                       const std::vector<double>& norms,
                       const std::vector<double>& bounds,
                       const std::vector<double>& stddevs,
                       const std::vector<std::uint64_t>& keys,
                       ThreadPool* pool) {
  const std::size_t batch = static_cast<std::size_t>(grads.batch);
  FEDCL_CHECK_EQ(norms.size(), batch * groups.size());
  FEDCL_CHECK_EQ(bounds.size(), batch);
  FEDCL_CHECK_EQ(stddevs.size(), batch);
  FEDCL_CHECK_EQ(keys.size(), batch);
  ThreadPool& p = pool != nullptr ? *pool : compute_pool();
  p.parallel_for_chunks(batch, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const ExampleView ex =
          view_of_example(grads, static_cast<std::int64_t>(j));
      const CounterNoise noise(keys[j]);
      scale_noise_impl(ex, groups, norms.data() + j * groups.size(),
                       bounds[j], stddevs[j], noise);
    }
  });
}

}  // namespace fedcl::dp
