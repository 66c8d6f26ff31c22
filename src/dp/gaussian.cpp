#include "dp/gaussian.h"

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/philox.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace fedcl::dp {

GaussianMechanism::GaussianMechanism(double noise_scale, double sensitivity)
    : noise_scale_(noise_scale), sensitivity_(sensitivity) {
  FEDCL_CHECK_GE(noise_scale, 0.0);
  FEDCL_CHECK_GT(sensitivity, 0.0);
}

void GaussianMechanism::sanitize(TensorList& update, Rng& rng) const {
  const CounterNoise noise(rng.next_u64());
  const float stddev = static_cast<float>(noise_stddev());
  if (stddev == 0.0f) return;
  for (std::size_t p = 0; p < update.size(); ++p) {
    noise.scale_add(update[p].data(), update[p].numel(),
                    static_cast<std::uint64_t>(p), 1.0f, stddev);
  }
}

void GaussianMechanism::sanitize(Tensor& update, Rng& rng) const {
  const CounterNoise noise(rng.next_u64());
  if (noise_stddev() == 0.0) return;
  noise.add_scaled(update.data(), update.numel(), /*stream=*/0,
                   noise_stddev());
}

void GaussianMechanism::sanitize_per_example(
    tensor::list::PerExampleGrads& grads, Rng& rng) const {
  // The only serial work is one key draw per example; the fill itself
  // is a pure function of (key, param, element) and parallelizes over
  // examples with bitwise-stable results.
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(grads.batch));
  for (auto& k : keys) k = rng.next_u64();
  const double stddev = noise_stddev();
  if (stddev == 0.0) return;
  compute_pool().parallel_for_chunks(
      static_cast<std::size_t>(grads.batch), 1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          const CounterNoise noise(keys[j]);
          for (std::size_t p = 0; p < grads.rows.size(); ++p) {
            Tensor& rows = grads.rows[p];
            const std::int64_t width = rows.numel() / grads.batch;
            noise.add_scaled(rows.data() + static_cast<std::int64_t>(j) * width,
                             width, static_cast<std::uint64_t>(p), stddev);
          }
        }
      });
}

double GaussianMechanism::sigma_for(double epsilon, double delta) {
  FEDCL_CHECK(epsilon > 0.0 && epsilon < 1.0) << "epsilon " << epsilon;
  FEDCL_CHECK(delta > 0.0 && delta < 1.0) << "delta " << delta;
  return std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
}

}  // namespace fedcl::dp
