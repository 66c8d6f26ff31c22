#include "dp/gaussian.h"

#include <cmath>

#include "common/error.h"
#include "common/philox.h"
#include "common/rng.h"

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

double GaussianMechanism::sigma_for(double epsilon, double delta) {
  FEDCL_CHECK(epsilon > 0.0 && epsilon < 1.0) << "epsilon " << epsilon;
  FEDCL_CHECK(delta > 0.0 && delta < 1.0) << "delta " << delta;
  return std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
}

}  // namespace fedcl::dp
