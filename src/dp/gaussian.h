// The Gaussian mechanism (Definition 2): additive noise
// N(0, sigma^2 * S^2) calibrated to sensitivity S.
#pragma once

#include "tensor/tensor_list.h"

namespace fedcl {
class Rng;
}

namespace fedcl::dp {

using tensor::Tensor;
using tensor::list::TensorList;

class GaussianMechanism {
 public:
  // noise_scale is the paper's sigma; sensitivity is S (set to the
  // clipping bound C in both Fed-SDP and Fed-CDP).
  GaussianMechanism(double noise_scale, double sensitivity);

  double noise_scale() const { return noise_scale_; }
  double sensitivity() const { return sensitivity_; }
  double noise_stddev() const { return noise_scale_ * sensitivity_; }

  // Adds N(0, (sigma*S)^2) i.i.d. to every coordinate, from the
  // counter-based Philox kernel (common/philox.h): exactly ONE 64-bit
  // key is drawn from `rng` per call, and element i of parameter p is
  // then a pure function of (key, p, i), so the result does not depend
  // on which thread runs the call. Used for Fed-SDP's client and server
  // noise.
  void sanitize(TensorList& update, Rng& rng) const;
  // Per-example noise (Fed-CDP) does not come through here: it is the
  // fused clip+noise pass, dp::batch_scale_noise (dp/fused_sanitize.h).

  // The minimal sigma that makes one application (epsilon, delta)-DP
  // per Definition 2 / Lemma 1 (valid for 0 < epsilon < 1).
  static double sigma_for(double epsilon, double delta);

 private:
  double noise_scale_;
  double sensitivity_;
};

}  // namespace fedcl::dp
