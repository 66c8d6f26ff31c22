#include "core/accounting.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/telemetry.h"
#include "dp/accountant.h"

namespace fedcl::core {

namespace {

constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

}  // namespace

PrivacyReport account_privacy(const FlPrivacySetup& setup) {
  FEDCL_CHECK_GT(setup.total_examples, 0);
  FEDCL_CHECK_GT(setup.batch_size, 0);
  FEDCL_CHECK_GT(setup.clients_per_round, 0);
  FEDCL_CHECK_GE(setup.total_clients, setup.clients_per_round);
  FEDCL_CHECK_GT(setup.local_iterations, 0);
  FEDCL_CHECK_GT(setup.rounds, 0);
  FEDCL_CHECK_GT(setup.noise_scale, 0.0);

  PrivacyReport report;
  report.instance_q =
      static_cast<double>(setup.batch_size * setup.clients_per_round) /
      static_cast<double>(setup.total_examples);
  report.client_q = static_cast<double>(setup.clients_per_round) /
                    static_cast<double>(setup.total_clients);
  report.instance_steps = setup.rounds * setup.local_iterations;
  report.client_steps = setup.rounds;

  dp::MomentsAccountant client_acc(report.client_q, setup.noise_scale);
  report.fed_sdp_client_epsilon =
      client_acc.epsilon(report.client_steps, setup.delta);
  report.fed_sdp_client_epsilon_closed_form = dp::abadi_bound_epsilon(
      report.client_q, setup.noise_scale, report.client_steps, setup.delta);

  report.instance_level_defined = report.instance_q <= 1.0;
  if (!report.instance_level_defined) {
    // B*Kt > N: no per-example sampling rate exists (e.g. a virtual
    // cohort sharing one small dataset). Fed-SDP's client-level budget
    // above needs only Kt/K; the instance level stays undefined.
    report.fed_cdp_instance_epsilon = kUndefined;
    report.fed_cdp_client_epsilon = kUndefined;
    report.fed_cdp_instance_epsilon_closed_form = kUndefined;
    return report;
  }
  dp::MomentsAccountant instance_acc(report.instance_q, setup.noise_scale);
  report.sampling_condition_ok = instance_acc.sampling_condition_ok();
  report.fed_cdp_instance_epsilon =
      instance_acc.epsilon(report.instance_steps, setup.delta);
  // Billboard lemma: the client-level joint-DP budget equals the
  // instance-level budget of the released global model.
  report.fed_cdp_client_epsilon = report.fed_cdp_instance_epsilon;
  report.fed_cdp_instance_epsilon_closed_form = dp::abadi_bound_epsilon(
      report.instance_q, setup.noise_scale, report.instance_steps,
      setup.delta);
  return report;
}

PrivacyRoundSeries epsilon_round_series(const FlPrivacySetup& setup) {
  FEDCL_CHECK_GT(setup.total_examples, 0);
  FEDCL_CHECK_GT(setup.batch_size, 0);
  FEDCL_CHECK_GT(setup.clients_per_round, 0);
  FEDCL_CHECK_GE(setup.total_clients, setup.clients_per_round);
  FEDCL_CHECK_GT(setup.local_iterations, 0);
  FEDCL_CHECK_GT(setup.rounds, 0);
  FEDCL_CHECK_GT(setup.noise_scale, 0.0);

  const double instance_q =
      static_cast<double>(setup.batch_size * setup.clients_per_round) /
      static_cast<double>(setup.total_examples);
  const double client_q = static_cast<double>(setup.clients_per_round) /
                          static_cast<double>(setup.total_clients);
  dp::MomentsAccountant client_acc(client_q, setup.noise_scale);
  PrivacyRoundSeries series;
  series.client_epsilon =
      client_acc.epsilon_series(1, setup.rounds, setup.delta);
  if (instance_q > 1.0) {
    series.instance_epsilon.assign(static_cast<std::size_t>(setup.rounds),
                                   kUndefined);
    return series;
  }
  dp::MomentsAccountant instance_acc(instance_q, setup.noise_scale);
  series.instance_epsilon = instance_acc.epsilon_series(
      setup.local_iterations, setup.rounds, setup.delta);
  return series;
}

void record_epsilon(const PrivacyRoundSeries& series, std::int64_t round) {
  if (series.client_epsilon.empty()) return;
  telemetry::Registry& registry = telemetry::global_registry();
  const auto r = static_cast<std::size_t>(round);
  auto record = [&](const char* level, double eps) {
    registry.gauge("dp.epsilon", {{"level", level}}).set(eps);
    registry.record_point("dp.epsilon", round, eps, {{"level", level}});
  };
  if (std::isfinite(series.instance_epsilon[r])) {
    record("instance", series.instance_epsilon[r]);
  }
  record("client", series.client_epsilon[r]);
}

}  // namespace fedcl::core
