// Privacy planner: explores the moments accountant interactively from
// the command line — how the (epsilon, delta) budget of Fed-CDP and
// Fed-SDP moves with the noise scale, sampling rate, local iterations
// and round count.
//
// Usage:
//   privacy_planner                         # paper-default sweep
//   privacy_planner N B Kt K L T sigma      # a specific deployment
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/table.h"
#include "core/accounting.h"
#include "dp/accountant.h"

int main(int argc, char** argv) {
  using namespace fedcl;

  if (argc == 8) {
    core::FlPrivacySetup setup;
    setup.total_examples = std::atoll(argv[1]);
    setup.batch_size = std::atoll(argv[2]);
    setup.clients_per_round = std::atoll(argv[3]);
    setup.total_clients = std::atoll(argv[4]);
    setup.local_iterations = std::atoll(argv[5]);
    setup.rounds = std::atoll(argv[6]);
    setup.noise_scale = std::atof(argv[7]);
    setup.delta = 1e-5;
    core::PrivacyReport r = core::account_privacy(setup);
    if (!r.instance_level_defined) {
      // B*Kt > N: no instance-level sampling rate, so Fed-CDP has no
      // epsilon; Fed-SDP's client-level budget needs only Kt/K.
      std::printf("instance-level: undefined (B*Kt > N)\n");
      std::printf("client-level:   q=%.5f steps=%lld  Fed-SDP eps=%.4f\n",
                  r.client_q, static_cast<long long>(r.client_steps),
                  r.fed_sdp_client_epsilon);
      return 0;
    }
    std::printf("instance-level: q=%.5f steps=%lld  Fed-CDP eps=%.4f "
                "(closed form %.4f)\n",
                r.instance_q, static_cast<long long>(r.instance_steps),
                r.fed_cdp_instance_epsilon,
                r.fed_cdp_instance_epsilon_closed_form);
    std::printf("client-level:   q=%.5f steps=%lld  Fed-CDP eps=%.4f "
                "(joint DP), Fed-SDP eps=%.4f\n",
                r.client_q, static_cast<long long>(r.client_steps),
                r.fed_cdp_client_epsilon, r.fed_sdp_client_epsilon);
    std::printf("moments-accountant condition q < 1/(16 sigma): %s\n",
                r.sampling_condition_ok ? "satisfied" : "VIOLATED");
    return 0;
  }

  std::printf("fedcl privacy planner — paper defaults: q=0.01, "
              "delta=1e-5\n\n");

  // Sweep 1: epsilon vs noise scale at fixed steps.
  {
    AsciiTable table("epsilon vs noise scale (q=0.01, T*L=10000 steps)");
    table.set_header({"sigma", "eps (moments accountant)",
                      "eps (Eq.2 closed form)", "eps (basic composition)"});
    for (double sigma : {1.0, 2.0, 4.0, 6.0, 8.0, 12.0}) {
      dp::MomentsAccountant acc(0.01, sigma);
      table.add_row({AsciiTable::fmt(sigma, 1),
                     AsciiTable::fmt(acc.epsilon(10000, 1e-5)),
                     AsciiTable::fmt(
                         dp::abadi_bound_epsilon(0.01, sigma, 10000, 1e-5)),
                     AsciiTable::fmt(dp::basic_composition_epsilon(
                         0.01, sigma, 10000, 1e-5))});
    }
    table.print();
    std::printf("(the moments accountant is the reason DP-SGD style "
                "training is affordable: basic composition is orders of "
                "magnitude looser)\n\n");
  }

  // Sweep 2: epsilon vs rounds for L=1 vs L=100 (the paper's Table VI
  // contrast).
  {
    AsciiTable table("Fed-CDP epsilon vs rounds (q=0.01, sigma=6)");
    table.set_header({"rounds T", "L=1", "L=100"});
    for (std::int64_t rounds : {3, 10, 60, 100, 300}) {
      dp::MomentsAccountant acc(0.01, 6.0);
      table.add_row({std::to_string(rounds),
                     AsciiTable::fmt(acc.epsilon(rounds, 1e-5)),
                     AsciiTable::fmt(acc.epsilon(rounds * 100, 1e-5))});
    }
    table.print();
    std::printf("\n");
  }

  // Sweep 3: epsilon vs sampling rate.
  {
    AsciiTable table("epsilon vs sampling rate (sigma=6, 10000 steps)");
    table.set_header({"q", "eps", "q < 1/(16 sigma)?"});
    for (double q : {0.001, 0.005, 0.01, 0.02, 0.05}) {
      dp::MomentsAccountant acc(q, 6.0);
      table.add_row({AsciiTable::fmt(q, 3),
                     AsciiTable::fmt(acc.epsilon(10000, 1e-5)),
                     acc.sampling_condition_ok() ? "yes" : "no"});
    }
    table.print();
  }

  std::printf("\nFor a specific deployment:\n"
              "  privacy_planner <N> <B> <Kt> <K> <L> <T> <sigma>\n");
  return 0;
}
