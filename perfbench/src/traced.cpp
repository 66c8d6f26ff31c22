// The traced run: drives one workload's rounds through the public
// calls its engine makes (same configuration, seeds and forks), with a
// span around each call into a layer, and reports per-layer self times.
//
// Each driven round samples the workload's cohort and, per client:
// materializes it (fl.virtual_client), runs Client::run_round
// (fl.client_round), then replays the same local training from the
// same stream through the layer calls run_round makes (data, nn, core),
// and checks the replayed update is bitwise the one run_round returned;
// the difference in time is fl.client_round_unattributed_ms. The update
// then travels serialize -> seal -> [serving: wire codec + a frame echo
// over loopback TCP] -> open -> deserialize -> screen, and is reduced
// as the workload's engine reduces it (Server::aggregate, or the
// StreamingReducer + Server::apply_mean). Rounds alternate between
// tracing off and on, so trace.traced_round_ms beside
// trace.untraced_round_ms states the tracing overhead.
//
// Layer calls that a workload's engine does not make are timed after
// the rounds as probes on the workload's own model and data, so every
// traced run reports every per-layer metric (README.md lists which are
// probes on which workload).
//
// On the Fed-CDP workloads the first client of every round also gets
// independent DP checks, computed here from the raw per-example
// gradients: per-layer clipping to C(t) (the decay schedule on
// decay-serving), a noise residual whose std is sigma*C(t), and
// residuals uncorrelated across the examples of a batch.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "dp/fused_sanitize.h"
#include "fl/client.h"
#include "fl/protocol.h"
#include "fl/server.h"
#include "fl/tree_aggregation.h"
#include "fl/update_screening.h"
#include "fl/virtual_client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "nn/grad_utils.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "nn/per_example.h"
#include "tracer.h"

namespace perfbench {

using namespace fedcl;
using tensor::list::PerExampleGrads;
using tensor::list::TensorList;

namespace {

// Clients driven per sdp-virtual round: a prefix of the sampled
// 100k-client cohort (the engine's per-client path is the same for
// every member).
constexpr std::size_t kVirtualCohort = 256;
// Spans kept for the trace file: whole traced rounds are kept until
// this many are held (self times count every span regardless).
constexpr std::size_t kKeptSpans = 20000;
// Repetitions of each off-round probe.
constexpr int kProbeReps = 20;

struct Workload {
  fl::FlExperimentConfig cfg;
  std::unique_ptr<core::PrivacyPolicy> policy;
  std::size_t cohort = 0;
  bool streaming = false;  // StreamingReducer + apply_mean
  bool serving = false;    // wire codecs and frames inside the round
  // Fed-CDP's clipping bound at round t, by this benchmark's own
  // reading of the paper's schedules: constant `clip`, or (when
  // decay_rounds > 0) 6 decaying linearly to 2 over decay_rounds.
  double decay_rounds = 0;
  double clip = 0.0;

  double clip_at(std::int64_t t) const {
    if (decay_rounds <= 0) return clip;
    const double last = decay_rounds - 1;
    const double frac = std::min(1.0, static_cast<double>(t) / last);
    return data::kDecayClipStart +
           (data::kDecayClipEnd - data::kDecayClipStart) * frac;
  }
};

Workload make_workload(const Options& o) {
  Workload w;
  if (o.workload == "cdp-cnn") {
    w.cfg = cdp_cnn_config(o.seed);
    w.clip = data::kDefaultClippingBound;
    w.policy = core::make_fed_cdp(w.clip, w.cfg.noise_scale);
    w.cohort = static_cast<std::size_t>(w.cfg.clients_per_round);
  } else if (o.workload == "sdp-virtual") {
    w.cfg = sdp_virtual_config(o.seed);
    w.policy =
        core::make_fed_sdp(data::kDefaultClippingBound, w.cfg.noise_scale);
    w.cohort = kVirtualCohort;
    w.streaming = true;
  } else {
    const net::ExperimentDescriptor d = decay_serving_descriptor(o.seed);
    w.cfg = decay_serving_config(o.seed);
    w.policy = net::make_policy(d);
    w.cohort = static_cast<std::size_t>(d.clients_per_round);
    w.serving = true;
    w.decay_rounds = static_cast<double>(d.rounds);
  }
  return w;
}

PerExampleGrads deep_copy(const PerExampleGrads& g) {
  PerExampleGrads out = g;
  out.rows = tensor::list::clone(g.rows);
  return out;
}

// ---- independent DP checks ----------------------------------------------

// `raw` is example-major [B, numel] per parameter before sanitization,
// `sanitized` after. Clipping is recomputed here per layer group in
// double precision; the residual sanitized - clip(raw) must then be the
// policy's Gaussian noise.
void check_dp(const PerExampleGrads& raw, const PerExampleGrads& sanitized,
              const dp::ParamGroups& groups, double bound, double sigma,
              RunResult& result) {
  const std::int64_t batch = raw.batch;
  std::vector<std::vector<double>> residual(static_cast<std::size_t>(batch));
  for (std::int64_t j = 0; j < batch; ++j) {
    std::vector<double>& r = residual[static_cast<std::size_t>(j)];
    for (const std::vector<std::size_t>& group : groups) {
      double sq = 0.0;
      for (std::size_t p : group) {
        const std::int64_t n = raw.rows[p].numel() / batch;
        const float* x = raw.rows[p].data() + j * n;
        for (std::int64_t i = 0; i < n; ++i) sq += double(x[i]) * x[i];
      }
      const double norm = std::sqrt(sq);
      const double scale = norm > bound ? bound / norm : 1.0;
      double clipped_sq = 0.0;
      for (std::size_t p : group) {
        const std::int64_t n = raw.rows[p].numel() / batch;
        const float* x = raw.rows[p].data() + j * n;
        const float* y = sanitized.rows[p].data() + j * n;
        for (std::int64_t i = 0; i < n; ++i) {
          const double c = double(x[i]) * scale;
          clipped_sq += c * c;
          r.push_back(double(y[i]) - c);
        }
      }
      result.check(std::sqrt(clipped_sq) <= bound * (1.0 + 1e-9),
                   "clipped per-layer norm above C(t)");
    }
  }
  const double n = static_cast<double>(residual[0].size());
  const double want = sigma * bound;
  // Sample std of n Gaussians: relative error ~ 1/sqrt(2n); allow six
  // of those (5% at least). Means and correlations: six standard errors.
  const double std_tol = std::max(0.05, 6.0 / std::sqrt(2.0 * n));
  const double corr_tol = 6.0 / std::sqrt(n);
  std::vector<double> mean(residual.size()), sd(residual.size());
  for (std::size_t j = 0; j < residual.size(); ++j) {
    double s = 0.0;
    for (double v : residual[j]) s += v;
    mean[j] = s / n;
    double ss = 0.0;
    for (double v : residual[j]) ss += (v - mean[j]) * (v - mean[j]);
    sd[j] = std::sqrt(ss / (n - 1));
    result.check(std::fabs(sd[j] / want - 1.0) <= std_tol,
                 "noise residual std " + std::to_string(sd[j]) +
                     " is not sigma*C(t) = " + std::to_string(want));
    result.check(std::fabs(mean[j]) <= 6.0 * want / std::sqrt(n),
                 "noise residual mean " + std::to_string(mean[j]));
  }
  for (std::size_t j = 0; j < residual.size(); ++j) {
    for (std::size_t k = j + 1; k < residual.size(); ++k) {
      double c = 0.0;
      for (std::size_t i = 0; i < residual[j].size(); ++i) {
        c += (residual[j][i] - mean[j]) * (residual[k][i] - mean[k]);
      }
      const double corr = c / ((n - 1) * sd[j] * sd[k]);
      result.check(std::fabs(corr) <= corr_tol,
                   "noise residuals of examples " + std::to_string(j) +
                       " and " + std::to_string(k) + " correlate: " +
                       std::to_string(corr));
    }
  }
}

// Raw and sanitized gradients of one local iteration, kept by the
// replay for the DP checks and the dp-layer probes.
struct DpSample {
  PerExampleGrads raw;
  PerExampleGrads sanitized;
  Rng rng;  // the stream as sanitization found it
  std::int64_t round = 0;
};

// ---- the replayed client round ------------------------------------------

struct Replay {
  TensorList delta;
  double layer_ms = 0.0;  // sum of the layer calls' durations
};

// Client::run_round's local training, call by call (fl/client.cpp).
Replay replay_round(const fl::Client& client, nn::Sequential& model,
                    const TensorList& global,
                    const core::PrivacyPolicy& policy, std::int64_t round,
                    Rng rng, Tracer& tr, DpSample* sample) {
  Replay out;
  model.set_weights(global);
  std::vector<tensor::Var> params = model.parameters();
  const dp::ParamGroups groups = fl::to_param_groups(model.layer_groups());
  nn::SgdOptimizer optimizer(client.config().learning_rate_at(round));
  for (std::int64_t l = 0; l < client.config().local_iterations; ++l) {
    tr.begin("data.sample_batch");
    const data::Batch batch =
        client.data().sample_batch(rng, client.config().batch_size);
    out.layer_ms += tr.end();
    TensorList step;
    if (policy.needs_per_example_gradients()) {
      tr.begin("nn.per_example_grads");
      PerExampleGrads grads =
          nn::per_example_gradients(model, batch.x, batch.labels);
      out.layer_ms += tr.end();
      const bool keep = sample != nullptr && l == 0;
      if (keep) {
        sample->raw = deep_copy(grads);
        sample->rng = rng;
        sample->round = round;
      }
      tr.begin("core.sanitize_per_example");
      policy.sanitize_per_example_batch(grads, groups, round, rng);
      out.layer_ms += tr.end();
      if (keep) sample->sanitized = deep_copy(grads);
      tr.begin("tensor.batch_mean");
      step = grads.mean();
      out.layer_ms += tr.end();
    } else {
      tr.begin("nn.batch_grads");
      step = nn::compute_gradients(model, batch.x, batch.labels);
      out.layer_ms += tr.end();
    }
    tr.begin("nn.sgd_step");
    optimizer.step(params, step);
    out.layer_ms += tr.end();
  }
  tr.begin("tensor.delta");
  out.delta = model.weights();
  tensor::list::add_(out.delta, global, -1.0f);
  out.layer_ms += tr.end();
  tr.begin("core.sanitize_update");
  policy.sanitize_client_update(out.delta, groups, round, rng);
  out.layer_ms += tr.end();
  return out;
}

// Times the dp layer's two batched kernels on a copy of raw gradients,
// with the policy's bound, noise scale and key draws.
void probe_dp(const DpSample& s, const dp::ParamGroups& groups, double bound,
              double sigma, Tracer& tr, std::vector<double>& mfloat_per_s) {
  PerExampleGrads g = deep_copy(s.raw);
  tr.begin("dp.group_norms");
  const std::vector<double> norms = dp::batch_group_norms(g, groups);
  tr.end();
  Rng rng = s.rng;
  const auto batch = static_cast<std::size_t>(g.batch);
  std::vector<std::uint64_t> keys(batch);
  for (auto& k : keys) k = rng.next_u64();
  const std::vector<double> bounds(batch, bound);
  const std::vector<double> stddevs(batch, sigma * bound);
  tr.begin("dp.scale_noise");
  dp::batch_scale_noise(g, groups, norms, bounds, stddevs, keys);
  const double ms = tr.end();
  if (ms > 0.0) {
    std::int64_t floats = 0;
    for (const tensor::Tensor& row : g.rows) floats += row.numel();
    mfloat_per_s.push_back(static_cast<double>(floats) / ms / 1e3);
  }
}

// Echoes frames back over a loopback connection pair, so a
// write_frame/read_frame round trip can be timed from one thread.
class FrameEcho {
 public:
  FrameEcho() {
    Result<net::TcpListener> listener = net::TcpListener::bind(0);
    FEDCL_CHECK(listener.ok()) << listener.error();
    listener_ = listener.take();
    Result<net::TcpConn> client =
        net::TcpConn::connect("127.0.0.1", listener_.port(), 5000);
    FEDCL_CHECK(client.ok()) << client.error();
    client_ = client.take();
    server_ = listener_.accept(5000);
    FEDCL_CHECK(server_.valid()) << "loopback accept failed";
    echo_ = std::thread([this] {
      net::Frame frame;
      while (net::read_frame(server_, frame, net::kDefaultMaxPayload,
                             60000) == net::FrameStatus::kOk &&
             frame.type != net::MsgType::kBye) {
        if (!net::write_frame(server_, frame.type, frame.payload)) break;
      }
    });
  }
  ~FrameEcho() {
    net::write_frame(client_, net::MsgType::kBye, nullptr, 0);
    echo_.join();
  }
  FrameEcho(const FrameEcho&) = delete;
  FrameEcho& operator=(const FrameEcho&) = delete;

  // Sends `payload` as an Update frame and returns the echoed payload.
  std::vector<std::uint8_t> round_trip(const std::vector<std::uint8_t>& p) {
    FEDCL_CHECK(net::write_frame(client_, net::MsgType::kUpdate, p));
    net::Frame back;
    FEDCL_CHECK(net::read_frame(client_, back) == net::FrameStatus::kOk);
    return std::move(back.payload);
  }

 private:
  net::TcpListener listener_;
  net::TcpConn client_;
  net::TcpConn server_;
  std::thread echo_;  // declared last: uses the connections above
};

double med(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

}  // namespace

RunResult run_traced(const Options& options) {
  RunResult result;
  Workload w = make_workload(options);
  const fl::FlExperimentConfig& cfg = w.cfg;
  const core::PrivacyPolicy& policy = *w.policy;
  Tracer tr;
  const Clock::time_point run_start = Clock::now();

  // ---- set-up, as the engine does it (fl/trainer.cpp) ----
  tr.begin("data.synthesize");
  const EngineInputs in(cfg);
  tr.end();
  const Rng& round_rng = in.round_rng;
  const fl::VirtualClientProvider& provider = in.provider;
  nn::Sequential* model = in.model.get();
  const dp::ParamGroups groups = fl::to_param_groups(model->layer_groups());
  fl::Server server(model->weights());
  const fl::UpdateScreener screener;
  const std::vector<tensor::Shape> shapes =
      tensor::list::shapes_of(server.weights());
  FrameEcho echo;

  std::vector<double> round_traced, round_untraced, client_unattributed;
  std::vector<double> update_bytes, mfloat_per_s;
  std::int64_t screened = 0, screen_accepted = 0;
  int max_levels = 0;
  std::optional<DpSample> dp_sample;
  std::vector<fl::ClientUpdate> last_updates;  // copies for the probes

  // ---- driven rounds, alternating tracing off (even) and on (odd) ----
  double unit_s = 0.0;
  for (std::int64_t t = 0;
       t < 4 || seconds_since(run_start) + unit_s <= options.seconds; ++t) {
    const bool traced = t % 2 == 1;
    tr.enabled = traced;
    tr.keep = tr.span_count() < kKeptSpans;
    tr.new_trace();
    const Clock::time_point round_start = Clock::now();
    tr.begin("fl.round");
    Rng sample_rng = round_rng.fork("sample", static_cast<std::uint64_t>(t));
    std::vector<std::size_t> chosen = server.sample_clients(
        static_cast<std::size_t>(cfg.total_clients),
        static_cast<std::size_t>(cfg.clients_per_round), sample_rng);
    if (chosen.size() > w.cohort) chosen.resize(w.cohort);
    fl::StreamingReducer reducer;
    std::vector<fl::ClientUpdate> updates;
    std::int64_t accepted = 0;
    last_updates.clear();
    for (std::size_t ci : chosen) {
      const auto id = static_cast<std::int64_t>(ci);
      tr.begin("fl.virtual_client");
      const fl::Client client = provider.client(id);
      tr.end();
      const Rng crng = fl::VirtualClientProvider::training_stream(round_rng,
                                                                  t, id);
      Rng run_rng = crng;
      tr.begin("fl.client_round");
      const fl::ClientRoundOutcome ref =
          client.run_round(*model, server.weights(), policy, t, run_rng);
      const double client_ms = tr.end();
      DpSample sample;
      const bool check_dp_now =
          policy.needs_per_example_gradients() && ci == chosen.front();
      const Replay replay =
          replay_round(client, *model, server.weights(), policy, t, crng, tr,
                       check_dp_now ? &sample : nullptr);
      if (traced) client_unattributed.push_back(client_ms - replay.layer_ms);
      tr.begin("perfbench.check");
      result.check(fl::serialize_tensor_list(replay.delta) ==
                       fl::serialize_tensor_list(ref.update.delta),
                   "replayed client round differs from Client::run_round");
      if (check_dp_now) {
        check_dp(sample.raw, sample.sanitized, groups, w.clip_at(t),
                 cfg.noise_scale, result);
        dp_sample = std::move(sample);
      }
      tr.end();
      ++result.attempted;

      const fl::ClientUpdate update{id, t, replay.delta};
      tr.begin("fl.serialize");
      std::vector<std::uint8_t> plain = fl::serialize_update(update);
      tr.end();
      update_bytes.push_back(static_cast<double>(plain.size()));
      const fl::SecureChannel channel(fl::client_channel_key(cfg.seed, id));
      tr.begin("fl.seal");
      std::vector<std::uint8_t> sealed = channel.seal(std::move(plain));
      tr.end();
      if (w.serving) {
        // Worker -> server over the wire (net/client_worker.cpp).
        net::UpdateMsg msg;
        msg.client_id = id;
        msg.data_size = client.data().size();
        msg.sealed = std::move(sealed);
        tr.begin("net.encode_update");
        const std::vector<std::uint8_t> payload = net::encode_update(msg);
        tr.end();
        tr.begin("net.frame_rtt");
        const std::vector<std::uint8_t> echoed = echo.round_trip(payload);
        tr.end();
        tr.begin("net.decode_update");
        Result<net::UpdateMsg> decoded = net::decode_update(echoed);
        tr.end();
        FEDCL_CHECK(decoded.ok()) << decoded.error();
        sealed = std::move(decoded.value().sealed);
      }
      tr.begin("fl.open");
      Result<std::vector<std::uint8_t>> opened = channel.open(std::move(sealed));
      tr.end();
      FEDCL_CHECK(opened.ok()) << opened.error();
      tr.begin("fl.deserialize");
      Result<fl::ClientUpdate> received = fl::deserialize_update(opened.value());
      tr.end();
      FEDCL_CHECK(received.ok()) << received.error();
      fl::ScreeningReport report;
      tr.begin("fl.screen");
      const fl::ScreenVerdict verdict =
          screener.screen_one(received.value(), shapes, t, 0, report);
      tr.end();
      ++screened;
      if (!verdict.accepted()) continue;
      ++screen_accepted;
      ++accepted;
      fl::ClientUpdate u = received.take();
      if (last_updates.size() < 64) {
        last_updates.push_back({u.client_id, u.round,
                                tensor::list::clone(u.delta)});
      }
      if (w.streaming) {
        Rng srng = fl::VirtualClientProvider::sanitize_stream(round_rng, t, id);
        policy.sanitize_at_server(u.delta, groups, t, srng);
        tr.begin("fl.reducer_push");
        reducer.push(std::move(u.delta), 1.0);
        tr.end();
      } else {
        updates.push_back(std::move(u));
      }
    }
    result.check(accepted == static_cast<std::int64_t>(chosen.size()),
                 "screening rejected a driven update");
    if (w.streaming) {
      max_levels = std::max(max_levels, reducer.max_occupancy());
      tr.begin("fl.reducer_finalize");
      const TensorList mean = fl::finalize_mean(reducer.finalize());
      tr.end();
      tr.begin("fl.apply_mean");
      server.apply_mean(mean, accepted);
      tr.end();
    } else {
      Rng agg_rng = round_rng.fork("aggregate", static_cast<std::uint64_t>(t));
      tr.begin("fl.aggregate");
      const fl::AggregateOutcome outcome =
          server.aggregate(std::move(updates), policy, groups, agg_rng);
      tr.end();
      result.check(outcome.applied, "driven round was not applied");
    }
    // The run's privacy budget so far, accounted once per round.
    core::FlPrivacySetup setup{.total_examples = in.train->size(),
                               .batch_size = cfg.bench.batch_size,
                               .clients_per_round = cfg.clients_per_round,
                               .total_clients = cfg.total_clients,
                               .local_iterations =
                                   cfg.effective_local_iterations(),
                               .rounds = t + 1,
                               .noise_scale = cfg.noise_scale,
                               .delta = cfg.delta};
    ++result.attempted;
    tr.begin("core.account");
    try {
      (void)core::account_privacy(setup);
    } catch (const Error&) {
      ++result.failed;  // sdp-virtual: see workloads.cpp
    }
    tr.end();
    tr.end();  // fl.round
    unit_s = seconds_since(round_start);
    (traced ? round_traced : round_untraced).push_back(unit_s * 1e3);
  }

  // ---- probes, off the rounds ----
  tr.enabled = true;
  tr.keep = true;
  tr.new_trace();
  model->set_weights(server.weights());
  for (int i = 0; i < kProbeReps / 4; ++i) {
    Scoped s(tr, "nn.eval");
    (void)nn::evaluate_accuracy(*model, in.val.features(), in.val.labels());
  }
  const fl::Client probe_client = provider.client(0);
  Rng probe_rng = round_rng.fork("perfbench-probe");
  const std::unique_ptr<core::FedCdpPolicy> cdp =
      core::make_fed_cdp(data::kDefaultClippingBound,
                         cfg.noise_scale);
  for (int i = 0; i < kProbeReps; ++i) {
    const data::Batch batch =
        probe_client.data().sample_batch(probe_rng, cfg.bench.batch_size);
    if (!policy.needs_per_example_gradients()) {
      // sdp-virtual: the per-example path its engine bypasses, with a
      // Fed-CDP policy at the workload's bound and noise scale.
      DpSample s;
      tr.begin("nn.per_example_grads");
      s.raw = nn::per_example_gradients(*model, batch.x, batch.labels);
      tr.end();
      s.rng = probe_rng;
      PerExampleGrads g = deep_copy(s.raw);
      Rng r = probe_rng;
      tr.begin("core.sanitize_per_example");
      cdp->sanitize_per_example_batch(g, groups, 0, r);
      tr.end();
      probe_dp(s, groups, cdp->clipping_bound_at(0), cdp->noise_scale(), tr,
               mfloat_per_s);
    } else {
      tr.begin("nn.batch_grads");
      (void)nn::compute_gradients(*model, batch.x, batch.labels);
      tr.end();
      if (dp_sample) {
        probe_dp(*dp_sample, groups, w.clip_at(dp_sample->round),
                 cfg.noise_scale, tr, mfloat_per_s);
      }
    }
  }
  if (w.streaming) {
    // The buffered server path its engine bypasses.
    for (int i = 0; i < kProbeReps / 4; ++i) {
      std::vector<fl::ClientUpdate> copies;
      for (const fl::ClientUpdate& u : last_updates) {
        copies.push_back({u.client_id, 0, tensor::list::clone(u.delta)});
      }
      fl::Server probe_server(server.weights());
      Rng agg_rng = round_rng.fork("perfbench-aggregate");
      Scoped s(tr, "fl.aggregate");
      (void)probe_server.aggregate(std::move(copies), policy, groups,
                                   agg_rng);
    }
  } else {
    // The streaming path its engine bypasses.
    for (int i = 0; i < kProbeReps / 4; ++i) {
      fl::StreamingReducer reducer;
      for (const fl::ClientUpdate& u : last_updates) {
        TensorList delta = tensor::list::clone(u.delta);
        Scoped s(tr, "fl.reducer_push");
        reducer.push(std::move(delta), 1.0);
      }
      max_levels = std::max(max_levels, reducer.max_occupancy());
      const TensorList mean = fl::finalize_mean(reducer.finalize());
      fl::Server probe_server(server.weights());
      Scoped s(tr, "fl.apply_mean");
      probe_server.apply_mean(mean, static_cast<std::int64_t>(
                                        last_updates.size()));
    }
  }
  if (!w.serving && !last_updates.empty()) {
    // The wire path of an update of this workload's model.
    const fl::ClientUpdate& u = last_updates.front();
    const fl::SecureChannel channel(fl::client_channel_key(cfg.seed, 0));
    net::UpdateMsg msg;
    msg.client_id = u.client_id;
    msg.sealed = channel.seal(fl::serialize_update(u));
    for (int i = 0; i < kProbeReps; ++i) {
      tr.begin("net.encode_update");
      const std::vector<std::uint8_t> payload = net::encode_update(msg);
      tr.end();
      tr.begin("net.frame_rtt");
      const std::vector<std::uint8_t> echoed = echo.round_trip(payload);
      tr.end();
      tr.begin("net.decode_update");
      FEDCL_CHECK(net::decode_update(echoed).ok());
      tr.end();
    }
  }
  ThreadPool& pool = compute_pool();
  for (int i = 0; i < kProbeReps * 10; ++i) {
    Scoped s(tr, "common.parallel_for");
    pool.parallel_for(pool.size(), [](std::size_t) {});
  }

  // ---- checks and metrics ----
  result.check(server.round() == static_cast<std::int64_t>(
                                     round_traced.size() +
                                     round_untraced.size()),
               "a driven round was not applied");
  const std::int64_t level_bound =
      log2_floor(static_cast<std::int64_t>(w.cohort)) + 1;
  result.check(max_levels >= 1 && max_levels <= level_bound,
               "reducer occupancy " + std::to_string(max_levels) +
                   " above floor(log2 n)+1");
  if (!options.trace_out.empty()) {
    result.check(tr.write_chrome_trace(options.trace_out),
                 "cannot write " + options.trace_out);
  }

  auto ms = [&](const char* span) { return med(tr.self_ms(span)); };
  auto us = [&](const char* span) { return 1e3 * ms(span); };
  const double bytes = med(update_bytes);
  result.add("data.synthesize_ms", ms("data.synthesize"), "ms");
  result.add("data.sample_batch_us", us("data.sample_batch"), "us");
  result.add("nn.per_example_grads_ms", ms("nn.per_example_grads"), "ms");
  result.add("nn.batch_grads_us", us("nn.batch_grads"), "us");
  result.add("nn.sgd_step_us", us("nn.sgd_step"), "us");
  result.add("nn.eval_ms", ms("nn.eval"), "ms");
  result.add("dp.group_norms_ms", ms("dp.group_norms"), "ms");
  result.add("dp.scale_noise_ms", ms("dp.scale_noise"), "ms");
  result.add("dp.noise_mfloat_per_s", med(mfloat_per_s), "Mfloat/s");
  result.add("core.sanitize_per_example_ms", ms("core.sanitize_per_example"),
             "ms");
  result.add("core.sanitize_update_us", us("core.sanitize_update"), "us");
  result.add("core.account_ms", ms("core.account"), "ms");
  result.add("fl.client_round_ms", ms("fl.client_round"), "ms");
  result.add("fl.client_round_unattributed_ms", med(client_unattributed),
             "ms");
  result.add("fl.virtual_client_us", us("fl.virtual_client"), "us");
  result.add("fl.update_bytes", bytes, "bytes");
  result.add("fl.serialize_us", us("fl.serialize"), "us");
  result.add("fl.seal_us", us("fl.seal"), "us");
  result.add("fl.open_us", us("fl.open"), "us");
  result.add("fl.deserialize_us", us("fl.deserialize"), "us");
  result.add("fl.seal_open_mb_per_s",
             2.0 * bytes / (ms("fl.seal") + ms("fl.open")) / 1e3, "MB/s");
  result.add("fl.screen_us", us("fl.screen"), "us");
  result.add("fl.screen_accept_ratio",
             screened > 0 ? static_cast<double>(screen_accepted) /
                                static_cast<double>(screened)
                          : 0.0,
             "ratio");
  result.add("fl.reducer_push_us", us("fl.reducer_push"), "us");
  result.add("fl.reducer_levels", static_cast<double>(max_levels), "count");
  result.add("fl.aggregate_ms", ms("fl.aggregate"), "ms");
  result.add("fl.apply_mean_us", us("fl.apply_mean"), "us");
  result.add("fl.round_unattributed_ms", ms("fl.round"), "ms");
  result.add("net.encode_update_us", us("net.encode_update"), "us");
  result.add("net.decode_update_us", us("net.decode_update"), "us");
  result.add("net.frame_rtt_us", us("net.frame_rtt"), "us");
  result.add("common.parallel_for_us", us("common.parallel_for"), "us");
  result.add("trace.traced_round_ms", med(round_traced), "ms");
  result.add("trace.untraced_round_ms", med(round_untraced), "ms");
  std::fprintf(stderr, "%s traced: %zu rounds, %zu spans kept\n",
               options.workload.c_str(),
               round_traced.size() + round_untraced.size(), tr.span_count());
  return result;
}

}  // namespace perfbench
