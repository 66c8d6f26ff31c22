// The untraced runs: each workload's end-to-end metrics, measured from
// outside the engines through their public entry points, plus the
// correctness checks every run makes on the engines' outputs.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/accounting.h"
#include "core/policy.h"
#include "data/benchmarks.h"
#include "fl/client.h"
#include "fl/protocol.h"
#include "fl/tree_aggregation.h"
#include "fl/virtual_client.h"
#include "net/client_worker.h"
#include "net/serving_server.h"
#include "nn/model_zoo.h"

namespace perfbench {

using namespace fedcl;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double quantile(std::vector<double> values, double q) {
  FEDCL_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's peak when that one was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  FEDCL_CHECK(f != nullptr) << "cannot read /proc/self/status";
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  FEDCL_CHECK_GT(kib, 0) << "no VmHWM in /proc/self/status";
  return static_cast<double>(kib) / 1024.0;
}

std::int64_t log2_floor(std::int64_t v) {
  std::int64_t bits = 0;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

// ---- configurations -----------------------------------------------------
//
// Every size below is fixed here, never read from FEDCL_SCALE; the
// seed is the only input that varies between runs.

fl::FlExperimentConfig cdp_cnn_config(std::uint64_t seed) {
  fl::FlExperimentConfig cfg;
  cfg.bench = data::benchmark_config(data::BenchmarkId::kMnist,
                                     BenchScale::kSmall);  // 12x12, L=10, B=5
  cfg.total_clients = 40;
  cfg.clients_per_round = 8;
  cfg.rounds = 60;
  cfg.seed = seed;
  cfg.eval_every = 0;
  cfg.noise_scale = data::default_noise_scale(BenchScale::kSmall);
  return cfg;
}

fl::FlExperimentConfig sdp_virtual_config(std::uint64_t seed) {
  fl::FlExperimentConfig cfg;
  // 64 shared examples: the point is the client count.
  cfg.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                     BenchScale::kSmoke);
  cfg.total_clients = 100000;
  cfg.clients_per_round = cfg.total_clients;  // full cohort
  cfg.rounds = 1;
  cfg.local_iterations = 1;
  cfg.seed = seed;
  cfg.eval_every = 0;
  cfg.noise_scale = data::default_noise_scale(BenchScale::kSmoke);
  cfg.streaming_aggregation = true;
  cfg.tree_fan_out = 64;
  return cfg;
}

net::ExperimentDescriptor decay_serving_descriptor(std::uint64_t seed) {
  const BenchScale scale = BenchScale::kSmall;
  net::ExperimentDescriptor d;
  d.bench_id = static_cast<std::uint8_t>(data::BenchmarkId::kCancer);
  d.scale = static_cast<std::uint8_t>(scale);
  d.policy = net::PolicyId::kFedCdpDecay;
  d.total_clients = 20;
  d.clients_per_round = 4;
  d.rounds = 100;
  d.local_iterations = 1;
  d.sigma = data::default_noise_scale(scale);
  d.clip = data::kDefaultClippingBound;
  d.seed = seed;
  return d;
}

fl::FlExperimentConfig decay_serving_config(std::uint64_t seed) {
  const net::ExperimentDescriptor d = decay_serving_descriptor(seed);
  fl::FlExperimentConfig cfg;
  cfg.bench = data::benchmark_config(data::BenchmarkId::kCancer,
                                     static_cast<BenchScale>(d.scale));
  cfg.total_clients = d.total_clients;
  cfg.clients_per_round = d.clients_per_round;
  cfg.rounds = d.rounds;
  cfg.local_iterations = d.local_iterations;
  cfg.seed = d.seed;
  cfg.eval_every = 0;
  cfg.noise_scale = d.sigma;
  return cfg;
}

namespace {

data::Dataset synthesize(const data::SyntheticSpec& spec, Rng rng) {
  return data::generate_synthetic(spec, rng);
}

data::PartitionSpec partition_of(const fl::FlExperimentConfig& cfg) {
  data::PartitionSpec part = cfg.bench.partition;
  part.num_clients = cfg.total_clients;
  return part;
}

}  // namespace

EngineInputs::EngineInputs(const fl::FlExperimentConfig& cfg)
    : round_rng(Rng(cfg.seed).fork("rounds")),
      train(std::make_shared<const data::Dataset>(synthesize(
          cfg.bench.train_spec, Rng(cfg.seed).fork("train-data")))),
      val(synthesize(cfg.bench.val_spec, Rng(cfg.seed).fork("val-data"))),
      provider(train, partition_of(cfg), Rng(cfg.seed).fork("partition"),
               fl::LocalTrainConfig{
                   .local_iterations = cfg.effective_local_iterations(),
                   .batch_size = cfg.bench.batch_size,
                   .learning_rate = cfg.bench.learning_rate,
                   .lr_decay_per_round = cfg.bench.lr_decay_per_round},
               cfg.faults, cfg.seed) {
  Rng model_rng = Rng(cfg.seed).fork("model");
  model = nn::build_model(cfg.bench.model, model_rng);
}

std::int64_t workload_threads(const std::string& workload) {
  if (workload == "cdp-cnn") return kCnnThreads;
  if (workload == "sdp-virtual") return kVirtualThreads;
  if (workload == "decay-serving") return kServingThreads;
  return 0;
}

namespace {

// Set-up is repeated several times per run and setup_s is the median.
// In-process engines set up in microseconds to milliseconds, so a batch
// of repetitions (kSetupReps, or more until kSetupBatchS is spent) runs
// before every experiment, spreading the samples over the whole run
// rather than one burst of it.
constexpr int kSetupReps = 5;
constexpr int kSetupMaxReps = 50;
constexpr double kSetupBatchS = 0.05;

// CPU time of this process, all threads.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Whether another unit of work (an experiment, a round, a session)
// fits in the run: the run ends when the next unit, as long as the
// last one, would overrun --seconds.
bool another_fits(Clock::time_point start, double last_unit_s,
                  double seconds) {
  return seconds_since(start) + last_unit_s <= seconds;
}

double time_engine_setup(const fl::FlExperimentConfig& cfg) {
  const Clock::time_point start = Clock::now();
  const EngineInputs inputs(cfg);
  return seconds_since(start);
}

void add_setup_samples(const fl::FlExperimentConfig& cfg,
                       std::vector<double>& samples) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSetupMaxReps &&
                  (i < kSetupReps || seconds_since(start) < kSetupBatchS);
       ++i) {
    samples.push_back(time_engine_setup(cfg));
  }
}

std::int64_t accepted_updates(const fl::FlRunResult& r) {
  return r.telemetry.counter_value("fl.server.updates_accepted_total");
}

// Double-precision mean of client deltas vs the streaming reducer's
// float mean over the same sampled clients, trained from the same
// round-0 streams the engine uses.
void check_reducer_mean(const fl::FlExperimentConfig& cfg,
                        const core::PrivacyPolicy& policy,
                        RunResult& result) {
  constexpr std::size_t kSampled = 256;
  const EngineInputs in(cfg);
  const fl::TensorList global = in.model->weights();

  Rng pick(cfg.seed ^ 0x5A3D1E5ull);
  const std::vector<std::size_t> ids = pick.sample_without_replacement(
      static_cast<std::size_t>(cfg.total_clients), kSampled);
  std::vector<double> sum(static_cast<std::size_t>(
                              tensor::list::total_numel(global)),
                          0.0);
  double abs_sum = 0.0;
  fl::StreamingReducer reducer;
  for (std::size_t id : ids) {
    const auto cid = static_cast<std::int64_t>(id);
    Rng crng = fl::VirtualClientProvider::training_stream(in.round_rng, 0, cid);
    fl::ClientRoundOutcome out =
        in.provider.client(cid).run_round(*in.model, global, policy, 0, crng);
    std::size_t k = 0;
    for (const tensor::Tensor& t : out.update.delta) {
      const float* p = t.data();
      for (std::int64_t i = 0; i < t.numel(); ++i, ++k) {
        sum[k] += static_cast<double>(p[i]);
        abs_sum += std::fabs(static_cast<double>(p[i]));
      }
    }
    reducer.push(std::move(out.update.delta), 1.0);
  }
  const fl::TensorList mean = fl::finalize_mean(reducer.finalize());
  const double n = static_cast<double>(ids.size());
  const double mean_abs = abs_sum / (n * static_cast<double>(sum.size()));
  double worst = 0.0;
  std::size_t k = 0;
  for (const tensor::Tensor& t : mean) {
    const float* p = t.data();
    for (std::int64_t i = 0; i < t.numel(); ++i, ++k) {
      worst = std::max(worst, std::fabs(static_cast<double>(p[i]) -
                                        sum[k] / n));
    }
  }
  // Float accumulation over 256 pairwise-reduced leaves: ~8 roundings
  // of 6e-8 relative each; 1e-5 of the mean magnitude leaves margin.
  result.check(worst <= 1e-5 * mean_abs + 1e-9,
               "streaming reducer mean differs from the double mean by " +
                   std::to_string(worst));
}

// Calls fl::run_experiment while another call fits in the run, and
// reports the in-process end-to-end metrics. `check` inspects each
// call's result; every call counts its Kt*T client updates plus one
// privacy accounting of its setup as operations.
template <typename Check>
RunResult run_in_process(const char* name, const fl::FlExperimentConfig& cfg,
                         const core::PrivacyPolicy& policy,
                         const Options& options, Check check) {
  RunResult result;
  const std::int64_t updates = cfg.clients_per_round * cfg.rounds;
  std::vector<double> setups, walls, cpus, accepted;
  const Clock::time_point start = Clock::now();
  double unit_s = 0.0;
  do {
    add_setup_samples(cfg, setups);
    const Clock::time_point run_start = Clock::now();
    const double cpu_start = cpu_seconds();
    const fl::FlRunResult r = fl::run_experiment(cfg, policy);
    unit_s = seconds_since(run_start);
    const double cpu_s = cpu_seconds() - cpu_start;
    walls.push_back(unit_s);
    cpus.push_back(cpu_s);
    accepted.push_back(static_cast<double>(accepted_updates(r)));
    result.attempted += updates + 1;
    result.check(accepted.back() == static_cast<double>(updates) &&
                     r.completed_rounds == cfg.rounds,
                 std::string(name) + " accepted " +
                     std::to_string(static_cast<long long>(accepted.back())) +
                     " of " +
                     std::to_string(updates) + " updates");
    check(r, result);
    std::fprintf(stderr, "%s: %.0f updates in %.3f s (cpu %.3f s), acc %.4f\n",
                 name, accepted.back(), unit_s, cpu_s, r.final_accuracy);
  } while (another_fits(start, unit_s, options.seconds));

  // Each call repeats the (single-threaded) set-up; it is taken out of
  // the call's CPU and wall time.
  const double setup_s = median(setups);
  std::vector<double> cpu_ms, rates;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    cpu_ms.push_back((cpus[i] - setup_s) * 1e3 / accepted[i]);
    rates.push_back(accepted[i] / (walls[i] - setup_s));
  }
  std::fprintf(stderr,
               "%s: setup %.6f s (%zu reps), %.1f updates/s wall (not gated)\n",
               name, setup_s, setups.size(), median(rates));
  result.add("setup_s", setup_s, "s");
  result.add("cpu_ms_per_update", median(cpu_ms), "ms");
  return result;
}

}  // namespace

RunResult run_cdp_cnn(const Options& options) {
  const fl::FlExperimentConfig cfg = cdp_cnn_config(options.seed);
  std::unique_ptr<core::FedCdpPolicy> policy =
      core::make_fed_cdp(data::kDefaultClippingBound, cfg.noise_scale);
  RunResult result = run_in_process(
      "cdp-cnn", cfg, *policy, options,
      [](const fl::FlRunResult& r, RunResult& out) {
        out.check(r.final_accuracy > 0.3,
                  "cdp-cnn accuracy " + std::to_string(r.final_accuracy) +
                      " is not clearly above chance (0.10)");
        const double eps =
            core::account_privacy(r.privacy_setup).fed_cdp_instance_epsilon;
        out.check(std::isfinite(eps) && eps > 0.0,
                  "cdp-cnn epsilon " + std::to_string(eps));
      });
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return result;
}

RunResult run_sdp_virtual(const Options& options) {
  const fl::FlExperimentConfig cfg = sdp_virtual_config(options.seed);
  std::unique_ptr<core::FedSdpPolicy> policy =
      core::make_fed_sdp(data::kDefaultClippingBound, cfg.noise_scale);
  const std::int64_t level_bound = log2_floor(cfg.total_clients) + 1;
  RunResult result = run_in_process(
      "sdp-virtual", cfg, *policy, options,
      [level_bound](const fl::FlRunResult& r, RunResult& out) {
        out.check(r.max_stream_levels >= 1 &&
                      r.max_stream_levels <= level_bound,
                  "sdp-virtual reducer held " +
                      std::to_string(r.max_stream_levels) +
                      " levels, bound " + std::to_string(level_bound));
        // Accounting fails on every input today: account_privacy
        // refuses B*Kt > N although every virtual client shares one
        // 64-example dataset, and Fed-SDP's client-level epsilon needs
        // only Kt/K.
        try {
          (void)core::account_privacy(r.privacy_setup);
        } catch (const Error&) {
          ++out.failed;
        }
      });
  check_reducer_mean(cfg, *policy, result);
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return result;
}

namespace {

struct ServingSession {
  net::ServingReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool workers_ok = true;
};

// One closed-loop serving run: a ServingServer and kServingWorkers
// run_worker threads in this process, talking over loopback TCP.
ServingSession serve_once(const net::ExperimentDescriptor& d) {
  ServingSession s;
  const Clock::time_point start = Clock::now();
  const double cpu_start = cpu_seconds();
  net::ServingOptions options;
  options.port = 0;
  options.num_workers = kServingWorkers;
  Result<std::unique_ptr<net::ServingServer>> server =
      net::ServingServer::create(d, options);
  FEDCL_CHECK(server.ok()) << server.error();
  const int port = server.value()->port();
  std::vector<Result<net::WorkerReport>> reports(
      kServingWorkers, Result<net::WorkerReport>::failure("not run"));
  std::thread server_thread([&] { s.report = server.value()->run(); });
  std::vector<std::thread> workers;
  for (int w = 0; w < kServingWorkers; ++w) {
    workers.emplace_back([&reports, port, w] {
      net::WorkerConfig config;
      config.port = port;
      config.worker_index = w;
      config.num_workers = kServingWorkers;
      reports[static_cast<std::size_t>(w)] = net::run_worker(config);
    });
  }
  server_thread.join();
  for (std::thread& t : workers) t.join();
  s.wall_s = seconds_since(start);
  s.cpu_s = cpu_seconds() - cpu_start;
  for (const auto& r : reports) s.workers_ok = s.workers_ok && r.ok();
  return s;
}

}  // namespace

RunResult run_decay_serving(const Options& options) {
  RunResult result;
  const net::ExperimentDescriptor d = decay_serving_descriptor(options.seed);
  const std::int64_t updates = d.rounds * d.clients_per_round;

  std::vector<double> setups, cpu_ms, round_ms;
  fl::TensorList first_weights;
  const Clock::time_point start = Clock::now();
  // At least kSetupReps sessions, so setup_s is a median too.
  double unit_s = 0.0;
  while (setups.size() < static_cast<std::size_t>(kSetupReps) ||
         another_fits(start, unit_s, options.seconds)) {
    ServingSession s = serve_once(d);
    unit_s = s.wall_s;
    const net::ServingReport& r = s.report;
    result.attempted += updates;
    result.check(r.ok && s.workers_ok,
                 "decay-serving session failed: " + r.error);
    if (!r.ok) break;
    result.check(r.completed_rounds == d.rounds &&
                     r.updates_accepted == updates &&
                     r.updates_rejected == 0,
                 "decay-serving accepted " +
                     std::to_string(r.updates_accepted) + " of " +
                     std::to_string(updates) + " updates");
    result.check(r.frames_rejected == 0 && r.busy_rejected == 0,
                 "decay-serving rejected " +
                     std::to_string(r.frames_rejected) + " frames");
    const double train_s =
        std::accumulate(r.round_ms.begin(), r.round_ms.end(), 0.0) / 1e3;
    setups.push_back(s.wall_s - train_s);
    cpu_ms.push_back(s.cpu_s * 1e3 / static_cast<double>(r.updates_accepted));
    round_ms.insert(round_ms.end(), r.round_ms.begin(), r.round_ms.end());
    if (first_weights.empty()) first_weights = r.final_weights;
  }

  // docs/PROTOCOL.md §5: the socket path's final model is bitwise the
  // in-process engine's at the same seed.
  if (!first_weights.empty()) {
    const fl::FlRunResult in_process = fl::run_experiment(
        decay_serving_config(options.seed), *net::make_policy(d));
    result.check(fl::serialize_tensor_list(first_weights) ==
                     fl::serialize_tensor_list(in_process.final_weights),
                 "decay-serving final model differs from fl::run_experiment");
  }
  if (round_ms.empty()) return result;
  std::fprintf(stderr,
               "decay-serving: %zu sessions, %zu rounds, round p50 %.3f ms "
               "p90 %.3f ms wall (not gated)\n",
               setups.size(), round_ms.size(), median(round_ms),
               quantile(round_ms, 0.9));

  result.add("setup_s", median(setups), "s");
  result.add("cpu_ms_per_update", median(cpu_ms), "ms");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return result;
}

}  // namespace perfbench
