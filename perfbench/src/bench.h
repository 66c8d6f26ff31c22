// Shared pieces of the fedcl benchmark driver: run options, the result
// every run prints, the three fixed workload configurations, and small
// statistics helpers. See perfbench/README.md for what each workload
// measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fl/trainer.h"
#include "fl/virtual_client.h"
#include "net/wire.h"
#include "nn/layer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;  // traced run: Chrome trace-event file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: the last stdout line is this as JSON.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable reasons for correct == false (printed to stderr).
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit);
};

// What an in-process engine builds before its first round, through the
// same public calls and RNG forks (fl/trainer.cpp): both data splits,
// the client provider over the partition, and the model.
struct EngineInputs {
  explicit EngineInputs(const fedcl::fl::FlExperimentConfig& cfg);

  fedcl::Rng round_rng;  // the engine's per-round stream root
  std::shared_ptr<const fedcl::data::Dataset> train;
  fedcl::data::Dataset val;
  fedcl::fl::VirtualClientProvider provider;
  std::shared_ptr<fedcl::nn::Sequential> model;
};

// ---- the workloads ------------------------------------------------------

// cdp-cnn: in-process synchronous Fed-CDP on the MNIST-shaped CNN.
inline constexpr std::int64_t kCnnThreads = 4;
fedcl::fl::FlExperimentConfig cdp_cnn_config(std::uint64_t seed);
// sdp-virtual: one full-cohort Fed-SDP round on the streaming engine.
inline constexpr std::int64_t kVirtualThreads = 4;
fedcl::fl::FlExperimentConfig sdp_virtual_config(std::uint64_t seed);
// decay-serving: Fed-CDP(decay) over loopback TCP, 2 in-process workers.
inline constexpr std::int64_t kServingThreads = 1;
inline constexpr int kServingWorkers = 2;
fedcl::net::ExperimentDescriptor decay_serving_descriptor(std::uint64_t seed);
// The in-process configuration the serving run must match bitwise.
fedcl::fl::FlExperimentConfig decay_serving_config(std::uint64_t seed);

// Compute-pool size of a workload (FEDCL_THREADS is pinned to it
// before the pool exists). Returns 0 for an unknown workload.
std::int64_t workload_threads(const std::string& workload);

RunResult run_cdp_cnn(const Options& options);
RunResult run_sdp_virtual(const Options& options);
RunResult run_decay_serving(const Options& options);
RunResult run_traced(const Options& options);

// ---- helpers ------------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
// Peak resident set of this process, MiB.
double peak_rss_mb();
std::int64_t log2_floor(std::int64_t v);

}  // namespace perfbench
