// fedcl_perfbench: runs one benchmark workload and prints its result
// as one JSON object on the last line of stdout.
//
//   fedcl_perfbench --workload cdp-cnn|sdp-virtual|decay-serving
//                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports per-layer metrics and writes FILE in the
// Chrome trace-event format tools/fedcl_trace.py reads. Progress and
// check failures go to stderr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fedcl_perfbench: %s\nusage: fedcl_perfbench --workload "
               "cdp-cnn|sdp-virtual|decay-serving --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (perfbench::workload_threads(o.workload) == 0) usage("unknown workload");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

void print_result(const perfbench::RunResult& r) {
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + r.metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  // Fix the program's environment knobs before any library call reads
  // them: the compute pool is sized once, on first use.
  const std::string threads =
      std::to_string(perfbench::workload_threads(options.workload));
  setenv("FEDCL_THREADS", threads.c_str(), 1);
  setenv("FEDCL_LOG", "warn", 1);
  unsetenv("FEDCL_NOISE_MODE");
  unsetenv("FEDCL_SCALE");
  unsetenv("FEDCL_SEED");

  try {
    perfbench::RunResult result;
    if (options.trace) {
      result = perfbench::run_traced(options);
    } else if (options.workload == "cdp-cnn") {
      result = perfbench::run_cdp_cnn(options);
    } else if (options.workload == "sdp-virtual") {
      result = perfbench::run_sdp_virtual(options);
    } else {
      result = perfbench::run_decay_serving(options);
    }
    for (perfbench::Metric& m : result.metrics) {
      if (!std::isfinite(m.value)) {
        result.check(false, "metric " + m.name + " is not finite");
        m.value = 0.0;
      }
    }
    if (result.attempted < 1) result.check(false, "no operation attempted");
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedcl_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
