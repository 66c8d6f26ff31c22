// In-memory span recorder for the traced run. Spans are opened and
// closed on one thread around calls into the program's layers; each
// span's self time (its duration less the part covered by its direct
// children) is collected per span name, and every span is written at
// the end as a Chrome trace-event "X" event with trace/span/parent ids
// (the format tools/fedcl_trace.py validates).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer {
 public:
  // When disabled, begin/end cost one branch and record nothing; the
  // untraced comparison rounds run that way.
  bool enabled = true;
  // When false, spans still count toward self times but are not kept
  // for the trace file (bounds its size on long runs).
  bool keep = true;

  // Starts a new trace (one per driven round); spans opened until the
  // next call share its id.
  void new_trace();
  void begin(const char* name);
  // Ends the innermost open span; returns its duration in ms (0 when
  // disabled).
  double end();

  // Self times per span name, in ms, in recording order.
  const std::vector<double>& self_ms(const std::string& name) const;
  std::size_t span_count() const { return spans_.size(); }

  // Writes every recorded span; false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t trace = 0;
  };
  std::vector<Span> spans_;        // closed spans
  std::vector<Span> open_;         // stack of open spans
  std::map<std::string, std::vector<double>> self_ms_;
  std::uint64_t next_id_ = 0;
  std::uint64_t trace_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

// RAII span: `Scoped s(tracer, "nn.sgd_step");`.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name) : tracer_(tracer) {
    tracer_.begin(name);
  }
  ~Scoped() { tracer_.end(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
