#include "tracer.h"

#include <cstdio>

#include "common/error.h"

namespace perfbench {

namespace {

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

}  // namespace

void Tracer::new_trace() { ++trace_; }

void Tracer::begin(const char* name) {
  if (!enabled) return;
  Span s;
  s.name = name;
  s.id = ++next_id_;
  s.parent = open_.empty() ? 0 : open_.back().id;
  s.trace = trace_;
  s.start_ns = ns_since(epoch_);
  open_.push_back(s);
}

double Tracer::end() {
  if (!enabled) return 0.0;
  FEDCL_CHECK(!open_.empty()) << "span end without begin";
  Span s = open_.back();
  open_.pop_back();
  s.dur_ns = ns_since(epoch_) - s.start_ns;
  if (!open_.empty()) open_.back().child_ns += s.dur_ns;
  self_ms_[s.name].push_back(static_cast<double>(s.dur_ns - s.child_ns) /
                             1e6);
  if (keep) spans_.push_back(s);
  return static_cast<double>(s.dur_ns) / 1e6;
}

const std::vector<double>& Tracer::self_ms(const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = self_ms_.find(name);
  return it == self_ms_.end() ? kNone : it->second;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"trace\": "
                 "\"%016llx%016llx\", \"span\": \"%016llx\"",
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, 0xfedcbe4cull,
                 static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(s.id));
    if (s.parent != 0) {
      std::fprintf(f, ", \"parent\": \"%016llx\"",
                   static_cast<unsigned long long>(s.parent));
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
