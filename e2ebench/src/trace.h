// Spans the benchmark puts around its calls into each layer's public
// functions. A span is timed once: its duration goes back to the caller
// and, while tracing is on, is recorded under the span's name. The
// per-layer figures of a traced run are the medians of the recorded spans.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace e2e {

using LayerReport = std::map<std::string, double>;

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Runs `fn` inside a span called `name`; returns its wall time in ms.
  template <typename Fn>
  double Span(const char* name, Fn&& fn) {
    const double t0 = NowSeconds();
    fn();
    const double ms = (NowSeconds() - t0) * 1e3;
    if (enabled_) spans_[name].push_back(ms);
    return ms;
  }

  /// Median duration in ms of the spans recorded as `name`; 0 if none.
  double MedianMs(const std::string& name) const {
    auto it = spans_.find(name);
    return it == spans_.end() ? 0.0 : Median(it->second);
  }

  /// Every span name with its median duration, in the unit its name ends
  /// with (`_us` spans are reported in microseconds, all others in ms).
  void Report(LayerReport* out) const {
    for (const auto& [name, ms] : spans_) {
      const bool us = name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0;
      (*out)[name] = Median(ms) * (us ? 1e3 : 1.0);
    }
  }

  void Clear() { spans_.clear(); }

 private:
  bool enabled_ = false;
  std::map<std::string, std::vector<double>> spans_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
