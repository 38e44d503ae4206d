// The benchmark's workloads. Each owns its seeded inputs, one prepared
// ExplainSession, and the checkers that judge every output.
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/explain/session.h"

namespace e2e {

/// Latency samples of one run, in milliseconds per request.
struct Samples {
  std::vector<double> mges_ms;   // the request returning all MGEs
  std::vector<double> one_ms;    // the request returning one explanation
  std::vector<double> check_ms;  // CHECK-MGE of every returned MGE
  std::vector<double> why_ms;    // the why request
  std::vector<double> write_ms;  // AddFact plus the next read
  std::vector<double> mt_ms;     // the all-MGE request, pooled
  std::vector<double> round_ms;  // one whole 1-thread round
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the engine-side objects a fresh binding needs, binds a session
  /// and sends one warm-up request of each type. main.cc times this.
  virtual void Setup() = 0;
  /// Untimed: back to the generated rows with a fresh session.
  virtual void Reset() = 0;
  /// Operations one round attempts (constant per workload).
  virtual size_t OpsPerRound() const = 0;
  /// One 1-thread round; records its samples and checks every output.
  virtual void Round(size_t round, Samples* s) = 0;
  /// Operations one pooled sample attempts.
  virtual size_t OpsPerPooledSample() const = 0;
  /// One pooled sample: a batch of all-MGE requests.
  virtual void PooledSample(size_t index, Samples* s) = 0;
  /// MemoryUsage() of the live session.
  virtual whynot::explain::ExplainSession::MemoryStats Memory() const = 0;
  virtual whynot::ls::ConceptCacheStats CacheStats() const = 0;
  /// Later rounds and pooled samples skip every check (and so build no
  /// checker): for the memory run, whose figures are the library's alone.
  virtual void DisableChecks() = 0;
  /// Times each layer's public functions on this workload's inputs.
  virtual void Probe(int pool_threads, LayerReport* out) = 0;
  /// Feeds the checkers planted wrong outputs; throws std::runtime_error
  /// naming the first one a checker accepted.
  virtual void SelfTest() = 0;
};

/// Workload names: "deep-lattice", "retail-rw", "travel-obda". `tiny`
/// shrinks every input to a few dozen rows (self-test). Null for an
/// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool tiny, Tracer* tracer);

const std::vector<std::string>& WorkloadNames();

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
