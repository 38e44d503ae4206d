// End-to-end benchmark of the prepared ExplainSession.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//   e2ebench --selftest
//
// One process runs one workload as a single-client closed loop: set-up is
// timed several times, then whole rounds of requests run at 1 pool thread,
// interleaved with batches of the all-MGE request at min(nproc, 4) threads
// that take a quarter of the time. Every output is checked against the
// benchmark's own computation. The memory figures come from a second run
// of the same workload in a child process with every check off.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "whynot/common/parallel.h"
#include "workload.h"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  bool memory = false;  // the child run that gives the memory figures
  bool tiny = false;    // every input at a few dozen rows (self-test)
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "deep-lattice|retail-rw|travel-obda --seed N --seconds S "
               "--trace 0|1\n       e2ebench --selftest\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (flag == "--memory") {
      a.memory = true;
      continue;
    }
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.selftest && !have_workload) Usage("--workload is required");
  return a;
}

/// VmHWM of this process. Not getrusage's ru_maxrss: that one keeps the
/// high-water mark of the process image before exec, which for the memory
/// run is the checked benchmark run's.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Moves the calling thread across the CPUs the process may use, one per
/// round. On a shared host the vCPUs run at visibly different speeds, and
/// where a run happens to be placed would otherwise decide its medians;
/// rotating gives every run the same mix.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Pin(size_t step) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  /// The CPUs the process may use (what `nproc` prints).
  int count() const { return std::max(1, static_cast<int>(cpus_.size())); }
  /// Back to every allowed CPU (pool workers inherit the mask they are
  /// started under).
  void Release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kMemoryRounds = 8;

/// What the memory run reports, in MiB.
struct MemoryFigures {
  double session_mb = 0;  // MemoryUsage().total_bytes
  double cache_mb = 0;    // MemoryUsage().shared_cache_bytes
  double peak_rss_mb = 0;
};

/// The memory run (--memory): a fresh binding, kMemoryRounds rounds and
/// one pooled sample with every check off, so that the checkers' copies of
/// the rows and their caches of verified outputs stay out of the peak.
/// Session memory is read after the rounds: a fixed point, so it does not
/// depend on how many rounds a timed loop managed. Prints the three
/// figures on one line.
int MemoryRun(const Args& a) {
  whynot::par::SetNumThreads(1);
  Tracer tracer;
  std::unique_ptr<Workload> w = MakeWorkload(a.workload, a.seed, a.tiny, &tracer);
  if (w == nullptr) Usage(("unknown workload " + a.workload).c_str());
  w->DisableChecks();
  try {
    w->Setup();
    Samples unreported;
    for (size_t i = 0; i < kMemoryRounds; ++i) w->Round(i, &unreported);
    whynot::explain::ExplainSession::MemoryStats m = w->Memory();
    whynot::par::SetNumThreads(std::min(CpuRotation().count(), 4));
    w->PooledSample(0, &unreported);
    whynot::par::SetNumThreads(1);
    std::printf("%.10g %.10g %.10g\n", static_cast<double>(m.total_bytes) / kMiB,
                static_cast<double>(m.shared_cache_bytes) / kMiB, PeakRssMb());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "memory run: %s\n", e.what());
    return 1;
  }
  return 0;
}

/// Runs the memory run as a child process and waits for it; false, with
/// `error` set, if it does not end well.
bool MeasureMemory(const Args& a, MemoryFigures* out, std::string* error) {
  const std::string seed = std::to_string(a.seed);
  std::vector<const char*> argv = {"e2ebench", "--memory", "--workload",
                                   a.workload.c_str(), "--seed", seed.c_str()};
  if (a.tiny) argv.push_back("--tiny");
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "memory run: pipe failed";
    return false;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  if (pid > 0) {
    char buf[256];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0) text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 ||
      std::sscanf(text.c_str(), "%lf %lf %lf", &out->session_mb, &out->cache_mb,
                  &out->peak_rss_mb) != 3) {
    *error = "memory run failed";
    return false;
  }
  return true;
}

struct RunResult {
  bool correct = true;
  std::string error;
  size_t attempted = 0;
  size_t failed = 0;
  size_t ops_per_round = 0;
  std::vector<double> setup_s;
  Samples untraced, traced;
  MemoryFigures memory;
  LayerReport layers;
};

/// Share of the rounds' time spent on set-up repetitions, and on pooled
/// samples.
constexpr double kSetupShare = 0.1;
constexpr double kPooledShare = 1.0 / 3;

/// Runs whole 1-thread rounds of `w` until `budget_s` has passed. Between
/// rounds it times a set-up of `setup_w` (a second instance of the same
/// workload) while set-ups have taken less than kSetupShare of the rounds'
/// time, and runs a pooled sample (the all-MGE request at `pool` threads)
/// while those have taken less than kPooledShare of it. So every kind of
/// sample is spread over the whole run and meets the same host load. A
/// check failure stops the run; an engine error fails that operation and
/// resets the binding.
void Loop(Workload* w, Workload* setup_w, double budget_s, int pool,
          size_t* round, size_t* pooled, Samples* s, CpuRotation* cpus,
          RunResult* out) {
  enum class Turn { kRound, kPooled, kSetup };
  const double start = NowSeconds();
  double round_s = 0, pooled_s = 0, setup_s = 0;
  while (out->correct && NowSeconds() - start < budget_s) {
    const Turn turn = setup_s < round_s * kSetupShare    ? Turn::kSetup
                      : pooled_s < round_s * kPooledShare ? Turn::kPooled
                                                          : Turn::kRound;
    const double t0 = NowSeconds();
    try {
      if (turn == Turn::kSetup) {
        cpus->Pin(out->setup_s.size());
        ++out->attempted;
        setup_w->Setup();
        out->setup_s.push_back(NowSeconds() - t0);
      } else if (turn == Turn::kPooled) {
        out->attempted += w->OpsPerPooledSample();
        cpus->Release();  // pool workers inherit the mask they start under
        whynot::par::SetNumThreads(pool);
        w->PooledSample((*pooled)++, s);
      } else {
        cpus->Pin(*round);
        out->attempted += w->OpsPerRound();
        w->Round((*round)++, s);
      }
    } catch (const CheckFailure& e) {
      out->correct = false;
      out->error = e.what();
    } catch (const EngineError& e) {
      ++out->failed;
      std::fprintf(stderr, "engine error: %s\n", e.what());
      whynot::par::SetNumThreads(1);
      if (turn != Turn::kSetup) w->Reset();
    }
    whynot::par::SetNumThreads(1);
    const double spent = NowSeconds() - t0;
    (turn == Turn::kSetup ? setup_s : turn == Turn::kPooled ? pooled_s : round_s) += spent;
  }
  cpus->Release();
}

RunResult Run(const Args& a, Tracer* tracer) {
  RunResult r;
  const bool tiny = a.tiny;
  whynot::par::SetNumThreads(1);
  std::unique_ptr<Workload> w = MakeWorkload(a.workload, a.seed, tiny, tracer);
  if (w == nullptr) Usage(("unknown workload " + a.workload).c_str());
  std::unique_ptr<Workload> setup_w = MakeWorkload(a.workload, a.seed, tiny, tracer);
  r.ops_per_round = w->OpsPerRound();
  CpuRotation cpus;
  const int pool = std::min(cpus.count(), 4);
  try {
    // The first set-up binds the session the rounds use; the loop repeats
    // set-up on a second instance, each time binding a fresh session, and
    // setup_s is the median of all of them.
    cpus.Pin(0);
    ++r.attempted;
    const double t0 = NowSeconds();
    w->Setup();
    r.setup_s.push_back(NowSeconds() - t0);
    size_t round = 0, pooled = 0;
    if (a.trace) {
      // Half untraced, half traced: the difference is the tracing overhead.
      // The traced half records a span per request, which is that cost;
      // the per-layer figures come from the probes' spans alone.
      Loop(w.get(), setup_w.get(), a.seconds / 2, pool, &round, &pooled, &r.untraced, &cpus, &r);
      tracer->set_enabled(true);
      Loop(w.get(), setup_w.get(), a.seconds / 2, pool, &round, &pooled, &r.traced, &cpus, &r);
      tracer->set_enabled(false);
      tracer->Clear();
    } else {
      Loop(w.get(), setup_w.get(), a.seconds, pool, &round, &pooled, &r.untraced, &cpus, &r);
    }
    whynot::ls::ConceptCacheStats cs = w->CacheStats();
    double hits = static_cast<double>(cs.shared_hits + cs.local_hits);
    double lookups = hits + static_cast<double>(cs.misses);
    r.layers["concepts.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    r.layers["concepts.cache_misses"] = static_cast<double>(cs.misses);
    r.layers["concepts.cache_publishes"] = static_cast<double>(cs.publishes);
    if (r.correct && !MeasureMemory(a, &r.memory, &r.error)) r.correct = false;
    r.layers["concepts.cache_mb"] = r.memory.cache_mb;
    if (a.trace && r.correct) {
      tracer->set_enabled(true);
      w->Probe(pool, &r.layers);
      tracer->set_enabled(false);
      tracer->Report(&r.layers);
    }
  } catch (const CheckFailure& e) {
    r.correct = false;
    r.error = e.what();
  } catch (const EngineError& e) {
    // Set-up or a probe failed.
    r.correct = false;
    r.error = e.what();
    ++r.failed;
    ++r.attempted;
  }
  whynot::par::SetNumThreads(1);
  return r;
}

void Metric(std::string* json, const char* name, double value,
            const char* unit) {
  char buf[256];
  if (!std::isfinite(value)) value = 0;
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name, value, unit);
  *json += buf;
}

/// Per-layer metrics and their units, in report order.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"relational.eval_ms", "ms"},        {"relational.addfact_us", "us"},
      {"relational.warm_reads_ms", "ms"},  {"relational.answers", "count"},
      {"dllite.reasoner_ms", "ms"},        {"obda.saturate_ms", "ms"},
      {"obda.certain_members", "count"},   {"ontology.warm_ms", "ms"},
      {"ontology.ext_mb", "MiB"},          {"ontology.hybrid_sets", "count"},
      {"ontology.dense_sets", "count"},    {"concepts.lub_context_ms", "ms"},
      {"concepts.eval_ms", "ms"},          {"concepts.cache_hit_ratio", "ratio"},
      {"concepts.cache_misses", "count"},  {"concepts.cache_publishes", "count"},
      {"concepts.cache_mb", "MiB"},        {"explain.covers_ms", "ms"},
      {"explain.ls_covers_ms", "ms"},      {"explain.cover_mb", "MiB"},
      {"explain.lattice_ms", "ms"},        {"explain.frontier_ms", "ms"},
      {"explain.products_tested", "count"}, {"explain.products_skipped", "count"},
      {"explain.downset_hits", "count"},   {"explain.waves", "count"},
      {"explain.tested_per_mge", "ratio"}, {"explain.card_ms", "ms"},
      {"explain.check_ms", "ms"},          {"explain.incremental_ms", "ms"},
      {"explain.why_ms", "ms"},            {"explain.enum_ms", "ms"},
      {"explain.enum_nodes", "count"},     {"explain.enum_duplicates", "count"},
      {"explain.enum_visited_hits", "count"}, {"explain.enum_max_delay", "count"},
      {"explain.nodes_per_mge", "ratio"},  {"common.pool_threads", "count"},
      {"common.mt_speedup", "ratio"},      {"common.pooled_mges_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return m;
}

double SumOfMedians(const Samples& s) {
  return Median(s.mges_ms) + Median(s.one_ms) + Median(s.check_ms) +
         Median(s.why_ms);
}

std::string ResultJson(RunResult* r, const Args& a) {
  std::string m;
  const Samples& s = r->untraced;
  if (!a.trace) {
    Metric(&m, "setup_s", Median(r->setup_s), "s");
    Metric(&m, "mges_p50_ms", Median(s.mges_ms), "ms");
    Metric(&m, "one_p50_ms", Median(s.one_ms), "ms");
    Metric(&m, "check_p50_ms", Median(s.check_ms), "ms");
    Metric(&m, "why_p50_ms", Median(s.why_ms), "ms");
    Metric(&m, "write_p50_ms", Median(s.write_ms), "ms");
    // One round's operations over the median round's request time: the
    // closed loop's throughput, without the benchmark's own checking.
    double round_ms = Median(s.round_ms);
    Metric(&m, "req_per_s",
           round_ms > 0 ? 1e3 * static_cast<double>(r->ops_per_round) / round_ms
                        : 0.0,
           "1/s");
    Metric(&m, "session_mb", r->memory.session_mb, "MiB");
    Metric(&m, "peak_rss_mb", r->memory.peak_rss_mb, "MiB");
  } else {
    std::vector<double> pooled = r->untraced.mt_ms;
    pooled.insert(pooled.end(), r->traced.mt_ms.begin(), r->traced.mt_ms.end());
    r->layers["common.pooled_mges_ms"] = Median(pooled);
    double base = SumOfMedians(r->untraced);
    r->layers["trace.overhead_pct"] =
        base > 0 ? 100.0 * (SumOfMedians(r->traced) / base - 1.0) : 0.0;
    for (const auto& [name, unit] : LayerMetrics()) {
      auto it = r->layers.find(name);
      if (it == r->layers.end() && r->correct) {
        r->correct = false;
        r->error = std::string("per-layer metric ") + name + " was not measured";
      }
      Metric(&m, name, it == r->layers.end() ? 0.0 : it->second, unit);
    }
  }
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                r->correct ? "true" : "false", r->attempted, r->failed);
  return std::string(head) + m + "}}";
}

/// Checks the checkers on planted wrong outputs, then runs every workload
/// end to end on tiny inputs.
int SelfTest() {
  int bad = 0;
  for (const std::string& name : WorkloadNames()) {
    Tracer tracer;
    try {
      // Planting needs MGEs with room below them, which the full-size
      // inputs have and the tiny ones need not.
      std::unique_ptr<Workload> w = MakeWorkload(name, 1, /*tiny=*/false, &tracer);
      w->Setup();
      w->SelfTest();
      std::printf("selftest %-13s planted outputs rejected\n", name.c_str());
    } catch (const std::exception& e) {
      std::printf("selftest %-13s FAILED: %s\n", name.c_str(), e.what());
      ++bad;
    }
    for (int trace = 0; trace <= 1; ++trace) {
      Args a;
      a.workload = name;
      a.seed = 7;
      a.seconds = 1.0;
      a.trace = trace;
      a.tiny = true;
      Tracer t;
      RunResult r = Run(a, &t);
      bool ok = r.correct && r.failed == 0 && !r.untraced.round_ms.empty() &&
                !r.untraced.mt_ms.empty();
      std::string json = ResultJson(&r, a);
      ok = ok && r.correct;
      std::printf("selftest %-13s tiny run, trace %d: %s%s%s\n", name.c_str(),
                  trace, ok ? "ok" : "FAILED", r.error.empty() ? "" : ": ",
                  r.error.c_str());
      if (!ok) {
        std::printf("  %s\n", json.c_str());
        ++bad;
      }
    }
  }
  std::printf("{\"selftest\": \"%s\"}\n", bad == 0 ? "pass" : "fail");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args a = e2e::Parse(argc, argv);
  if (a.selftest) return e2e::SelfTest();
  if (a.memory) return e2e::MemoryRun(a);
  e2e::Tracer tracer;
  e2e::RunResult r = e2e::Run(a, &tracer);
  if (!r.error.empty()) std::fprintf(stderr, "check failed: %s\n", r.error.c_str());
  std::printf("%s\n", e2e::ResultJson(&r, a).c_str());
  return 0;
}
