// Warm-session residency benchmarks: N concurrently warm ExplainSessions
// over the retail workload and over deep-lattice workloads whose
// lower-level extensions are sparse over a large interned domain. Counters
// report the session-aggregated MemoryUsage() (the BENCH memory column):
// total bytes, the extension table and answer covers apart, and how many
// extensions carry a dense mirror (ExtSet's density rule leaves sparse
// ones as sorted id vectors).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

// --- warm-session residency ------------------------------------------------

void ReportSessionMemory(benchmark::State& state,
                         const std::vector<wn::explain::ExplainSession>&
                             sessions) {
  double total = 0, ext = 0, cover = 0, dense_sets = 0;
  for (const wn::explain::ExplainSession& s : sessions) {
    auto m = s.MemoryUsage();
    total += static_cast<double>(m.total_bytes);
    ext += static_cast<double>(m.ext_bytes);
    cover += static_cast<double>(m.cover_bytes);
    dense_sets += static_cast<double>(m.dense_ext_sets);
  }
  state.counters["memory_bytes"] = total;
  state.counters["ext_bytes"] = ext;
  state.counters["cover_bytes"] = cover;
  state.counters["dense_sets"] = dense_sets;
  state.counters["sessions"] = static_cast<double>(sessions.size());
}

constexpr size_t kResidentSessions = 4;

void BM_SessionResidency_Retail(benchmark::State& state) {
  auto scenario =
      wn::workload::MakeRetailScenario(static_cast<int>(state.range(0)), 16);
  if (!scenario.ok()) {
    state.SkipWithError("fixture");
    return;
  }
  std::vector<wn::explain::ExplainSession> sessions;
  for (size_t i = 0; i < kResidentSessions; ++i) {
    auto s = wn::explain::ExplainSession::Bind(scenario->instance.get(),
                                               scenario->stock_query,
                                               scenario->ontology.get());
    if (!s.ok()) {
      state.SkipWithError(s.status().ToString().c_str());
      return;
    }
    sessions.push_back(std::move(s).value());
  }
  size_t i = 0;
  for (auto _ : state) {
    auto e = sessions[i++ % sessions.size()].WhyNot(scenario->missing);
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(e.value().size());
  }
  ReportSessionMemory(state, sessions);
}
BENCHMARK(BM_SessionResidency_Retail)->Arg(16)->Arg(64);

/// Deep-lattice residency: a layered ontology over a large interned
/// domain with an aggressive per-level thinning rate, so everything below
/// the first level is sparse relative to the 60k-value universe, where
/// ExtSet keeps sorted id vectors instead of dense mirrors. The pinned request values keep every
/// concept a live explanation candidate despite the thinning.
struct LatticeFixture {
  wn::rel::Schema schema;
  std::unique_ptr<wn::rel::Instance> instance;
  std::unique_ptr<wn::onto::ExplicitOntology> ontology;
  wn::Tuple missing;
  std::vector<wn::Tuple> answers;
};

// Heap-allocated and filled in place: the instance (and later the bound
// sessions) hold the schema's address, so the fixture must never move.
std::unique_ptr<LatticeFixture> MakeLatticeFixture(int depth, uint64_t seed) {
  auto f = std::make_unique<LatticeFixture>();
  auto schema = wn::workload::RandomSchema(1, {2});
  if (!schema.ok()) return nullptr;
  f->schema = std::move(schema).value();
  f->instance = std::make_unique<wn::rel::Instance>(&f->schema);

  constexpr int kDomain = 120000;
  std::vector<wn::Value> domain;
  domain.reserve(kDomain);
  for (int i = 0; i < kDomain; ++i) domain.push_back(wn::Value(i));
  f->missing = {domain[1], domain[2]};
  std::vector<wn::Value> pinned = {domain[1], domain[2]};

  wn::workload::LatticeOntologyOptions opts;
  opts.depth = depth;
  opts.width = 12;
  opts.keep_num = 1;  // 1/16 survival per level: sparse from level 2 down
  opts.keep_den = 16;
  auto ontology =
      wn::workload::RandomLatticeOntology(domain, pinned, opts, seed);
  if (!ontology.ok()) return nullptr;
  f->ontology = std::move(ontology).value();

  wn::workload::Rng rng(seed ^ 0xdeadbeefull);
  for (int a = 0; a < 64; ++a) {
    wn::Tuple t = {domain[rng.Below(kDomain)], domain[rng.Below(kDomain)]};
    if (t != f->missing) f->answers.push_back(std::move(t));
  }
  return f;
}

void BM_SessionResidency_DeepLattice(benchmark::State& state) {
  auto f = MakeLatticeFixture(static_cast<int>(state.range(0)), 1234);
  if (f == nullptr) {
    state.SkipWithError("fixture");
    return;
  }
  std::vector<wn::explain::ExplainSession> sessions;
  for (size_t i = 0; i < kResidentSessions; ++i) {
    auto s = wn::explain::ExplainSession::BindWithAnswers(
        f->instance.get(), f->answers, f->ontology.get());
    if (!s.ok()) {
      state.SkipWithError(s.status().ToString().c_str());
      return;
    }
    sessions.push_back(std::move(s).value());
  }
  size_t i = 0;
  for (auto _ : state) {
    auto mges = sessions[i++ % sessions.size()].PrunedMges(f->missing);
    if (!mges.ok()) {
      state.SkipWithError(mges.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(mges.value().size());
  }
  ReportSessionMemory(state, sessions);
  state.counters["concepts"] =
      static_cast<double>(f->ontology->NumConcepts());
}
BENCHMARK(BM_SessionResidency_DeepLattice)->Arg(16)->Arg(24);

}  // namespace
