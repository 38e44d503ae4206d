// PR 4: the parallel execution layer's warm-up benches. Measures the
// BoundOntology extension warm-up (serial at every thread count, so its
// pooled and 1-thread rows should agree), the pairwise consistency check,
// the row-parallel blocked Warshall closure, and the materialize
// extension-class dedup — the "embarrassingly parallel" costs outside the
// candidate searches. Thread count comes from WHYNOT_THREADS (the runner
// records both a pooled and a 1-thread row; on a single-core host the two
// coincide).

#include <benchmark/benchmark.h>

#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

void BM_WarmExtensions(benchmark::State& state) {
  auto world = wn::workload::MakeScaledWorld(3, static_cast<int>(state.range(0)), 4);
  if (!world.ok()) {
    state.SkipWithError("fixture");
    return;
  }
  for (auto _ : state) {
    wn::onto::BoundOntology bound(world.value().ontology.get(),
                                  world.value().instance.get());
    bound.WarmExtensions();
    benchmark::DoNotOptimize(bound.NumConcepts());
  }
  state.counters["concepts"] = world.value().ontology->NumConcepts();
}
BENCHMARK(BM_WarmExtensions)->RangeMultiplier(2)->Range(8, 64);

void BM_CheckConsistent(benchmark::State& state) {
  auto world = wn::workload::MakeScaledWorld(3, static_cast<int>(state.range(0)), 4);
  if (!world.ok()) {
    state.SkipWithError("fixture");
    return;
  }
  for (auto _ : state) {
    wn::onto::BoundOntology bound(world.value().ontology.get(),
                                  world.value().instance.get());
    wn::Status st = bound.CheckConsistent();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
}
BENCHMARK(BM_CheckConsistent)->RangeMultiplier(2)->Range(8, 32);

void BM_TransitiveClosure(benchmark::State& state) {
  int32_t n = static_cast<int32_t>(state.range(0));
  wn::workload::Rng rng(7);
  wn::onto::BoolMatrix edges(n);
  for (int32_t i = 0; i < 4 * n; ++i) {
    edges.Set(static_cast<int32_t>(rng.Below(static_cast<uint64_t>(n))),
              static_cast<int32_t>(rng.Below(static_cast<uint64_t>(n))));
  }
  for (auto _ : state) {
    wn::onto::BoolMatrix m = edges;
    wn::onto::ReflexiveTransitiveClosure(&m);
    benchmark::DoNotOptimize(m.RowCount(0));
  }
}
BENCHMARK(BM_TransitiveClosure)->RangeMultiplier(4)->Range(256, 4096);

void BM_MaterializeSelectionFree(benchmark::State& state) {
  auto schema = wn::workload::RandomSchema(3, {2, 2, 1});
  if (!schema.ok()) {
    state.SkipWithError("schema");
    return;
  }
  auto instance = wn::workload::RandomInstance(
      &schema.value(), static_cast<int>(state.range(0)), 12, 42);
  if (!instance.ok()) {
    state.SkipWithError("instance");
    return;
  }
  wn::ls::MaterializeOptions options;
  options.fragment = wn::ls::Fragment::kSelectionFree;
  options.max_concepts = 100000;
  for (auto _ : state) {
    auto onto =
        wn::ls::LsOntology::Materialize(&instance.value(), {}, options);
    if (!onto.ok()) {
      state.SkipWithError(onto.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(onto.value()->NumConcepts());
  }
}
BENCHMARK(BM_MaterializeSelectionFree)->RangeMultiplier(2)->Range(16, 64);

}  // namespace
