// The warm-up and order-building costs outside the candidate searches:
// the BoundOntology extension warm-up, the pairwise consistency check, the
// blocked Warshall closure, the concept-lattice build and the materialize
// extension-class dedup. All five are serial at every thread count (the
// odometer shard of explain/search_core.h is the engine's one pooled
// path), so each row's pooled and 1-thread figures should agree; the
// runner records both, with the thread count from WHYNOT_THREADS.

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

void BM_ConceptLattice(benchmark::State& state) {
  auto world = wn::workload::MakeScaledWorld(3, static_cast<int>(state.range(0)), 4);
  if (!world.ok()) {
    state.SkipWithError("fixture");
    return;
  }
  wn::onto::BoundOntology bound(world.value().ontology.get(),
                                world.value().instance.get());
  bound.WarmExtensions();
  for (auto _ : state) {
    wn::explain::ConceptLattice lattice(&bound);
    benchmark::DoNotOptimize(lattice.depth());
  }
  state.counters["concepts"] = world.value().ontology->NumConcepts();
}
BENCHMARK(BM_ConceptLattice)->RangeMultiplier(2)->Range(8, 64);

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
