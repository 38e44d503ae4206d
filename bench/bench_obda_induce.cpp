// Experiment E12 (DESIGN.md): Theorems 4.1 and 4.2 — DL-LiteR subsumption
// is PTIME, and the S-ontology induced by an OBDA specification is
// computable in polynomial time (reasoner closure + mapping saturation).
//
// Expected shape: polynomial growth in the TBox size for the reasoner
// construction, and in instance size for the saturation.

#include <benchmark/benchmark.h>

#include "whynot/whynot.h"

namespace wn = whynot;
namespace dl = whynot::dl;

namespace {

void BM_Obda_ReasonerConstruction(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  dl::TBox tbox = wn::workload::RandomTBox(n, n / 2, 3 * n, /*seed=*/5);
  for (auto _ : state) {
    dl::Reasoner reasoner(&tbox);
    benchmark::DoNotOptimize(reasoner.Universe().size());
  }
  state.counters["atomic_concepts"] = n;
  state.counters["axioms"] = 3 * n;
}
BENCHMARK(BM_Obda_ReasonerConstruction)->RangeMultiplier(2)->Range(4, 64);

void BM_Obda_SubsumptionQueries(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  dl::TBox tbox = wn::workload::RandomTBox(n, n / 2, 3 * n, /*seed=*/5);
  dl::Reasoner reasoner(&tbox);
  const auto& universe = reasoner.Universe();
  for (auto _ : state) {
    size_t positive = 0;
    for (const dl::BasicConcept& a : universe) {
      for (const dl::BasicConcept& b : universe) {
        positive += reasoner.Subsumed(a, b) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(positive);
  }
  state.counters["universe"] = static_cast<double>(universe.size());
}
BENCHMARK(BM_Obda_SubsumptionQueries)->RangeMultiplier(2)->Range(4, 32);

void BM_Obda_SaturationInstanceSweep(benchmark::State& state) {
  auto schema = wn::workload::CitiesDataSchema();
  if (!schema.ok()) {
    state.SkipWithError("schema");
    return;
  }
  // Scale the Figure 2 instance by replication with renamed cities.
  wn::rel::Instance instance(&schema.value());
  int copies = static_cast<int>(state.range(0));
  for (int c = 0; c < copies; ++c) {
    std::string suffix = "#" + std::to_string(c);
    (void)instance.AddFact("Cities", {"Amsterdam" + suffix, 779808 + c,
                                      "Netherlands" + suffix, "Europe"});
    (void)instance.AddFact("Cities", {"New York" + suffix, 8337000 + c,
                                      "USA" + suffix, "N.America"});
    (void)instance.AddFact(
        "Train-Connections",
        {"Amsterdam" + suffix, c > 0 ? "Amsterdam#" + std::to_string(c - 1)
                                     : "Amsterdam" + suffix});
  }
  wn::obda::ObdaSpec spec(wn::workload::CitiesTBox(), &schema.value(),
                          wn::workload::CitiesMappings());
  for (auto _ : state) {
    auto sat = spec.Saturate(instance);
    if (!sat.ok()) state.SkipWithError(sat.status().ToString().c_str());
    benchmark::DoNotOptimize(sat);
  }
  state.counters["facts"] = static_cast<double>(instance.NumFacts());
}
BENCHMARK(BM_Obda_SaturationInstanceSweep)
    ->RangeMultiplier(2)
    ->Range(8, 256);

void BM_Obda_InducedOntologyEndToEnd(benchmark::State& state) {
  auto schema = wn::workload::CitiesDataSchema();
  auto instance = wn::workload::CitiesInstance(&schema.value());
  if (!instance.ok()) {
    state.SkipWithError("instance");
    return;
  }
  wn::obda::ObdaSpec spec(wn::workload::CitiesTBox(), &schema.value(),
                          wn::workload::CitiesMappings());
  auto wni = wn::explain::MakeWhyNotInstance(
      &instance.value(), wn::workload::ConnectedViaQuery(),
      {"Amsterdam", "New York"});
  if (!wni.ok()) {
    state.SkipWithError("wni");
    return;
  }
  for (auto _ : state) {
    wn::obda::ObdaInducedOntology ontology(&spec);
    wn::onto::BoundOntology bound(&ontology, &instance.value());
    auto mges = wn::explain::PrunedSearchAllMge(&bound, wni.value());
    if (!mges.ok()) state.SkipWithError("search");
    benchmark::DoNotOptimize(mges);
  }
}
BENCHMARK(BM_Obda_InducedOntologyEndToEnd);

}  // namespace
