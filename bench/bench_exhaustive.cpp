// Experiment E15 (DESIGN.md): Theorem 5.2 — EXHAUSTIVE SEARCH (Algorithm 1)
// runs in PTIME for fixed query arity and EXPTIME in general.
//
// Expected shape: near-linear growth in the ontology size at arity 2;
// multiplicative blowup as the arity grows at fixed ontology size.

#include <benchmark/benchmark.h>

#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

struct Fixture {
  wn::workload::ScaledWorld world;
  std::unique_ptr<wn::onto::BoundOntology> bound;
  wn::explain::WhyNotInstance wni;
};

/// Ontology size is driven by countries-per-continent.
std::unique_ptr<Fixture> MakeFixture(int countries, size_t arity) {
  auto world = wn::workload::MakeScaledWorld(3, countries, 4);
  if (!world.ok()) return nullptr;
  auto f = std::make_unique<Fixture>();
  f->world = std::move(world).value();
  f->bound = std::make_unique<wn::onto::BoundOntology>(
      f->world.ontology.get(), f->world.instance.get());
  // Build an arity-m why-not question: alternate the two continents'
  // cities in the missing tuple; answers are same-city diagonals.
  wn::Tuple missing;
  for (size_t i = 0; i < arity; ++i) {
    missing.push_back(f->world.missing_pair[i % 2]);
  }
  std::vector<wn::Tuple> answers;
  std::vector<wn::Value> adom = f->world.instance->ActiveDomain();
  for (size_t i = 0; i < adom.size(); i += 3) {
    answers.push_back(wn::Tuple(arity, adom[i]));
  }
  auto wni = wn::explain::MakeWhyNotInstanceFromAnswers(
      f->world.instance.get(), answers, missing);
  if (!wni.ok()) return nullptr;
  f->wni = std::move(wni).value();
  return f;
}

void BM_Exhaustive_OntologySizeFixedArity(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 2);
  if (f == nullptr) {
    state.SkipWithError("fixture");
    return;
  }
  for (auto _ : state) {
    auto r = wn::explain::PrunedSearchAllMge(f->bound.get(), f->wni);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["concepts"] = f->bound->NumConcepts();
}
BENCHMARK(BM_Exhaustive_OntologySizeFixedArity)
    ->RangeMultiplier(2)
    ->Range(2, 32);

void BM_Exhaustive_AritySweep(benchmark::State& state) {
  auto f = MakeFixture(3, static_cast<size_t>(state.range(0)));
  if (f == nullptr) {
    state.SkipWithError("fixture");
    return;
  }
  wn::explain::ExhaustiveOptions options;
  options.max_candidates = 200000000;
  for (auto _ : state) {
    auto r =
        wn::explain::PrunedSearchAllMge(f->bound.get(), f->wni, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["arity"] = static_cast<double>(state.range(0));
  state.counters["concepts"] = f->bound->NumConcepts();
}
BENCHMARK(BM_Exhaustive_AritySweep)->DenseRange(1, 4);

/// Deep-lattice scenario: a layered multi-parent ontology whose every
/// concept contains the missing tuple's (pinned) values, so the raw
/// candidate product is |concepts|^arity — far past what the odometer can
/// enumerate — while the dominance-pruned frontier only ever tests the
/// boundary between failing and passing products.
struct DeepLatticeFixture {
  wn::rel::Schema schema;
  std::unique_ptr<wn::rel::Instance> instance;
  std::unique_ptr<wn::onto::ExplicitOntology> ontology;
  std::unique_ptr<wn::onto::BoundOntology> bound;
  wn::explain::WhyNotInstance wni;
};

std::unique_ptr<DeepLatticeFixture> MakeDeepLatticeFixture(int depth,
                                                           int width,
                                                           size_t arity,
                                                           uint64_t seed) {
  auto f = std::make_unique<DeepLatticeFixture>();
  auto schema = wn::workload::RandomSchema(1, {2});
  if (!schema.ok()) return nullptr;
  f->schema = std::move(schema).value();
  f->instance = std::make_unique<wn::rel::Instance>(&f->schema);

  std::vector<wn::Value> domain;
  for (int i = 0; i < 48; ++i) domain.push_back(wn::Value(i));
  wn::Tuple missing;
  std::vector<wn::Value> pinned;
  for (size_t i = 0; i < arity; ++i) {
    missing.push_back(domain[i + 1]);
    pinned.push_back(domain[i + 1]);
  }
  wn::workload::LatticeOntologyOptions opts;
  opts.depth = depth;
  opts.width = width;
  auto ontology =
      wn::workload::RandomLatticeOntology(domain, pinned, opts, seed);
  if (!ontology.ok()) return nullptr;
  f->ontology = std::move(ontology).value();
  f->bound = std::make_unique<wn::onto::BoundOntology>(f->ontology.get(),
                                                       f->instance.get());

  // Answers cluster in the upper half of the domain (the missing tuple's
  // pinned values sit at the bottom): concepts that happen to thin away
  // answer-heavy values pass high in the lattice, which is the regime the
  // downset pruning is built for — an MGE found near the top dominates
  // (and skips) its entire downset.
  wn::workload::Rng rng(seed ^ 0xdeadbeefull);
  std::vector<wn::Tuple> answers;
  for (int a = 0; a < 64; ++a) {
    wn::Tuple t;
    for (size_t i = 0; i < arity; ++i) {
      t.push_back(domain[24 + rng.Below(domain.size() - 24)]);
    }
    if (t != missing) answers.push_back(std::move(t));
  }
  auto wni = wn::explain::MakeWhyNotInstanceFromAnswers(f->instance.get(),
                                                        answers, missing);
  if (!wni.ok()) return nullptr;
  f->wni = std::move(wni).value();
  return f;
}

void ReportPruneCounters(benchmark::State& state,
                         const wn::explain::PruneStats& stats,
                         double raw_product) {
  state.counters["raw_product"] = raw_product;
  state.counters["prune_enumerated"] =
      static_cast<double>(stats.products_enumerated);
  state.counters["prune_skipped"] = static_cast<double>(stats.products_skipped);
  state.counters["prune_downset_hits"] =
      static_cast<double>(stats.downset_hits);
  state.counters["prune_waves"] = static_cast<double>(stats.waves);
}

void BM_Exhaustive_DeepLattice(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  auto f = MakeDeepLatticeFixture(depth, /*width=*/8, /*arity=*/3, 1234);
  if (f == nullptr) {
    state.SkipWithError("fixture");
    return;
  }
  wn::explain::ExhaustiveOptions options;
  options.strategy = wn::explain::SearchStrategy::kLattice;
  options.max_candidates = 2000000;  // budgets products *tested*
  wn::explain::PruneStats stats;
  options.prune_stats = &stats;
  wn::explain::LatticeHandle lattice(f->bound.get());
  size_t found = 0;
  for (auto _ : state) {
    stats = {};
    auto r = wn::explain::PrunedSearchAllMge(f->bound.get(), f->wni, options,
                                             nullptr, &lattice);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    found = r->size();
    benchmark::DoNotOptimize(r);
  }
  double concepts = static_cast<double>(f->bound->NumConcepts());
  ReportPruneCounters(state, stats, concepts * concepts * concepts);
  state.counters["concepts"] = concepts;
  state.counters["mges"] = static_cast<double>(found);
}
BENCHMARK(BM_Exhaustive_DeepLattice)->Arg(12)->Arg(25);

}  // namespace
