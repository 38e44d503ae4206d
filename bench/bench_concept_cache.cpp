// Concept-memo traffic. The session-held ls::ConceptCache carries the
// lub/eval results of the derived searches from one request to the next;
// these scenarios measure the reuse it buys and export the traffic
// counters (cache_shared_hits — every hit — plus cache_misses /
// cache_publishes) that tools/check_bench.py reports and gates on: a
// warm-session row with zero hits means later requests stopped reading
// what earlier ones recorded.
//
// The counters are observability only: the served values (and all search
// output) stay bit-identical whether a lookup hits or misses
// (tests/concept_cache_test.cc).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

struct Fixture {
  wn::workload::RetailScenario scenario;
  std::vector<wn::Tuple> requests;
};

std::optional<Fixture> MakeFixture(int num_products, int num_stores,
                                   size_t num_requests) {
  auto scenario = wn::workload::MakeRetailScenario(num_products, num_stores);
  if (!scenario.ok()) return std::nullopt;
  Fixture f;
  f.scenario = std::move(scenario).value();
  auto answers =
      wn::rel::Evaluate(f.scenario.stock_query, *f.scenario.instance);
  if (!answers.ok()) return std::nullopt;
  const auto& products = f.scenario.instance->Relation("Products");
  const auto& stores = f.scenario.instance->Relation("Stores");
  for (const wn::Tuple& p : products) {
    for (const wn::Tuple& s : stores) {
      wn::Tuple missing = {p[0], s[0]};
      if (!std::binary_search(answers->begin(), answers->end(), missing)) {
        f.requests.push_back(std::move(missing));
        if (f.requests.size() >= num_requests) return f;
      }
    }
  }
  return f.requests.empty() ? std::nullopt
                            : std::optional<Fixture>(std::move(f));
}

void ExportCacheCounters(benchmark::State& state,
                         const wn::ls::ConceptCacheStats& before,
                         const wn::ls::ConceptCacheStats& after) {
  auto avg = [&](size_t b, size_t a) {
    return benchmark::Counter(static_cast<double>(a - b),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["cache_shared_hits"] =
      avg(before.shared_hits, after.shared_hits);
  state.counters["cache_misses"] = avg(before.misses, after.misses);
  state.counters["cache_publishes"] = avg(before.publishes, after.publishes);
}

// Warm session, repeated EnumerateAllMges traffic: after the first pass
// over the request rotation the memo holds every lub the searches ask
// for, so steady-state misses go to ~0 and hits dominate. The exported counters are per-iteration deltas of the
// session's cumulative ConceptCacheStats.
void BM_ConceptCacheSession_EnumerateTraffic(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 8);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  auto session = wn::explain::ExplainSession::Bind(
      f->scenario.instance.get(), f->scenario.stock_query);
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  wn::ls::ConceptCacheStats before = session->CacheStats();
  size_t i = 0;
  for (auto _ : state) {
    auto mges = session->EnumerateMges(f->requests[i++ % f->requests.size()]);
    if (!mges.ok()) {
      state.SkipWithError(mges.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(mges.value().size());
  }
  ExportCacheCounters(state, before, session->CacheStats());
  state.counters["cache_resident_bytes"] =
      static_cast<double>(session->MemoryUsage().shared_cache_bytes);
}
BENCHMARK(BM_ConceptCacheSession_EnumerateTraffic)
    ->RangeMultiplier(2)
    ->Range(4, 16);

// The counterfactual: the same request stream served one-shot, each call
// on a fresh run-local cache. Misses stay at their first-request level
// forever; the time gap against the session row above is what the
// session's memo amortizes.
void BM_ConceptCacheOneShot_EnumerateTraffic(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 8);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  double hits = 0, misses = 0;
  size_t i = 0;
  for (auto _ : state) {
    auto wni = wn::explain::MakeWhyNotInstance(
        f->scenario.instance.get(), f->scenario.stock_query,
        f->requests[i++ % f->requests.size()]);
    if (!wni.ok()) {
      state.SkipWithError(wni.status().ToString().c_str());
      return;
    }
    wn::explain::EnumerateStats stats;
    auto mges = wn::explain::EnumerateAllMges(wni.value(), {}, &stats);
    if (!mges.ok()) {
      state.SkipWithError(mges.status().ToString().c_str());
      return;
    }
    hits += static_cast<double>(stats.cache_hits);
    misses += static_cast<double>(stats.cache_misses);
    benchmark::DoNotOptimize(mges.value().size());
  }
  state.counters["cache_shared_hits"] =
      benchmark::Counter(hits, benchmark::Counter::kAvgIterations);
  state.counters["cache_misses"] =
      benchmark::Counter(misses, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ConceptCacheOneShot_EnumerateTraffic)
    ->RangeMultiplier(2)
    ->Range(4, 16);

// Mixed-request reuse: WhyNot, EnumerateMges, and CheckMgeDerived against
// the same session share one memo, so a lub computed by the incremental
// search is a hit for the enumeration.
void BM_ConceptCacheSession_MixedDerivedTraffic(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 6);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  auto session = wn::explain::ExplainSession::Bind(
      f->scenario.instance.get(), f->scenario.stock_query);
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  wn::ls::ConceptCacheStats before = session->CacheStats();
  size_t i = 0;
  for (auto _ : state) {
    const wn::Tuple& missing = f->requests[i++ % f->requests.size()];
    auto e = session->WhyNot(missing);
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    auto mges = session->EnumerateMges(missing);
    if (!mges.ok()) {
      state.SkipWithError(mges.status().ToString().c_str());
      return;
    }
    auto check = session->CheckMgeDerived(missing, e.value());
    if (!check.ok()) {
      state.SkipWithError(check.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(check.value());
  }
  ExportCacheCounters(state, before, session->CacheStats());
}
BENCHMARK(BM_ConceptCacheSession_MixedDerivedTraffic)
    ->RangeMultiplier(2)
    ->Range(4, 16);

}  // namespace
