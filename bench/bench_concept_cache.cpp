// PR 10: shared concept-evaluation cache traffic. The session-held
// ShardedPublishCache replaces the per-request lub/eval islands of the
// derived searches; these scenarios measure the reuse it buys and export
// the traffic counters (cache_shared_hits / cache_local_hits /
// cache_misses / cache_publishes) that tools/check_bench.py reports and
// gates on — a pooled warm-session row with zero shared hits means the
// publish-after-wave merge stopped feeding later requests.
//
// The counters are observability only: the shared/local split depends on
// the wave structure and thread count, while the served values (and all
// search output) stay bit-identical (tests/concept_cache_test.cc).

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
  state.counters["cache_local_hits"] = avg(before.local_hits, after.local_hits);
  state.counters["cache_misses"] = avg(before.misses, after.misses);
  state.counters["cache_publishes"] = avg(before.publishes, after.publishes);
}

// Warm session, repeated EnumerateAllMges traffic: after the first pass
// over the request rotation the published tier holds every lub the
// searches ask for, so steady-state misses go to ~0 and shared hits
// dominate. The exported counters are per-iteration deltas of the
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
// on a fresh run-local cache island. Misses stay at their first-request
// level forever; the time gap against the session row above is what the
// shared tier amortizes.
void BM_ConceptCacheOneShot_EnumerateTraffic(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 8);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  double shared = 0, local = 0, misses = 0;
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
    shared += static_cast<double>(stats.cache_shared_hits);
    local += static_cast<double>(stats.cache_local_hits);
    misses += static_cast<double>(stats.cache_misses);
    benchmark::DoNotOptimize(mges.value().size());
  }
  state.counters["cache_shared_hits"] =
      benchmark::Counter(shared, benchmark::Counter::kAvgIterations);
  state.counters["cache_local_hits"] =
      benchmark::Counter(local, benchmark::Counter::kAvgIterations);
  state.counters["cache_misses"] =
      benchmark::Counter(misses, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ConceptCacheOneShot_EnumerateTraffic)
    ->RangeMultiplier(2)
    ->Range(4, 16);

// Mixed-request reuse: WhyNot, EnumerateMges, and CheckMgeDerived against
// the same session share one published tier, so a lub computed by the
// incremental search is a hit for the enumeration's first wave.
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

// Hit-path microbenchmark: LubAndEval of prebuilt support keys (column
// signatures) on a fully published tier, the cost every steady-state
// lookup pays (one hash of the signature words).
void BM_ConceptCacheOverlay_PublishedHit(benchmark::State& state) {
  wn::rel::Schema schema;
  std::vector<std::string> attrs = {"a", "b", "c"};
  if (!schema.AddRelation("R", attrs).ok()) {
    state.SkipWithError("schema");
    return;
  }
  auto inst = wn::workload::RandomInstance(&schema, 256, 16, 7);
  if (!inst.ok()) {
    state.SkipWithError("fixture");
    return;
  }
  wn::rel::Instance im(std::move(inst).value());
  wn::ls::LubContext lub(&im);
  wn::ls::EvalCache eval(&im);
  wn::ls::ConceptCache cc(&im);
  std::vector<wn::Value> adom = im.ActiveDomain();
  std::vector<wn::ls::SupportKey> keys;
  {
    wn::ls::ConceptCacheOverlay warm(&cc, /*with_selections=*/false, &lub,
                                     &eval);
    for (size_t k = 0; k + 1 < adom.size() && keys.size() < 64; k += 2) {
      keys.push_back(warm.KeyOf({adom[k], adom[k + 1]}));
    }
    for (const auto& key : keys) {
      auto r = warm.LubAndEval(key);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    cc.Publish(&warm);
  }
  wn::ls::ConceptCacheOverlay overlay(&cc, /*with_selections=*/false, &lub,
                                      &eval);
  size_t i = 0;
  for (auto _ : state) {
    auto r = overlay.LubAndEval(keys[i++ % keys.size()]);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value());
  }
  // Overlay counters fold into the shared cache at Publish; nothing is
  // pending here (every lookup hit), so this only merges the stats.
  cc.Publish(&overlay);
  wn::ls::ConceptCacheStats s = cc.stats();
  state.counters["cache_shared_hits"] = static_cast<double>(s.shared_hits);
  state.counters["cache_misses"] = static_cast<double>(s.misses);
}
BENCHMARK(BM_ConceptCacheOverlay_PublishedHit);

}  // namespace
