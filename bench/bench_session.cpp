// PR 5: prepared-session serving benchmarks. The repeated-traffic
// scenario the ROADMAP targets: one (ontology, instance, query) binding
// answering a stream of why-not requests. Cold rows pay the full one-shot
// path per request — query evaluation, extension warm-up, answer-cover
// construction, lub canonical boxes — while the warm rows reuse an
// ExplainSession's shared state and only run the per-request search.
// Results are bit-identical (see tests/session_test.cc); the gap is the
// per-request cost the session amortizes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "whynot/common/algorithm.h"
#include "whynot/common/exec_control.h"
#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

struct Fixture {
  wn::workload::RetailScenario scenario;
  std::vector<wn::Tuple> requests;  // missing tuples, rotated per request
};

/// Builds the scaled retail scenario plus a rotation of distinct missing
/// (product, store) requests, so warm rows cannot degenerate into serving
/// one memoized answer.
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
  return f.requests.empty() ? std::nullopt : std::optional<Fixture>(std::move(f));
}

// --- External ontology: Algorithm 1 per request ----------------------------

void BM_ColdOneShot_ExhaustiveMges(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 8);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    // The full cold path a stateless server would pay per request.
    auto wni = wn::explain::MakeWhyNotInstance(
        f->scenario.instance.get(), f->scenario.stock_query,
        f->requests[i++ % f->requests.size()]);
    if (!wni.ok()) {
      state.SkipWithError(wni.status().ToString().c_str());
      return;
    }
    wn::onto::BoundOntology bound(f->scenario.ontology.get(),
                                  f->scenario.instance.get());
    auto mges = wn::explain::PrunedSearchAllMge(&bound, wni.value());
    if (!mges.ok()) {
      state.SkipWithError(mges.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(mges.value().size());
  }
  state.counters["requests"] = static_cast<double>(f->requests.size());
}
BENCHMARK(BM_ColdOneShot_ExhaustiveMges)->RangeMultiplier(2)->Range(4, 16);

void BM_WarmSession_ExhaustiveMges(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 8);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  auto session = wn::explain::ExplainSession::Bind(
      f->scenario.instance.get(), f->scenario.stock_query,
      f->scenario.ontology.get());
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    auto mges = session->ExhaustiveMges(f->requests[i++ % f->requests.size()]);
    if (!mges.ok()) {
      state.SkipWithError(mges.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(mges.value().size());
  }
  state.counters["requests"] = static_cast<double>(f->requests.size());
}
BENCHMARK(BM_WarmSession_ExhaustiveMges)->RangeMultiplier(2)->Range(4, 16);

// --- Derived ontology OI: Algorithm 2 per request --------------------------

void BM_ColdOneShot_WhyNotDerived(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 8);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    auto wni = wn::explain::MakeWhyNotInstance(
        f->scenario.instance.get(), f->scenario.stock_query,
        f->requests[i++ % f->requests.size()]);
    if (!wni.ok()) {
      state.SkipWithError(wni.status().ToString().c_str());
      return;
    }
    auto e = wn::explain::IncrementalSearch(wni.value(), {});
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(e.value().size());
  }
}
BENCHMARK(BM_ColdOneShot_WhyNotDerived)->RangeMultiplier(2)->Range(4, 16);

void BM_WarmSession_WhyNotDerived(benchmark::State& state) {
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
  size_t i = 0;
  for (auto _ : state) {
    auto e = session->WhyNot(f->requests[i++ % f->requests.size()]);
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(e.value().size());
  }
}
BENCHMARK(BM_WarmSession_WhyNotDerived)->RangeMultiplier(2)->Range(4, 16);

// --- Bind + invalidation costs --------------------------------------------

void BM_SessionBind(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 1);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  for (auto _ : state) {
    auto session = wn::explain::ExplainSession::Bind(
        f->scenario.instance.get(), f->scenario.stock_query,
        f->scenario.ontology.get());
    if (!session.ok()) {
      state.SkipWithError(session.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(session->answers().size());
  }
}
BENCHMARK(BM_SessionBind)->RangeMultiplier(2)->Range(4, 16);

void BM_SessionInvalidationRewarm(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 2);
  if (!f.has_value() || f->requests.size() < 2) {
    state.SkipWithError("fixture");
    return;
  }
  // A private mutable copy: each iteration adds a fresh fact (bumping the
  // version) and the next request pays one deterministic rewarm.
  wn::rel::Instance instance(*f->scenario.instance);
  auto session = wn::explain::ExplainSession::Bind(
      &instance, f->scenario.stock_query, f->scenario.ontology.get());
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  int64_t next_id = 0;
  for (auto _ : state) {
    wn::Status st = instance.AddFact(
        "Products", {wn::Value("P-hot-" + std::to_string(next_id)),
                     wn::Value("Bluetooth-Headset")});
    ++next_id;
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    auto e = session->WhyNot(f->requests[0]);
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(e.value().size());
  }
}
BENCHMARK(BM_SessionInvalidationRewarm)->RangeMultiplier(4)->Range(4, 16);

// A write that grows Ans followed by one derived request: each iteration
// appends a Stock fact for a new product (a new constant, so pool ranks
// shift) and serves a WhyNot, paying the delta re-warm and the cover rows
// the request rebuilds. A diagnostic row for the write-then-read path.
void BM_SessionWriteThenWhyNot(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 1);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  wn::rel::Instance instance(*f->scenario.instance);
  auto session = wn::explain::ExplainSession::Bind(&instance,
                                                   f->scenario.stock_query);
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  const wn::Value store = f->requests[0][1];
  int64_t next_id = 0;
  for (auto _ : state) {
    wn::Status st = instance.AddFact(
        "Stock", {wn::Value("P-new-" + std::to_string(next_id++)), store});
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    auto e = session->WhyNot(f->requests[0]);
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(e.value().size());
  }
  state.counters["answers"] = static_cast<double>(session->answers().size());
}
BENCHMARK(BM_SessionWriteThenWhyNot)->RangeMultiplier(4)->Range(4, 16);

// The column-stable form of the row above: each iteration fills a hole
// between a product and a store that Stock already holds, so no column
// gains a value and the re-warm keeps the derived-ontology state (lub,
// eval memo, concept cache, cover rows). When the holes run out the
// instance and session are reset outside the timed region. A diagnostic
// row for the keep path.
void BM_SessionColumnStableWriteThenWhyNot(benchmark::State& state) {
  auto f = MakeFixture(static_cast<int>(state.range(0)), 4, 1);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  const wn::rel::Instance& base = *f->scenario.instance;
  std::vector<wn::Value> pids, sids;
  for (const wn::Tuple& t : base.Relation("Stock")) {
    pids.push_back(t[0]);
    sids.push_back(t[1]);
  }
  wn::SortUnique(&pids);
  wn::SortUnique(&sids);
  std::vector<wn::Tuple> holes;
  for (const wn::Value& p : pids) {
    for (const wn::Value& s : sids) {
      wn::Tuple hole = {p, s};
      if (hole != f->requests[0] && !base.Contains("Stock", hole)) {
        holes.push_back(std::move(hole));
      }
    }
  }
  if (holes.empty()) {
    state.SkipWithError("no holes");
    return;
  }
  std::optional<wn::rel::Instance> instance;
  std::optional<wn::explain::ExplainSession> session;
  auto reset = [&]() -> bool {
    session.reset();
    instance.emplace(base);
    auto bound = wn::explain::ExplainSession::Bind(&*instance,
                                                   f->scenario.stock_query);
    if (!bound.ok()) return false;
    session.emplace(std::move(bound).value());
    return session->WhyNot(f->requests[0]).ok();  // warm every tier
  };
  if (!reset()) {
    state.SkipWithError("bind");
    return;
  }
  size_t next = 0;
  for (auto _ : state) {
    if (next == holes.size()) {
      state.PauseTiming();
      if (!reset()) {
        state.SkipWithError("rebind");
        return;
      }
      next = 0;
      state.ResumeTiming();
    }
    wn::Status st = instance->AddFact("Stock", holes[next++]);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    auto e = session->WhyNot(f->requests[0]);
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(e.value().size());
  }
  state.counters["kept"] = static_cast<double>(session->rewarm_counts().kept);
}
BENCHMARK(BM_SessionColumnStableWriteThenWhyNot)
    ->RangeMultiplier(4)
    ->Range(4, 16);

// --- PR 8: execution-control deadline sweep --------------------------------

// MgesWithDegradation under a per-request wall-clock deadline, swept from
// none (0: the uninterrupted overhead row — every probe active, nothing
// fires) down to budgets a request may genuinely blow through. Whether a
// given row degrades depends on the host, so the exact/heuristic split is
// exported as counters rather than assumed; the explanations counter shows
// the degraded rows still return usable partials.
void BM_DeadlineSweep_MgesWithDegradation(benchmark::State& state) {
  auto f = MakeFixture(32, 6, 8);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  auto session = wn::explain::ExplainSession::Bind(
      f->scenario.instance.get(), f->scenario.stock_query,
      f->scenario.ontology.get());
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  const int64_t deadline_ms = state.range(0);
  size_t i = 0;
  double exact = 0, heuristic = 0, explanations = 0, total = 0;
  for (auto _ : state) {
    wn::exec::ExecContext ctx;
    if (deadline_ms > 0) {
      ctx.deadline = wn::exec::Deadline::After(deadline_ms);
    }
    auto graded = session->MgesWithDegradation(
        f->requests[i++ % f->requests.size()], &ctx);
    if (!graded.ok()) {
      state.SkipWithError(graded.status().ToString().c_str());
      return;
    }
    total += 1;
    if (graded->certificate.quality == wn::exec::Quality::kExact) exact += 1;
    if (graded->certificate.quality == wn::exec::Quality::kHeuristic) {
      heuristic += 1;
    }
    explanations += static_cast<double>(graded->explanations.size());
    benchmark::DoNotOptimize(graded->explanations.size());
  }
  state.counters["exact_frac"] = total > 0 ? exact / total : 0;
  state.counters["heuristic_frac"] = total > 0 ? heuristic / total : 0;
  state.counters["explanations"] =
      benchmark::Counter(explanations, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DeadlineSweep_MgesWithDegradation)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16);

// Deterministic interruption-depth sweep: an injected deadline fires once
// the search's serial probe ordinal reaches the trigger, independent of
// host speed, so each row measures the cost of stopping at that depth plus
// the greedy-fallback rung when the truncated prefix is empty. Trigger 0
// stops before any candidate (pure fallback cost); the deepest row runs
// most of the space first.
void BM_InjectedStopSweep_MgesWithDegradation(benchmark::State& state) {
  auto f = MakeFixture(32, 6, 8);
  if (!f.has_value()) {
    state.SkipWithError("fixture");
    return;
  }
  auto session = wn::explain::ExplainSession::Bind(
      f->scenario.instance.get(), f->scenario.stock_query,
      f->scenario.ontology.get());
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  const size_t trigger = static_cast<size_t>(state.range(0));
  size_t i = 0;
  double explanations = 0, tested = 0, total = 0;
  for (auto _ : state) {
    wn::test::FaultInjector inj = wn::test::FaultInjector::DeadlineAt(trigger);
    wn::exec::ExecContext ctx;
    ctx.fault = &inj;
    auto graded = session->MgesWithDegradation(
        f->requests[i++ % f->requests.size()], &ctx);
    if (!graded.ok()) {
      state.SkipWithError(graded.status().ToString().c_str());
      return;
    }
    total += 1;
    tested += static_cast<double>(graded->certificate.progress.tested);
    explanations += static_cast<double>(graded->explanations.size());
    benchmark::DoNotOptimize(graded->certificate.progress.tested);
  }
  state.counters["explanations"] =
      benchmark::Counter(explanations, benchmark::Counter::kAvgIterations);
  state.counters["tested"] = total > 0 ? tested / total : 0;
}
BENCHMARK(BM_InjectedStopSweep_MgesWithDegradation)
    ->Arg(0)
    ->Arg(16)
    ->Arg(1 << 20);

// --- PR 10: repeated derived-request traffic -------------------------------

// The shared concept-cache target scenario: one warm session serves a
// stream of derived EnumerateMges requests over rotating missing tuples.
// Every request's search asks for lubs of support sets drawn from the
// same fixed (instance, answers) binding, so requests past the first
// mostly replay published cache entries instead of recomputing
// lub+eval pairs. Pure timing with parent-era APIs only, so the same
// source measures the parent tree for the baseline row.
void BM_WarmSession_RepeatedEnumerateDerived(benchmark::State& state) {
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
  size_t i = 0;
  for (auto _ : state) {
    auto mges = session->EnumerateMges(f->requests[i++ % f->requests.size()]);
    if (!mges.ok()) {
      state.SkipWithError(mges.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(mges.value().size());
  }
  state.counters["requests"] = static_cast<double>(f->requests.size());
}
BENCHMARK(BM_WarmSession_RepeatedEnumerateDerived)
    ->RangeMultiplier(2)
    ->Range(4, 16);

// The CHECK-side of the same traffic: repeated CheckMgeDerived probes of a
// fixed candidate pool against rotating missing tuples. Each check's
// generalization sweep re-derives neighbour lubs of the candidate, which
// the shared cache serves across requests.
void BM_WarmSession_RepeatedCheckMgeDerived(benchmark::State& state) {
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
  // One candidate per request, derived once up front (not timed).
  std::vector<wn::explain::LsExplanation> candidates;
  for (const wn::Tuple& missing : f->requests) {
    auto e = session->WhyNot(missing);
    if (!e.ok()) {
      state.SkipWithError(e.status().ToString().c_str());
      return;
    }
    candidates.push_back(std::move(e).value());
  }
  size_t i = 0;
  for (auto _ : state) {
    size_t r = i++ % f->requests.size();
    auto ok = session->CheckMgeDerived(f->requests[r], candidates[r]);
    if (!ok.ok()) {
      state.SkipWithError(ok.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(ok.value());
  }
}
BENCHMARK(BM_WarmSession_RepeatedCheckMgeDerived)
    ->RangeMultiplier(2)
    ->Range(4, 16);

}  // namespace
