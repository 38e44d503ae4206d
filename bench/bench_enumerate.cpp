// Experiment E23 (DESIGN.md): Section 7 poses the existence of a
// polynomial-delay algorithm enumerating *all* most-general explanations
// w.r.t. OI (selection-free LS) as an open problem. This benchmark
// measures the partition-branching enumerator: total time, number of MGEs,
// branch-tree nodes per reported MGE, and the maximum node gap between
// consecutive outputs (`max_delay` — the empirical delay).

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

struct Fixture {
  wn::rel::Schema schema;
  std::unique_ptr<wn::rel::Instance> instance;
  wn::explain::WhyNotInstance wni;
};

// A random 3-relation instance with a base-relation query; the missing
// tuple is the first non-answer pair of the active domain.
std::unique_ptr<Fixture> MakeRandomFixture(int rows, int domain,
                                           uint64_t seed) {
  auto schema = wn::workload::RandomSchema(3, {2, 2, 1});
  if (!schema.ok()) return nullptr;
  auto f = std::make_unique<Fixture>();
  f->schema = std::move(schema).value();
  auto instance = wn::workload::RandomInstance(&f->schema, rows, domain, seed);
  if (!instance.ok()) return nullptr;
  f->instance =
      std::make_unique<wn::rel::Instance>(std::move(instance).value());

  wn::rel::ConjunctiveQuery cq;
  cq.head = {"x", "y"};
  wn::rel::Atom a;
  a.relation = "R0";
  a.args = {wn::rel::Term::Var("x"), wn::rel::Term::Var("y")};
  cq.atoms = {a};
  wn::rel::UnionQuery q;
  q.disjuncts = {cq};

  wn::Tuple missing = {wn::Value(domain + 100), wn::Value(domain + 101)};
  for (int64_t x = 0; x < domain; ++x) {
    for (int64_t y = 0; y < domain; ++y) {
      if (!f->instance->Contains("R0", {wn::Value(x), wn::Value(y)})) {
        missing = {wn::Value(x), wn::Value(y)};
        x = domain;
        break;
      }
    }
  }
  auto wni = wn::explain::MakeWhyNotInstance(f->instance.get(), q, missing);
  if (!wni.ok()) return nullptr;
  f->wni = std::move(wni).value();
  return f;
}

// Instance-size sweep: delay statistics of the complete enumerator.
void BM_Enumerate_InstanceSizeSweep(benchmark::State& state) {
  auto f = MakeRandomFixture(static_cast<int>(state.range(0)),
                             /*domain=*/8, /*seed=*/7);
  if (f == nullptr) {
    state.SkipWithError("fixture");
    return;
  }
  wn::explain::EnumerateStats stats;
  size_t num_results = 0;
  for (auto _ : state) {
    auto r = wn::explain::EnumerateAllMges(f->wni, {}, &stats);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    num_results = r.value().size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(f->instance->NumFacts());
  state.counters["mges"] = static_cast<double>(num_results);
  state.counters["nodes"] = static_cast<double>(stats.nodes_expanded);
  state.counters["nodes_per_mge"] =
      num_results == 0 ? 0.0
                       : static_cast<double>(stats.nodes_expanded) /
                             static_cast<double>(num_results);
  state.counters["max_delay"] = static_cast<double>(stats.max_delay);
}
BENCHMARK(BM_Enumerate_InstanceSizeSweep)->RangeMultiplier(2)->Range(5, 40);

// The Figures 1-2 travel world (Examples 3.4/4.9 input).
void BM_Enumerate_CitiesWorld(benchmark::State& state) {
  auto schema = wn::workload::CitiesDataSchema();
  if (!schema.ok()) {
    state.SkipWithError("schema");
    return;
  }
  auto schema_v = std::move(schema).value();
  auto instance = wn::workload::CitiesInstance(&schema_v);
  if (!instance.ok()) {
    state.SkipWithError("instance");
    return;
  }
  auto instance_v = std::move(instance).value();
  auto wni = wn::explain::MakeWhyNotInstance(
      &instance_v, wn::workload::ConnectedViaQuery(),
      {wn::Value("Amsterdam"), wn::Value("New York")});
  if (!wni.ok()) {
    state.SkipWithError("wni");
    return;
  }
  wn::explain::EnumerateStats stats;
  size_t num_results = 0;
  for (auto _ : state) {
    auto r = wn::explain::EnumerateAllMges(wni.value(), {}, &stats);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    num_results = r.value().size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["mges"] = static_cast<double>(num_results);
  state.counters["nodes"] = static_cast<double>(stats.nodes_expanded);
}
BENCHMARK(BM_Enumerate_CitiesWorld);

// Retail-shaped rows (diagnostic): Products(pid, category),
// Stores(sid, city, region), Stock(pid, sid) and unary Cat_*/Region_*
// relations; every headset is unstocked in every California store and
// one in 20 of the other (product, store) pairs is unstocked. The
// question is why a headset is not stocked in a California store. The
// counters show the branch-tree cost per reported MGE.
void BM_Enumerate_RetailShaped(benchmark::State& state) {
  const int per_category = static_cast<int>(state.range(0));
  const std::vector<std::string> categories = {"headset", "speaker", "laptop",
                                               "phone",   "tablet",  "camera"};
  const std::vector<std::pair<std::string, std::string>> cities = {
      {"San Francisco", "California"}, {"Oakland", "California"},
      {"San Jose", "California"},      {"Los Angeles", "California"},
      {"Seattle", "Washington"},       {"Tacoma", "Washington"},
      {"Portland", "Oregon"},          {"Eugene", "Oregon"},
      {"Reno", "Nevada"}};
  wn::rel::Schema schema;
  bool ok = schema.AddRelation("Products", {"pid", "category"}).ok() &&
            schema.AddRelation("Stores", {"sid", "city", "region"}).ok() &&
            schema.AddRelation("Stock", {"pid", "sid"}).ok();
  for (const std::string& cat : categories) {
    ok = ok && schema.AddRelation("Cat_" + cat, {"id"}).ok();
  }
  for (const char* region : {"California", "Washington", "Oregon", "Nevada"}) {
    ok = ok && schema.AddRelation("Region_" + std::string(region), {"id"}).ok();
  }
  wn::rel::Instance instance(&schema);
  std::vector<std::pair<wn::Value, bool>> products;  // (pid, is headset)
  for (const std::string& cat : categories) {
    for (int i = 0; i < per_category; ++i) {
      wn::Value pid("P-" + cat + "-" + std::to_string(i));
      ok = ok && instance.AddFact("Products", {pid, wn::Value(cat)}).ok() &&
           instance.AddFact("Cat_" + cat, {pid}).ok();
      products.emplace_back(pid, cat == "headset");
    }
  }
  std::vector<std::pair<wn::Value, bool>> stores;  // (sid, in California)
  for (const auto& [city, region] : cities) {
    for (int i = 0; i < 4; ++i) {
      wn::Value sid("S-" + city + "-" + std::to_string(i));
      ok = ok &&
           instance.AddFact("Stores", {sid, wn::Value(city), wn::Value(region)})
               .ok() &&
           instance.AddFact("Region_" + region, {sid}).ok();
      stores.emplace_back(sid, region == "California");
    }
  }
  size_t other = 0;
  for (const auto& [pid, headset] : products) {
    for (const auto& [sid, california] : stores) {
      if (headset && california) continue;
      if (other++ % 20 == 19) continue;
      ok = ok && instance.AddFact("Stock", {pid, sid}).ok();
    }
  }
  if (!ok) {
    state.SkipWithError("fixture");
    return;
  }
  wn::rel::ConjunctiveQuery cq;
  cq.head = {"p", "s"};
  wn::rel::Atom a;
  a.relation = "Stock";
  a.args = {wn::rel::Term::Var("p"), wn::rel::Term::Var("s")};
  cq.atoms = {a};
  wn::rel::UnionQuery q;
  q.disjuncts = {cq};
  auto wni = wn::explain::MakeWhyNotInstance(
      &instance, q, {wn::Value("P-headset-1"), wn::Value("S-Oakland-2")});
  if (!wni.ok()) {
    state.SkipWithError("wni");
    return;
  }
  wn::explain::EnumerateStats stats;
  size_t num_results = 0;
  for (auto _ : state) {
    auto r = wn::explain::EnumerateAllMges(wni.value(), {}, &stats);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    num_results = r.value().size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["mges"] = static_cast<double>(num_results);
  state.counters["nodes"] = static_cast<double>(stats.nodes_expanded);
  state.counters["nodes_per_mge"] =
      num_results == 0 ? 0.0
                       : static_cast<double>(stats.nodes_expanded) /
                             static_cast<double>(num_results);
}
BENCHMARK(BM_Enumerate_RetailShaped)->Arg(5)->Arg(20);

// Baseline: one greedy completion (Algorithm 2) on the same random input —
// the per-output lower bound for any enumeration built on greedy
// completions.
void BM_Enumerate_SingleMgeBaseline(benchmark::State& state) {
  auto f = MakeRandomFixture(static_cast<int>(state.range(0)),
                             /*domain=*/8, /*seed=*/7);
  if (f == nullptr) {
    state.SkipWithError("fixture");
    return;
  }
  for (auto _ : state) {
    auto r = wn::explain::IncrementalSearch(f->wni);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(f->instance->NumFacts());
}
BENCHMARK(BM_Enumerate_SingleMgeBaseline)->RangeMultiplier(2)->Range(5, 40);

}  // namespace
