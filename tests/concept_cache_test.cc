// Cache-equivalence gate for the concept memo (the lub+eval cache the
// derived searches record into): a session serving repeated requests
// through its ConceptCache must produce bit-identical outputs,
// deterministic stats, and errors as the one-shot entry points running on
// per-call-local caches — at every thread count. The cache counters
// themselves are observability only (hits depend on what earlier requests
// left in the memo) and are deliberately NOT compared.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "test_util.h"
#include "whynot/common/algorithm.h"

namespace whynot {
namespace {

using workload::Rng;

constexpr int kThreadCounts[] = {1, 2, 8};

struct Fixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  explain::WhyNotInstance wni;
  explain::WhyInstance wi;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  auto schema = workload::RandomSchema(3, {2, 2, 1});
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::RandomInstance(&f.schema, /*rows_per_relation=*/14,
                                           /*domain=*/8, seed);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());

  Rng rng(seed ^ 0x5ca1eull);
  const std::vector<Value>& adom = f.instance->ActiveDomain();
  f.wni.instance = f.instance.get();
  f.wni.missing = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
  for (int a = 0; a < 10; ++a) {
    Tuple t = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
    if (t != f.wni.missing) f.wni.answers.push_back(std::move(t));
  }
  SortUnique(&f.wni.answers);
  f.wi.instance = f.instance.get();
  f.wi.answers = f.wni.answers;
  f.wi.present = f.wni.answers.front();
  return f;
}

std::string Serialize(const explain::LsExplanation& e) {
  std::string s;
  for (const ls::LsConcept& c : e) s += c.ToString() + "|";
  return s;
}

/// Runs the full derived request mix — enumerate (twice, for cross-request
/// reuse), incremental why-not, CHECK-MGE on the enumerated antichain,
/// incremental why, why CHECK-MGE — and serializes every output plus the
/// four deterministic EnumerateStats fields.
std::string RunRequestMix(const Fixture& f, bool with_selections,
                          bool through_session) {
  std::string out;
  auto append_stats = [&](const explain::EnumerateStats& stats) {
    out += "#" + std::to_string(stats.nodes_expanded) + "/" +
           std::to_string(stats.duplicate_outputs) + "/" +
           std::to_string(stats.visited_hits) + "/" +
           std::to_string(stats.max_delay) + ";";
  };
  std::vector<explain::LsExplanation> mges;
  if (through_session) {
    explain::ExplainSessionOptions options;
    options.with_selections = with_selections;
    auto session = explain::ExplainSession::BindWithAnswers(
        f.instance.get(), f.wni.answers, nullptr, options);
    EXPECT_TRUE(session.ok());
    if (!session.ok()) return "bind failed";
    explain::ExplainSession s = std::move(session).value();
    for (int round = 0; round < 2; ++round) {
      explain::EnumerateStats stats;
      auto r = s.EnumerateMges(f.wni.missing, &stats);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return "enumerate failed";
      mges = r.value();
      for (const explain::LsExplanation& e : mges) out += Serialize(e) + ";";
      append_stats(stats);
    }
    auto incr = s.WhyNot(f.wni.missing);
    EXPECT_TRUE(incr.ok());
    if (incr.ok()) out += "I:" + Serialize(incr.value()) + ";";
    for (const explain::LsExplanation& e : mges) {
      auto chk = s.CheckMgeDerived(f.wni.missing, e);
      EXPECT_TRUE(chk.ok());
      out += chk.ok() && chk.value() ? "1" : "0";
    }
    out += ";";
    auto why = s.Why(f.wi.present);
    EXPECT_TRUE(why.ok());
    if (why.ok()) out += "W:" + Serialize(why.value()) + ";";
  } else {
    explain::EnumerateOptions eopts;
    eopts.with_selections = with_selections;
    for (int round = 0; round < 2; ++round) {
      explain::EnumerateStats stats;
      auto r = explain::EnumerateAllMges(f.wni, eopts, &stats);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return "enumerate failed";
      mges = r.value();
      for (const explain::LsExplanation& e : mges) out += Serialize(e) + ";";
      append_stats(stats);
    }
    explain::IncrementalOptions iopts;
    iopts.with_selections = with_selections;
    auto incr = explain::IncrementalSearch(f.wni, iopts);
    EXPECT_TRUE(incr.ok());
    if (incr.ok()) out += "I:" + Serialize(incr.value()) + ";";
    ls::LubContext ctx(f.instance.get());
    for (const explain::LsExplanation& e : mges) {
      auto chk = explain::CheckMgeDerived(f.wni, e, with_selections, &ctx);
      EXPECT_TRUE(chk.ok());
      out += chk.ok() && chk.value() ? "1" : "0";
    }
    out += ";";
    auto why = explain::IncrementalWhySearch(f.wi, with_selections);
    EXPECT_TRUE(why.ok());
    if (why.ok()) out += "W:" + Serialize(why.value()) + ";";
  }
  return out;
}

class ConceptCacheEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ConceptCacheEquivalenceTest, SessionSharedCacheMatchesOneShot) {
  Fixture f = MakeFixture(GetParam());
  // Both lub flavors get exercised across the seed range.
  const bool with_selections = (GetParam() % 2) == 1;
  std::optional<std::string> reference;
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    for (bool through_session : {false, true}) {
      std::string got = RunRequestMix(f, with_selections, through_session);
      if (!reference.has_value()) {
        reference = got;
      } else {
        EXPECT_EQ(got, *reference)
            << (through_session ? "session" : "one-shot")
            << " diverged at WHYNOT_THREADS=" << threads;
      }
    }
  }
  par::SetNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConceptCacheEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 27));

// --- ConceptCache / overlay unit tests ------------------------------------

struct UnitFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<ls::LubContext> lub;
};

UnitFixture MakeUnitFixture() {
  UnitFixture f;
  f.schema = testutil::SimpleSchema();
  rel::Instance instance(&f.schema);
  for (int i = 0; i < 12; ++i) {
    EXPECT_OK(instance.AddFact(
        "R", {Value(i % 4), Value(i % 3)}));
    EXPECT_OK(instance.AddFact("U", {Value(i % 5)}));
  }
  f.instance = std::make_unique<rel::Instance>(std::move(instance));
  f.lub = std::make_unique<ls::LubContext>(f.instance.get());
  return f;
}

TEST(ConceptCacheTest, MissThenHit) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::ConceptCacheOverlay a(&cache, /*with_selections=*/false, f.lub.get());
  ls::SupportKey x = a.KeyOf({Value(1), Value(2)});
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* first, a.LubAndEval(x));
  // The miss is recorded at once: the support entry and its eval node.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().publishes, 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.FindSupport(false, x), first);
  // The entry views the owned memo's node: evaluating its concept through
  // evals() is a hit on the very same extension object.
  EXPECT_EQ(first->ext, &cache.evals().Eval(*first->concept));
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* again, a.LubAndEval(x));
  EXPECT_EQ(first, again);  // one address per key
  EXPECT_EQ(cache.stats().shared_hits, 1u);
  EXPECT_EQ(cache.stats().local_hits, 0u);

  // A second overlay over the same cache is served the same entry.
  ls::LubContext lub_b(f.instance.get());
  ls::ConceptCacheOverlay b(&cache, /*with_selections=*/false, &lub_b);
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* hit, b.LubAndEval(x));
  EXPECT_EQ(hit, first);
  EXPECT_EQ(cache.stats().shared_hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(*hit->concept, lub_b.LubSelectionFree({Value(1), Value(2)}));
}

TEST(ConceptCacheTest, TransientProbesWithSelectionsRecordNoSupportEntry) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());

  // Cold transient probe: computes the lub and records only the
  // concept-keyed eval node — never a support entry. (With selections:
  // the selection-free flavor keys by signature, and memoizes every
  // probe; see SelectionFreeSupportsShareOneEntryPerSignature.)
  ls::ConceptCacheOverlay a(&cache, /*with_selections=*/true, f.lub.get());
  ls::SupportKey x = a.KeyOf({Value(1), Value(2)});
  ASSERT_OK_AND_ASSIGN(const ls::Extension* cold, a.LubExtTransient(x));
  EXPECT_EQ(cache.FindSupport(true, x), nullptr);
  EXPECT_EQ(cache.size(), 1u);  // the eval node
  // Repeating the probe recomputes the lub but lands on the same memoized
  // extension object — address-stable until Clear, which the cover-row
  // identity keying requires.
  ASSERT_OK_AND_ASSIGN(const ls::Extension* again, a.LubExtTransient(x));
  EXPECT_EQ(cold, again);
  EXPECT_EQ(cache.size(), 1u);  // nothing new recorded
  EXPECT_EQ(cache.FindSupport(true, x), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);

  // A full LubAndEval of the same key shares the evaluation (same
  // extension object) and records the support entry, which a later
  // transient probe is served.
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* entry, a.LubAndEval(x));
  EXPECT_EQ(entry->ext, cold);
  EXPECT_EQ(cache.FindSupport(true, x), entry);
  ASSERT_OK_AND_ASSIGN(const ls::Extension* warm, a.LubExtTransient(x));
  EXPECT_EQ(warm, entry->ext);
  EXPECT_EQ(cache.stats().shared_hits, 1u);
}

TEST(ConceptCacheTest, SelectionFreeSupportsShareOneEntryPerSignature) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  const ValuePool& pool = f.instance->pool();

  // 0, 1 and 2 occur in R.0, R.1 and U.0 alike, so every pair of them has
  // one signature, one key and one lub; 3 misses R.1.
  ls::ConceptCacheOverlay a(&cache, /*with_selections=*/false, f.lub.get());
  ls::SupportKey k01 = a.KeyOf({Value(0), Value(1)});
  EXPECT_EQ(a.KeyOf({Value(2), Value(1)}), k01);
  EXPECT_FALSE(a.KeyOf({Value(0), Value(3)}) == k01);
  // A singleton keeps its nominal; extending it lands on the pair's key.
  ls::SupportKey single = a.KeyOf({Value(0)});
  EXPECT_FALSE(single == k01);
  ls::SupportKey extended;
  a.Extend(single, Value(1), pool.Lookup(Value(1)), &extended);
  EXPECT_EQ(extended, k01);

  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* entry,
                       a.LubAndEval(k01));
  EXPECT_EQ(*entry->concept, f.lub->LubSelectionFree({Value(1), Value(2)}));
  // A selection-free probe records its key, so a second support with the
  // same signature is a hit on the same entry.
  ASSERT_OK_AND_ASSIGN(const ls::Extension* probed,
                       a.LubExtTransient(a.KeyOf({Value(1), Value(2)})));
  EXPECT_EQ(probed, entry->ext);
  // A value outside the pool empties the signature: the lub is ⊤.
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* top,
                       a.LubAndEval(a.KeyOf({Value(1), Value("nowhere")})));
  EXPECT_TRUE(top->concept->IsTop());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().shared_hits, 1u);
  EXPECT_EQ(cache.FindSupport(false, k01), entry);
}

TEST(ConceptCacheTest, PromoteLastProbeMatchesLubAndEval) {
  UnitFixture f = MakeUnitFixture();

  // Promoting a cold probe records the support entry without recomputing:
  // the entry's extension is the very object the probe returned, and its
  // concept equals what an independent LubAndEval derives.
  for (bool with_selections : {false, true}) {
    ls::ConceptCache cache(f.instance.get());
    ls::ConceptCacheOverlay a(&cache, with_selections, f.lub.get());
    ls::SupportKey x = a.KeyOf({Value(1), Value(2)});
    ASSERT_OK_AND_ASSIGN(const ls::Extension* probed, a.LubExtTransient(x));
    const ls::ConceptCache::Entry* promoted = a.PromoteLastProbe(x);
    ASSERT_NE(promoted, nullptr);
    EXPECT_EQ(promoted->ext, probed);
    EXPECT_EQ(cache.FindSupport(with_selections, x), promoted);
    EXPECT_EQ(promoted->ext, &cache.evals().Eval(*promoted->concept));
    EXPECT_EQ(cache.stats().misses, 1u);

    // A fresh cache's LubAndEval of the same key derives the same concept.
    ls::ConceptCache fresh(f.instance.get());
    ls::LubContext lub_b(f.instance.get());
    ls::ConceptCacheOverlay b(&fresh, with_selections, &lub_b);
    ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* independent,
                         b.LubAndEval(x));
    EXPECT_EQ(*independent->concept, *promoted->concept);
    EXPECT_EQ(*independent->ext, *promoted->ext);
    // In the same cache, LubAndEval is served the promoted entry itself.
    ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* same,
                         a.LubAndEval(x));
    EXPECT_EQ(same, promoted);

    // Promoting a probe that hit a recorded entry is a no-op returning
    // that entry: same address, nothing new recorded.
    const size_t entries = cache.size();
    ASSERT_OK_AND_ASSIGN(const ls::Extension* hit, a.LubExtTransient(x));
    EXPECT_EQ(hit, promoted->ext);
    EXPECT_EQ(a.PromoteLastProbe(x), promoted);
    EXPECT_EQ(cache.size(), entries);
  }
}

TEST(ConceptCacheTest, SelectionFlavorsAreDistinctMaps) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  std::vector<Value> x = {Value(1), Value(2)};

  ls::ConceptCacheOverlay free_overlay(&cache, false, f.lub.get());
  ls::ConceptCacheOverlay sel_overlay(&cache, true, f.lub.get());
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* e_free,
                       free_overlay.LubAndEval(free_overlay.KeyOf(x)));
  // The with-selections map must not serve the selection-free entry.
  EXPECT_EQ(cache.FindSupport(true, sel_overlay.KeyOf(x)), nullptr);
  EXPECT_EQ(cache.FindSupport(false, free_overlay.KeyOf(x)), e_free);
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* e_sel,
                       sel_overlay.LubAndEval(sel_overlay.KeyOf(x)));
  EXPECT_NE(e_sel, e_free);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().shared_hits, 0u);
}

TEST(ConceptCacheTest, ClearDropsEntriesKeepsCounters) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::ConceptCacheOverlay a(&cache, false, f.lub.get());
  ls::SupportKey x = a.KeyOf({Value(2), Value(3)});
  ASSERT_TRUE(a.LubAndEval(x).ok());
  EXPECT_GT(cache.size(), 0u);
  const size_t cold_bytes = ls::ConceptCache(f.instance.get()).MemoryBytes();
  EXPECT_GT(cache.MemoryBytes(), cold_bytes);
  const ls::ConceptCacheStats before = cache.stats();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.FindSupport(false, x), nullptr);
  EXPECT_EQ(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.stats().publishes, before.publishes);
  // The next lookup of the key is a miss again.
  ASSERT_TRUE(a.LubAndEval(x).ok());
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(ConceptCacheTest, MemoryBytesGrowsWithEntries) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  for (int v = 0; v < 40; ++v) ASSERT_OK(instance.AddFact("U", {Value(v)}));
  ls::LubContext lub(&instance);
  ls::ConceptCache cache(&instance);
  size_t bytes = cache.MemoryBytes();
  ls::ConceptCacheOverlay a(&cache, false, &lub);
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(a.LubAndEval(a.KeyOf({Value(v)})).ok());
    EXPECT_GT(cache.MemoryBytes(), bytes);
    bytes = cache.MemoryBytes();
  }
  // π_a(U) holds all 40 constants: its dense mirror is built on the first
  // membership probe, and the memory walk sees it.
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* column,
                       a.LubAndEval(a.KeyOf({Value(0), Value(1)})));
  ASSERT_FALSE(column->ext->has_bitmap());
  bytes = cache.MemoryBytes();
  EXPECT_TRUE(column->ext->ContainsId(instance.pool().Lookup(Value(7))));
  ASSERT_TRUE(column->ext->has_bitmap());
  EXPECT_GT(cache.MemoryBytes(), bytes);
}

TEST(ConceptCacheTest, SessionAccumulatesHitsAcrossRequests) {
  Fixture f = MakeFixture(4242);
  ASSERT_OK_AND_ASSIGN(explain::ExplainSession session,
                       explain::ExplainSession::BindWithAnswers(
                           f.instance.get(), f.wni.answers));
  ASSERT_TRUE(session.EnumerateMges(f.wni.missing).ok());
  ls::ConceptCacheStats first = session.CacheStats();
  EXPECT_GT(first.publishes, 0u);
  // The repeat request replays the same support sets against the memo:
  // every lub the first request computed is now a hit.
  ASSERT_TRUE(session.EnumerateMges(f.wni.missing).ok());
  ls::ConceptCacheStats second = session.CacheStats();
  EXPECT_GT(second.shared_hits, first.shared_hits);
  EXPECT_EQ(second.misses, first.misses);  // nothing recomputed
  EXPECT_GT(session.MemoryUsage().shared_cache_bytes, 0u);
}

TEST(ConceptCacheTest, SharedHitsAtEightThreads) {
  Fixture f = MakeFixture(1337);
  par::SetNumThreads(8);
  ASSERT_OK_AND_ASSIGN(explain::ExplainSession session,
                       explain::ExplainSession::BindWithAnswers(
                           f.instance.get(), f.wni.answers));
  ASSERT_TRUE(session.EnumerateMges(f.wni.missing).ok());
  ASSERT_TRUE(session.EnumerateMges(f.wni.missing).ok());
  ls::ConceptCacheStats stats = session.CacheStats();
  EXPECT_GT(stats.shared_hits, 0u);
  par::SetNumThreads(0);
}

TEST(ConceptCacheTest, EnumerateStatsReportCacheTraffic) {
  Fixture f = MakeFixture(99);
  par::SetNumThreads(1);
  explain::EnumerateStats stats;
  ASSERT_TRUE(explain::EnumerateAllMges(f.wni, {}, &stats).ok());
  // A run-local cache still counts misses, and every repeated support set
  // within the run is a hit.
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  par::SetNumThreads(0);
}

TEST(ConceptCacheTest, RewarmClearsEntriesButKeepsCounters) {
  Fixture f = MakeFixture(7);
  ASSERT_OK_AND_ASSIGN(explain::ExplainSession session,
                       explain::ExplainSession::BindWithAnswers(
                           f.instance.get(), f.wni.answers));
  ASSERT_TRUE(session.EnumerateMges(f.wni.missing).ok());
  ls::ConceptCacheStats before = session.CacheStats();
  EXPECT_GT(before.publishes, 0u);
  // Mutate the instance with a value new to R0's first column: the next
  // request rebuilds the warm state and the cache must not serve
  // extensions of the stale contents.
  const std::vector<Value>& adom = f.instance->ActiveDomain();
  ASSERT_OK(f.instance->AddFact("R0", {Value("fresh"), adom[1]}));
  auto r = session.EnumerateMges(f.wni.missing);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ls::ConceptCacheStats after = session.CacheStats();
  // The rewarm dropped the entries: the repeat request recomputes (and
  // records) its lubs, and the counters carried on from before.
  EXPECT_GT(after.misses, before.misses);
  EXPECT_GT(after.publishes, before.publishes);
  EXPECT_EQ(session.rewarm_counts().kept, 0u);
}

TEST(ConceptCacheTest, ColumnStableRewarmKeepsEntries) {
  Fixture f = MakeFixture(7);
  ASSERT_OK_AND_ASSIGN(explain::ExplainSession session,
                       explain::ExplainSession::BindWithAnswers(
                           f.instance.get(), f.wni.answers));
  ASSERT_TRUE(session.EnumerateMges(f.wni.missing).ok());
  ls::ConceptCacheStats before = session.CacheStats();
  EXPECT_GT(before.publishes, 0u);
  // A new R0 row whose values both columns of R0 already hold: every
  // distinct column stays as it was, so the re-warm keeps the entries.
  std::vector<Value> col0, col1;
  for (const Tuple& t : f.instance->Relation("R0")) {
    col0.push_back(t[0]);
    col1.push_back(t[1]);
  }
  std::optional<Tuple> hole;
  for (size_t i = 0; i < col0.size() && !hole; ++i) {
    for (size_t j = 0; j < col1.size() && !hole; ++j) {
      if (!f.instance->Contains("R0", {col0[i], col1[j]})) {
        hole = Tuple{col0[i], col1[j]};
      }
    }
  }
  ASSERT_TRUE(hole.has_value());
  const uint64_t version = f.instance->version();
  ASSERT_OK(f.instance->AddFact("R0", *hole));
  ASSERT_NE(f.instance->version(), version);
  ASSERT_OK_AND_ASSIGN(std::vector<explain::LsExplanation> kept,
                       session.EnumerateMges(f.wni.missing));
  ls::ConceptCacheStats after = session.CacheStats();
  EXPECT_EQ(session.rewarm_counts().kept, 1u);
  EXPECT_EQ(after.publishes, before.publishes);  // nothing recomputed
  EXPECT_EQ(after.misses, before.misses);        // every lub served warm
  // The kept entries serve what a fresh binding computes.
  ASSERT_OK_AND_ASSIGN(explain::ExplainSession fresh,
                       explain::ExplainSession::BindWithAnswers(
                           f.instance.get(), f.wni.answers));
  ASSERT_OK_AND_ASSIGN(std::vector<explain::LsExplanation> want,
                       fresh.EnumerateMges(f.wni.missing));
  EXPECT_EQ(kept, want);
}

}  // namespace
}  // namespace whynot
