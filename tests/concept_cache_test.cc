// Cache-equivalence gate for the shared concept-evaluation cache (the
// lub+eval memo the derived searches publish into): a session serving
// repeated requests through its shared ConceptCache must produce
// bit-identical outputs, deterministic stats, and errors as the one-shot
// entry points running on per-call-local caches — at every thread count.
// The cache counters themselves are observability only (the shared/local
// hit split is thread-dependent) and are deliberately NOT compared.

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
    options.incremental.with_selections = with_selections;
    options.enumerate.with_selections = with_selections;
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
  return f;
}

TEST(ConceptCacheTest, MissThenLocalHitThenPublishedHit) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::LubContext lub(f.instance.get());
  ls::ConceptCacheOverlay a(&cache, /*with_selections=*/false, &lub);
  ls::SupportKey x = a.KeyOf({Value(1), Value(2)});
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* first, a.LubAndEval(x));
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* again, a.LubAndEval(x));
  EXPECT_EQ(first, again);  // one address per key per overlay
  EXPECT_GT(a.pending(), 0u);
  cache.Publish(&a);
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().local_hits, 1u);
  EXPECT_GT(cache.stats().publishes, 0u);
  EXPECT_GT(cache.size(), 0u);

  // A fresh overlay sees the published entry.
  ls::ConceptCacheOverlay b(&cache, /*with_selections=*/false, &lub);
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* hit, b.LubAndEval(x));
  cache.Publish(&b);
  EXPECT_EQ(cache.stats().shared_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(hit->concept.ToString(), first->concept.ToString());
  EXPECT_EQ(hit->ext->values(), first->ext->values());
}

TEST(ConceptCacheTest, TransientProbesServeTiersWithoutRecording) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::LubContext lub(f.instance.get());

  // Cold transient probe: computes the lub and records only the
  // concept-keyed eval tier — never a support entry. (With selections:
  // the selection-free flavor keys by signature, and memoizes every
  // probe; see SelectionFreeSupportsShareOneEntryPerSignature.)
  ls::ConceptCacheOverlay a(&cache, /*with_selections=*/true, &lub);
  ls::SupportKey x = a.KeyOf({Value(1), Value(2)});
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ls::Extension> cold,
                       a.LubExtTransient(x));
  size_t pending_after_first = a.pending();
  EXPECT_GT(pending_after_first, 0u);  // the eval-tier record
  // Repeating the probe recomputes the lub but lands on the same memoized
  // extension object — address-stable for the overlay's lifetime, which
  // the cover-bitmap identity keying requires.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ls::Extension> again,
                       a.LubExtTransient(x));
  EXPECT_EQ(cold.get(), again.get());
  EXPECT_EQ(a.pending(), pending_after_first);  // nothing new recorded
  cache.Publish(&a);
  EXPECT_EQ(cache.FindSupport(true, x), nullptr);  // no support entry
  EXPECT_EQ(cache.stats().misses, 2u);

  // A full LubAndEval of the same key shares the published evaluation
  // (same extension object), and once it publishes the support entry a
  // fresh overlay's transient probe serves it from the published tier.
  ls::ConceptCacheOverlay b(&cache, /*with_selections=*/true, &lub);
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* entry, b.LubAndEval(x));
  EXPECT_EQ(entry->ext.get(), cold.get());
  cache.Publish(&b);
  ls::ConceptCacheOverlay c(&cache, /*with_selections=*/true, &lub);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ls::Extension> warm,
                       c.LubExtTransient(x));
  EXPECT_EQ(warm.get(), entry->ext.get());
  cache.Publish(&c);
  EXPECT_GT(cache.stats().shared_hits, 0u);
}

TEST(ConceptCacheTest, SelectionFreeSupportsShareOneEntryPerSignature) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::LubContext lub(f.instance.get());
  const ValuePool& pool = f.instance->pool();

  // 0, 1 and 2 occur in R.0, R.1 and U.0 alike, so every pair of them has
  // one signature, one key and one lub; 3 misses R.1.
  ls::ConceptCacheOverlay a(&cache, /*with_selections=*/false, &lub);
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
  EXPECT_EQ(entry->concept, lub.LubSelectionFree({Value(1), Value(2)}));
  // A selection-free probe records its key, so a second support with the
  // same signature is a local hit on the same entry.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ls::Extension> probed,
                       a.LubExtTransient(a.KeyOf({Value(1), Value(2)})));
  EXPECT_EQ(probed.get(), entry->ext.get());
  // A value outside the pool empties the signature: the lub is ⊤.
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* top,
                       a.LubAndEval(a.KeyOf({Value(1), Value("nowhere")})));
  EXPECT_TRUE(top->concept.IsTop());
  cache.Publish(&a);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().local_hits, 1u);
  EXPECT_EQ(cache.FindSupport(false, k01), entry);
}

TEST(ConceptCacheTest, PromoteLastProbeMatchesLubAndEval) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::LubContext lub(f.instance.get());

  // Promoting a cold probe records the support entry without recomputing:
  // the entry's extension is the very object the probe returned, and its
  // concept equals what an independent LubAndEval derives.
  ls::ConceptCacheOverlay a(&cache, /*with_selections=*/false, &lub);
  ls::SupportKey x = a.KeyOf({Value(1), Value(2)});
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ls::Extension> probed,
                       a.LubExtTransient(x));
  const ls::ConceptCache::Entry* promoted = a.PromoteLastProbe(x);
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(promoted->ext.get(), probed.get());
  cache.Publish(&a);
  const ls::ConceptCache::Entry* published = cache.FindSupport(false, x);
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published, promoted);

  ls::LubContext lub_b(f.instance.get());
  ls::ConceptCacheOverlay b(&cache, /*with_selections=*/false, &lub_b);
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* independent,
                       b.LubAndEval(x));
  EXPECT_EQ(independent, promoted);  // served from the published tier
  EXPECT_EQ(independent->concept, promoted->concept);

  // Promoting a probe served from the published tier memoizes that entry
  // locally (same address — identity keying unaffected) and records no
  // duplicate publish.
  ls::LubContext lub_c(f.instance.get());
  ls::ConceptCacheOverlay c(&cache, /*with_selections=*/false, &lub_c);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ls::Extension> warm,
                       c.LubExtTransient(x));
  EXPECT_EQ(warm.get(), promoted->ext.get());
  EXPECT_EQ(c.PromoteLastProbe(x), promoted);
  EXPECT_EQ(c.pending(), 0u);

  // Promoting a probe that hit the local support map is a no-op returning
  // the same entry.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ls::Extension> local_hit,
                       c.LubExtTransient(x));
  EXPECT_EQ(local_hit.get(), promoted->ext.get());
  EXPECT_EQ(c.PromoteLastProbe(x), promoted);
  cache.Publish(&b);
  cache.Publish(&c);
}

TEST(ConceptCacheTest, FirstPublishWins) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::LubContext lub_a(f.instance.get());
  ls::LubContext lub_b(f.instance.get());
  // Two overlays miss on the same key during one "wave"; the first one
  // published in slot order wins, the second is dropped (not an eviction —
  // the key is already present).
  ls::ConceptCacheOverlay a(&cache, false, &lub_a);
  ls::ConceptCacheOverlay b(&cache, false, &lub_b);
  ls::SupportKey x = a.KeyOf({Value(0), Value(3)});
  EXPECT_EQ(b.KeyOf({Value(0), Value(3)}), x);  // contexts agree on keys
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* ea, a.LubAndEval(x));
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* eb, b.LubAndEval(x));
  EXPECT_NE(ea, eb);
  EXPECT_EQ(cache.stats().misses, 0u);  // folded only at publish
  cache.Publish(&a);
  cache.Publish(&b);
  EXPECT_EQ(cache.stats().misses, 2u);
  const ls::ConceptCache::Entry* published = cache.FindSupport(false, x);
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published, ea);  // a's entry, published first, is canonical
  // b's pointer remains valid and value-identical for b's lifetime.
  EXPECT_EQ(eb->ext->values(), ea->ext->values());
}

TEST(ConceptCacheTest, SelectionFlavorsAreDistinctTiers) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::LubContext lub(f.instance.get());
  std::vector<Value> x = {Value(1), Value(2)};

  ls::ConceptCacheOverlay free_overlay(&cache, false, &lub);
  ls::ConceptCacheOverlay sel_overlay(&cache, true, &lub);
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* e_free,
                       free_overlay.LubAndEval(free_overlay.KeyOf(x)));
  cache.Publish(&free_overlay);
  // The with-selections tier must not serve the selection-free entry.
  EXPECT_EQ(cache.FindSupport(true, sel_overlay.KeyOf(x)), nullptr);
  EXPECT_EQ(cache.FindSupport(false, free_overlay.KeyOf(x)), e_free);
}

TEST(ConceptCacheTest, CapacityRejectionCountsEvictions) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCacheOptions options;
  options.max_bytes = 1;  // everything rejected (call-local covers only)
  ls::ConceptCache cache(f.instance.get(), options);
  ls::LubContext lub(f.instance.get());
  ls::ConceptCacheOverlay a(&cache, false, &lub);
  ls::SupportKey x = a.KeyOf({Value(0), Value(1)});
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* entry, a.LubAndEval(x));
  cache.Publish(&a);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.FindSupport(false, x), nullptr);
  // The rejected entry stays owned (and served) by the overlay.
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* again, a.LubAndEval(x));
  EXPECT_EQ(entry, again);
}

TEST(ConceptCacheTest, ClearDropsEntriesKeepsCounters) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::LubContext lub(f.instance.get());
  ls::ConceptCacheOverlay a(&cache, false, &lub);
  ls::SupportKey x = a.KeyOf({Value(2), Value(3)});
  ASSERT_OK_AND_ASSIGN(const ls::ConceptCache::Entry* entry, a.LubAndEval(x));
  (void)entry;
  cache.Publish(&a);
  size_t published = cache.size();
  EXPECT_GT(published, 0u);
  EXPECT_GT(cache.MemoryBytes(), 0u);
  size_t misses_before = cache.stats().misses;
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, misses_before);
  EXPECT_GE(cache.stats().evictions, published);
  EXPECT_EQ(cache.FindSupport(false, x), nullptr);
}

TEST(ConceptCacheTest, MemoryBytesGrowsWithPublishedEntries) {
  UnitFixture f = MakeUnitFixture();
  ls::ConceptCache cache(f.instance.get());
  ls::LubContext lub(f.instance.get());
  size_t empty_bytes = cache.MemoryBytes();
  ls::ConceptCacheOverlay a(&cache, false, &lub);
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(a.LubAndEval(a.KeyOf({Value(v), Value((v + 1) % 4)})).ok());
  }
  cache.Publish(&a);
  EXPECT_GT(cache.MemoryBytes(), empty_bytes);
}

TEST(ConceptCacheTest, SessionAccumulatesSharedHitsAcrossRequests) {
  Fixture f = MakeFixture(4242);
  ASSERT_OK_AND_ASSIGN(explain::ExplainSession session,
                       explain::ExplainSession::BindWithAnswers(
                           f.instance.get(), f.wni.answers));
  ASSERT_TRUE(session.EnumerateMges(f.wni.missing).ok());
  ls::ConceptCacheStats first = session.CacheStats();
  EXPECT_GT(first.publishes, 0u);
  // The repeat request replays the same support sets against the
  // published tier: every lub the first request computed is now a hit.
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
  // A run-local cache still counts misses/publishes; with one overlay
  // every repeated support set is a local or shared hit.
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_publishes, 0u);
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
  // Mutate the instance: the next request rebuilds the warm state and the
  // cache must not serve extensions of the stale contents.
  const std::vector<Value>& adom = f.instance->ActiveDomain();
  ASSERT_OK(f.instance->AddFact("R0", {adom[0], adom[1]}));
  auto r = session.EnumerateMges(f.wni.missing);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ls::ConceptCacheStats after = session.CacheStats();
  EXPECT_GE(after.evictions, before.publishes);  // rewarm dropped them
  EXPECT_GE(after.misses, before.misses);
}

}  // namespace
}  // namespace whynot
