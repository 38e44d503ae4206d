// Determinism gate for the parallel execution layer: every explanation
// search must produce bit-identical results — including enumeration
// order, witnesses, stats, and error outcomes — at WHYNOT_THREADS ∈
// {1, 2, 8}. The 1-thread run takes the serial code paths verbatim and
// serves as the reference; the multi-thread runs exercise the one pooled
// path, the odometer shard of ParallelFilterSpace, with its deterministic
// index-ordered merge. Every other path is serial at every thread count,
// so the warm-up and materialize cases also check their results against
// literal readings computed here.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "test_util.h"
#include "whynot/common/algorithm.h"

namespace whynot {
namespace {

using workload::Rng;

constexpr int kThreadCounts[] = {1, 2, 8};

/// Runs `fn` at each thread count and asserts every result equals the
/// 1-thread reference. `fn` must rebuild all per-run state itself.
template <typename T>
void ExpectSameAtAllThreadCounts(const std::function<T()>& fn,
                                 const std::string& what) {
  std::optional<T> reference;
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    T got = fn();
    if (!reference.has_value()) {
      reference = std::move(got);
    } else {
      EXPECT_TRUE(got == *reference)
          << what << " diverged at WHYNOT_THREADS=" << threads;
    }
  }
  par::SetNumThreads(0);  // back to the environment / hardware default
}

struct ExternalFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  explain::WhyNotInstance wni;
};

ExternalFixture MakeExternalFixture(uint64_t seed) {
  ExternalFixture f;
  auto schema = workload::RandomSchema(2, {2, 2});
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance =
      workload::RandomInstance(&f.schema, /*rows_per_relation=*/30,
                               /*domain=*/12, seed);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());

  const std::vector<Value>& adom = f.instance->ActiveDomain();
  auto ontology = workload::RandomTreeOntology(adom, /*num_concepts=*/40,
                                               seed ^ 0x9e3779b9ull);
  EXPECT_TRUE(ontology.ok());
  f.ontology = std::move(ontology).value();

  Rng rng(seed ^ 0x51ull);
  f.wni.instance = f.instance.get();
  size_t m = 2;
  f.wni.missing = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
  for (int a = 0; a < 14; ++a) {
    Tuple t;
    for (size_t j = 0; j < m; ++j) t.push_back(adom[rng.Below(adom.size())]);
    if (t != f.wni.missing) f.wni.answers.push_back(std::move(t));
  }
  SortUnique(&f.wni.answers);
  return f;
}

/// Random extensions over `domain` under random ⊑ edges: an ontology
/// the instance is (almost surely) inconsistent with, at several pairs.
std::unique_ptr<onto::ExplicitOntology> RandomInconsistentOntology(
    const std::vector<Value>& domain, uint64_t seed) {
  constexpr uint64_t kConcepts = 24;
  Rng rng(seed);
  auto o = std::make_unique<onto::ExplicitOntology>();
  for (uint64_t c = 0; c < kConcepts; ++c) {
    std::string name = "R" + std::to_string(c);
    std::vector<Value> ext;
    for (const Value& v : domain) {
      if (rng.Chance(1, 2)) ext.push_back(v);
    }
    o->AddConcept(name);
    o->SetExtension(name, std::move(ext));
  }
  for (int e = 0; e < 12; ++e) {
    o->AddSubsumption("R" + std::to_string(rng.Below(kConcepts)),
                      "R" + std::to_string(rng.Below(kConcepts)));
  }
  EXPECT_TRUE(o->Finalize().ok());
  return o;
}

/// Ext(a) ⊆ Ext(b), element by element.
bool LiteralSubset(const onto::ExtSet& a, const onto::ExtSet& b) {
  if (b.is_all()) return true;
  if (a.is_all()) return false;
  for (ValueId id : a.ids()) {
    if (std::find(b.ids().begin(), b.ids().end(), id) == b.ids().end()) {
      return false;
    }
  }
  return true;
}

/// Checks ConceptsContaining against {c : id ∈ Ext(c)} and
/// CheckConsistent against the lex-least pair (c1, c2) with c1 ⊑ c2 and
/// Ext(c1) ⊄ Ext(c2), both by plain loops over the warm table. Returns
/// whether such a pair exists.
bool ExpectLiteralScans(onto::BoundOntology* bound,
                        const std::vector<Value>& probes) {
  bound->WarmExtensions();
  const int32_t n = bound->NumConcepts();
  for (const Value& v : probes) {
    ValueId id = bound->pool().Intern(v);
    std::vector<onto::ConceptId> want;
    for (onto::ConceptId c = 0; c < n; ++c) {
      const onto::ExtSet& e = bound->Ext(c);
      if (e.is_all() || std::find(e.ids().begin(), e.ids().end(), id) !=
                            e.ids().end()) {
        want.push_back(c);
      }
    }
    EXPECT_EQ(bound->ConceptsContaining(id), want) << v.ToString();
  }
  std::optional<std::pair<onto::ConceptId, onto::ConceptId>> first;
  for (onto::ConceptId c1 = 0; c1 < n && !first.has_value(); ++c1) {
    for (onto::ConceptId c2 = 0; c2 < n; ++c2) {
      if (c1 != c2 && bound->Subsumes(c1, c2) &&
          !LiteralSubset(bound->Ext(c1), bound->Ext(c2))) {
        first = std::make_pair(c1, c2);
        break;
      }
    }
  }
  Status st = bound->CheckConsistent();
  if (!first.has_value()) {
    EXPECT_TRUE(st.ok()) << st.ToString();
    return false;
  }
  std::string a = bound->ConceptName(first->first);
  std::string b = bound->ConceptName(first->second);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find(": " + a + " ⊑ " + b + " but ext(" + a +
                              ") ⊄ ext(" + b + ")"),
            std::string::npos)
      << st.ToString() << " does not name " << a << " ⊑ " << b;
  return true;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminismTest, WarmupAndConceptsContaining) {
  ExternalFixture f = MakeExternalFixture(GetParam());
  std::unique_ptr<onto::ExplicitOntology> inconsistent =
      RandomInconsistentOntology(f.instance->ActiveDomain(),
                                 GetParam() ^ 0x1badull);
  ExpectSameAtAllThreadCounts<std::vector<std::string>>(
      [&] {
        onto::BoundOntology bound(f.ontology.get(), f.instance.get());
        bound.WarmExtensions();
        // Serialize pool-dependent state: every extension as ids plus the
        // concepts containing each missing-tuple constant. Byte-identical
        // warm-up means identical pool ids, so the id vectors must match.
        std::vector<std::string> out;
        for (onto::ConceptId c = 0; c < bound.NumConcepts(); ++c) {
          const onto::ExtSet& e = bound.Ext(c);
          std::string s = e.is_all() ? "all" : "";
          if (!e.is_all()) {
            for (ValueId id : e.ids()) s += std::to_string(id) + ",";
          }
          out.push_back(std::move(s));
        }
        for (const Value& v : f.wni.missing) {
          std::string s;
          ValueId id = bound.pool().Intern(v);
          for (onto::ConceptId c : bound.ConceptsContaining(id)) {
            s += std::to_string(c) + ",";
          }
          out.push_back(std::move(s));
        }
        out.push_back(bound.CheckConsistent().ToString());
        EXPECT_FALSE(ExpectLiteralScans(&bound, f.wni.missing));
        onto::BoundOntology broken(inconsistent.get(), f.instance.get());
        EXPECT_TRUE(ExpectLiteralScans(&broken, f.instance->ActiveDomain()));
        out.push_back(broken.CheckConsistent().ToString());
        return out;
      },
      "warm-up / ConceptsContaining / CheckConsistent");
}

TEST_P(ParallelDeterminismTest, ExternalSearches) {
  ExternalFixture f = MakeExternalFixture(GetParam());
  ExpectSameAtAllThreadCounts<bool>(
      [&] {
        onto::BoundOntology bound(f.ontology.get(), f.instance.get());
        explain::Explanation witness;
        auto r = explain::ExistsExplanation(&bound, f.wni, &witness);
        EXPECT_TRUE(r.ok());
        return r.ok() && r.value();
      },
      "ExistsExplanation");
  ExpectSameAtAllThreadCounts<std::vector<explain::Explanation>>(
      [&] {
        onto::BoundOntology bound(f.ontology.get(), f.instance.get());
        auto r = explain::PrunedSearchAllMge(&bound, f.wni);
        EXPECT_TRUE(r.ok());
        return r.ok() ? r.value() : std::vector<explain::Explanation>{};
      },
      "PrunedSearchAllMge");
  ExpectSameAtAllThreadCounts<std::string>(
      [&] {
        onto::BoundOntology bound(f.ontology.get(), f.instance.get());
        auto r = explain::ExactCardMaximal(&bound, f.wni);
        EXPECT_TRUE(r.ok());
        if (!r.ok() || !r.value().has_value()) return std::string("none");
        std::string s = r.value()->degree.ToString() + ":";
        for (onto::ConceptId c : r.value()->explanation) {
          s += std::to_string(c) + ",";
        }
        return s;
      },
      "ExactCardMaximal");
  ExpectSameAtAllThreadCounts<std::string>(
      [&] {
        onto::BoundOntology bound(f.ontology.get(), f.instance.get());
        auto r = explain::GreedyCardinalityClimb(&bound, f.wni);
        EXPECT_TRUE(r.ok());
        if (!r.ok() || !r.value().has_value()) return std::string("none");
        std::string s = r.value()->degree.ToString() + ":";
        for (onto::ConceptId c : r.value()->explanation) {
          s += std::to_string(c) + ",";
        }
        return s;
      },
      "GreedyCardinalityClimb");
}

TEST_P(ParallelDeterminismTest, CheckMgeAndWhyExternal) {
  ExternalFixture f = MakeExternalFixture(GetParam());
  // Candidates: the serial exhaustive MGEs plus arbitrary tuples.
  par::SetNumThreads(1);
  std::vector<explain::Explanation> candidates;
  {
    onto::BoundOntology bound(f.ontology.get(), f.instance.get());
    auto r = explain::PrunedSearchAllMge(&bound, f.wni);
    ASSERT_TRUE(r.ok());
    candidates = r.value();
  }
  Rng rng(GetParam() ^ 0xc0ffeeull);
  int n = 40;
  for (int i = 0; i < 6; ++i) {
    candidates.push_back(
        {static_cast<onto::ConceptId>(rng.Below(static_cast<uint64_t>(n))),
         static_cast<onto::ConceptId>(rng.Below(static_cast<uint64_t>(n)))});
  }
  ExpectSameAtAllThreadCounts<std::vector<int>>(
      [&] {
        std::vector<int> verdicts;
        for (const explain::Explanation& e : candidates) {
          onto::BoundOntology bound(f.ontology.get(), f.instance.get());
          auto r = explain::CheckMgeExternal(&bound, f.wni, e);
          EXPECT_TRUE(r.ok());
          verdicts.push_back(r.ok() && r.value() ? 1 : 0);
        }
        return verdicts;
      },
      "CheckMgeExternal");

  // Why-instance over the same world: explain a *present* tuple.
  ASSERT_FALSE(f.wni.answers.empty());
  explain::WhyInstance wi;
  wi.instance = f.instance.get();
  wi.answers = f.wni.answers;
  wi.present = f.wni.answers.front();
  ExpectSameAtAllThreadCounts<std::vector<explain::Explanation>>(
      [&] {
        onto::BoundOntology bound(f.ontology.get(), f.instance.get());
        explain::ExhaustiveOptions o;
        o.max_candidates = 2000000;
        auto r = explain::AllMostGeneralWhyExplanations(&bound, wi, o);
        EXPECT_TRUE(r.ok());
        return r.ok() ? r.value() : std::vector<explain::Explanation>{};
      },
      "AllMostGeneralWhyExplanations");
}

std::string RenderIds(const std::vector<explain::Explanation>& es) {
  std::string s;
  for (const explain::Explanation& e : es) {
    for (onto::ConceptId c : e) s += std::to_string(c) + ",";
    s += ";";
  }
  return s;
}

std::string RenderLs(const std::vector<explain::LsExplanation>& es) {
  std::string s;
  for (const explain::LsExplanation& e : es) {
    for (const ls::LsConcept& c : e) s += c.ToString() + "|";
    s += ";";
  }
  return s;
}

TEST_P(ParallelDeterminismTest, SessionServedRequests) {
  // One warm session over given answers (not a query) with an external
  // ontology serves derived and external requests in turn: each result
  // must equal the one-shot entry point's at the same thread count, and
  // the whole sequence the 1-thread run's. The session path additionally
  // runs the session-owned cover tables and repeated requests over one
  // warm state.
  ExternalFixture f = MakeExternalFixture(GetParam() ^ 0x5e55ull);
  ExpectSameAtAllThreadCounts<std::vector<std::string>>(
      [&] {
        std::vector<std::string> out;
        auto session = explain::ExplainSession::BindWithAnswers(
            f.instance.get(), f.wni.answers, f.ontology.get());
        EXPECT_TRUE(session.ok());
        if (!session.ok()) return out;
        explain::ExplainSession& s = session.value();
        onto::BoundOntology bound(f.ontology.get(), f.instance.get());

        auto whynot = s.WhyNot(f.wni.missing);
        auto want_whynot = explain::IncrementalSearch(f.wni, {});
        EXPECT_TRUE(whynot.ok() && want_whynot.ok());
        if (!whynot.ok() || !want_whynot.ok()) return out;
        EXPECT_EQ(whynot.value(), want_whynot.value());
        out.push_back(RenderLs({whynot.value()}));

        explain::EnumerateStats stats, want_stats;
        auto mges = s.EnumerateMges(f.wni.missing, &stats);
        auto want_mges = explain::EnumerateAllMges(f.wni, {}, &want_stats);
        EXPECT_TRUE(mges.ok() && want_mges.ok());
        if (!mges.ok() || !want_mges.ok()) return out;
        EXPECT_EQ(mges.value(), want_mges.value());
        EXPECT_EQ(stats.nodes_expanded, want_stats.nodes_expanded);
        out.push_back(RenderLs(mges.value()) + "#" +
                      std::to_string(stats.nodes_expanded));

        auto ext = s.ExhaustiveMges(f.wni.missing);
        auto want_ext = explain::PrunedSearchAllMge(&bound, f.wni);
        EXPECT_TRUE(ext.ok() && want_ext.ok());
        if (!ext.ok() || !want_ext.ok()) return out;
        EXPECT_EQ(ext.value(), want_ext.value());
        out.push_back(RenderIds(ext.value()));

        auto greedy = s.GreedyCard(f.wni.missing);
        auto want_greedy = explain::GreedyCardinalityClimb(&bound, f.wni);
        EXPECT_TRUE(greedy.ok() && want_greedy.ok());
        if (!greedy.ok() || !want_greedy.ok()) return out;
        EXPECT_EQ(greedy.value().has_value(), want_greedy.value().has_value());
        if (greedy.value().has_value() && want_greedy.value().has_value()) {
          EXPECT_EQ(greedy.value()->explanation,
                    want_greedy.value()->explanation);
          out.push_back(greedy.value()->degree.ToString() + ":" +
                        RenderIds({greedy.value()->explanation}));
        } else {
          out.push_back("none");
        }
        return out;
      },
      "session-served requests");
}

struct DerivedFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  explain::WhyNotInstance wni;
  explain::WhyInstance wi;
};

DerivedFixture MakeDerivedFixture(uint64_t seed) {
  DerivedFixture f;
  auto schema = workload::RandomSchema(3, {2, 2, 1});
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::RandomInstance(&f.schema, /*rows_per_relation=*/14,
                                           /*domain=*/8, seed);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());

  Rng rng(seed ^ 0x77ull);
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

TEST_P(ParallelDeterminismTest, DerivedSearches) {
  DerivedFixture f = MakeDerivedFixture(GetParam());
  // EnumerateAllMges: outputs *and* stats (node accounting, delays) must
  // be identical at every thread count (the enumeration runs serially).
  ExpectSameAtAllThreadCounts<std::string>(
      [&] {
        explain::EnumerateStats stats;
        auto r = explain::EnumerateAllMges(f.wni, {}, &stats);
        EXPECT_TRUE(r.ok());
        std::string s;
        if (r.ok()) {
          for (const explain::LsExplanation& e : r.value()) {
            for (const ls::LsConcept& c : e) s += c.ToString() + "|";
            s += ";";
          }
        }
        s += "#" + std::to_string(stats.nodes_expanded) + "/" +
             std::to_string(stats.duplicate_outputs) + "/" +
             std::to_string(stats.visited_hits) + "/" +
             std::to_string(stats.max_delay);
        return s;
      },
      "EnumerateAllMges");

  // CheckMgeDerived over the enumeration's outputs (all true) and some
  // deliberately non-maximal candidates (nominal-pinned tuples).
  par::SetNumThreads(1);
  std::vector<explain::LsExplanation> candidates;
  {
    auto r = explain::EnumerateAllMges(f.wni, {});
    ASSERT_TRUE(r.ok());
    candidates = r.value();
  }
  candidates.push_back(explain::LsExplanation{
      ls::LsConcept::Nominal(f.wni.missing[0]),
      ls::LsConcept::Nominal(f.wni.missing[1])});
  ExpectSameAtAllThreadCounts<std::vector<int>>(
      [&] {
        std::vector<int> verdicts;
        ls::LubContext ctx(f.instance.get());
        for (const explain::LsExplanation& e : candidates) {
          auto r = explain::CheckMgeDerived(f.wni, e, false, &ctx);
          EXPECT_TRUE(r.ok());
          verdicts.push_back(r.ok() && r.value() ? 1 : 0);
        }
        return verdicts;
      },
      "CheckMgeDerived");

  // Why duals: the incremental search and the MGE check are both serial;
  // their outputs must not depend on the pool width around them.
  ExpectSameAtAllThreadCounts<std::string>(
      [&] {
        auto r = explain::IncrementalWhySearch(f.wi, false);
        EXPECT_TRUE(r.ok());
        std::string s;
        if (r.ok()) {
          for (const ls::LsConcept& c : r.value()) s += c.ToString() + "|";
        }
        return s;
      },
      "IncrementalWhySearch");
  std::vector<explain::LsExplanation> why_candidates;
  {
    par::SetNumThreads(1);
    auto mge = explain::IncrementalWhySearch(f.wi, false);
    ASSERT_TRUE(mge.ok());
    why_candidates.push_back(mge.value());
  }
  why_candidates.push_back(explain::LsExplanation{
      ls::LsConcept::Nominal(f.wi.present[0]),
      ls::LsConcept::Nominal(f.wi.present[1])});
  ExpectSameAtAllThreadCounts<std::vector<int>>(
      [&] {
        std::vector<int> verdicts;
        ls::LubContext ctx(f.instance.get());
        for (const explain::LsExplanation& e : why_candidates) {
          auto r = explain::CheckWhyMgeDerived(f.wi, e, false, &ctx);
          EXPECT_TRUE(r.ok());
          verdicts.push_back(r.ok() && r.value() ? 1 : 0);
        }
        return verdicts;
      },
      "CheckWhyMgeDerived");
}

TEST_P(ParallelDeterminismTest, MaterializeAndClosure) {
  DerivedFixture f = MakeDerivedFixture(GetParam() ^ 0xabcdull);
  // Materialized OI[K]: the concept list and the subsumption matrix of
  // the extension-class dedup and the instance-mode matrix build, checked
  // against the concepts' own extensions: Subsumes(c, d) iff
  // Eval(c) ⊆ Eval(d), and no two concepts share an extension.
  ExpectSameAtAllThreadCounts<std::vector<std::string>>(
      [&] {
        ls::MaterializeOptions options;
        options.fragment = ls::Fragment::kSelectionFree;
        options.max_concepts = 4000;
        auto r = ls::LsOntology::Materialize(f.instance.get(), {}, options);
        EXPECT_TRUE(r.ok());
        std::vector<std::string> out;
        if (!r.ok()) return out;
        const ls::LsOntology& onto = *r.value();
        // (is ⊤, members) per concept, from the boxed extension.
        std::vector<std::pair<bool, std::set<Value>>> ext;
        for (const ls::LsConcept& c : onto.concepts()) {
          ls::Extension e = ls::Eval(c, *f.instance);
          ext.emplace_back(e.all, e.all ? std::set<Value>{}
                                        : std::set<Value>(e.values().begin(),
                                                          e.values().end()));
        }
        auto subset = [&](size_t c, size_t d) {
          if (ext[d].first) return true;
          if (ext[c].first) return false;
          for (const Value& v : ext[c].second) {
            if (ext[d].second.count(v) == 0) return false;
          }
          return true;
        };
        for (size_t c = 0; c < ext.size(); ++c) {
          for (size_t d = 0; d < ext.size(); ++d) {
            onto::ConceptId ci = static_cast<onto::ConceptId>(c);
            onto::ConceptId di = static_cast<onto::ConceptId>(d);
            EXPECT_EQ(onto.Subsumes(ci, di), subset(c, d))
                << onto.ConceptName(ci) << " vs " << onto.ConceptName(di);
            if (c < d) {
              EXPECT_FALSE(ext[c] == ext[d])
                  << onto.ConceptName(ci) << " and " << onto.ConceptName(di)
                  << " share an extension";
            }
          }
        }
        for (onto::ConceptId c = 0; c < onto.NumConcepts(); ++c) {
          std::string row = onto.ConceptName(c) + "=";
          for (onto::ConceptId d = 0; d < onto.NumConcepts(); ++d) {
            row += onto.Subsumes(c, d) ? '1' : '0';
          }
          out.push_back(std::move(row));
        }
        return out;
      },
      "LsOntology::Materialize");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest,
                         ::testing::Values(11ull, 137ull, 9001ull));

}  // namespace
}  // namespace whynot
