#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace whynot {
namespace {

using explain::Explanation;

class ExhaustiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = workload::CitiesDataSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::move(schema).value();
    auto instance = workload::CitiesInstance(&schema_);
    ASSERT_TRUE(instance.ok());
    instance_ = std::make_unique<rel::Instance>(std::move(instance).value());
    auto ontology = workload::CitiesOntology();
    ASSERT_TRUE(ontology.ok());
    ontology_ = std::move(ontology).value();
    bound_ = std::make_unique<onto::BoundOntology>(ontology_.get(),
                                                   instance_.get());
    auto wni = explain::MakeWhyNotInstance(instance_.get(),
                                           workload::ConnectedViaQuery(),
                                           {"Amsterdam", "New York"});
    ASSERT_TRUE(wni.ok()) << wni.status().ToString();
    wni_ = std::make_unique<explain::WhyNotInstance>(std::move(wni).value());
  }

  std::string Name(const Explanation& e) {
    return explain::ExplanationToString(*bound_, e);
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<onto::ExplicitOntology> ontology_;
  std::unique_ptr<onto::BoundOntology> bound_;
  std::unique_ptr<explain::WhyNotInstance> wni_;
};

TEST_F(ExhaustiveTest, Example34MostGeneralExplanations) {
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> mges,
                       explain::PrunedSearchAllMge(bound_.get(), *wni_));
  // The paper's E4 = (European-City, US-City) must be among the MGEs; the
  // data additionally admits (City, East-Coast-City) — no answer tuple ends
  // in New York — which Definition 3.3 also makes maximal.
  std::set<std::string> names;
  for (const Explanation& e : mges) names.insert(Name(e));
  EXPECT_TRUE(names.count("(European-City, US-City)") > 0)
      << "MGEs: " << Join(std::vector<std::string>(names.begin(),
                                                   names.end()),
                          " | ");
  EXPECT_TRUE(names.count("(City, East-Coast-City)") > 0);
  EXPECT_EQ(mges.size(), 2u);
}

TEST_F(ExhaustiveTest, PaperExplanationChainE1ToE4) {
  // E1-E4 of Example 3.4 are all explanations, with E4 the most general.
  auto id = [&](const char* name) { return ontology_->FindConcept(name); };
  Explanation e1 = {id("Dutch-City"), id("East-Coast-City")};
  Explanation e2 = {id("Dutch-City"), id("US-City")};
  Explanation e3 = {id("European-City"), id("East-Coast-City")};
  Explanation e4 = {id("European-City"), id("US-City")};
  for (const Explanation& e : {e1, e2, e3, e4}) {
    ASSERT_OK_AND_ASSIGN(bool is_expl,
                         explain::IsExplanation(bound_.get(), *wni_, e));
    EXPECT_TRUE(is_expl) << Name(e);
  }
  // E4 > E2 > E1 and E4 > E3 > E1 (Example 3.4).
  EXPECT_TRUE(explain::StrictlyLessGeneral(*bound_, e2, e4));
  EXPECT_TRUE(explain::StrictlyLessGeneral(*bound_, e1, e2));
  EXPECT_TRUE(explain::StrictlyLessGeneral(*bound_, e3, e4));
  EXPECT_TRUE(explain::StrictlyLessGeneral(*bound_, e1, e3));
  EXPECT_FALSE(explain::LessGeneral(*bound_, e4, e1));
}

TEST_F(ExhaustiveTest, NonExplanationsRejected) {
  auto id = [&](const char* name) { return ontology_->FindConcept(name); };
  // (City, US-City) contains the answer (New York, Santa Cruz).
  ASSERT_OK_AND_ASSIGN(
      bool a, explain::IsExplanation(bound_.get(), *wni_,
                                     {id("City"), id("US-City")}));
  EXPECT_FALSE(a);
  // (US-City, US-City) does not contain the missing tuple (Amsterdam ∉).
  ASSERT_OK_AND_ASSIGN(
      bool b, explain::IsExplanation(bound_.get(), *wni_,
                                     {id("US-City"), id("US-City")}));
  EXPECT_FALSE(b);
}

TEST_F(ExhaustiveTest, OutputsAreExplanationsAndAntichain) {
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> mges,
                       explain::PrunedSearchAllMge(bound_.get(), *wni_));
  for (const Explanation& e : mges) {
    ASSERT_OK_AND_ASSIGN(bool is_expl,
                         explain::IsExplanation(bound_.get(), *wni_, e));
    EXPECT_TRUE(is_expl);
  }
  for (size_t i = 0; i < mges.size(); ++i) {
    for (size_t j = 0; j < mges.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(explain::StrictlyLessGeneral(*bound_, mges[i], mges[j]));
    }
  }
}

TEST_F(ExhaustiveTest, CandidateCapReported) {
  explain::ExhaustiveOptions options;
  options.max_candidates = 3;
  // Pin the odometer: this test is about the raw-product budget check
  // (kAuto would escalate an over-budget space to the frontier instead).
  options.strategy = explain::SearchStrategy::kOdometer;
  Result<std::vector<Explanation>> r =
      explain::PrunedSearchAllMge(bound_.get(), *wni_, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ExhaustiveTest, NoCandidateConceptMeansNoExplanation) {
  // A missing tuple whose first component is in no concept's extension.
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(instance_.get(),
                                  workload::ConnectedViaQuery(),
                                  {"Mars", "New York"}));
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> mges,
                       explain::PrunedSearchAllMge(bound_.get(), wni));
  EXPECT_TRUE(mges.empty());
}

/// Definition 3.2 read literally over the bound extensions: every a_i lies
/// in ext(C_i), and no answer tuple lies in the extension product.
bool LiteralIsExplanation(onto::BoundOntology* bound,
                          const explain::WhyNotInstance& wni,
                          const Explanation& e) {
  auto member = [&](size_t i, const Value& v) {
    return bound->Ext(e[i]).Contains(bound->pool().Intern(v));
  };
  for (size_t i = 0; i < e.size(); ++i) {
    if (!member(i, wni.missing[i])) return false;
  }
  for (const Tuple& t : wni.answers) {
    bool inside = true;
    for (size_t i = 0; i < e.size() && inside; ++i) inside = member(i, t[i]);
    if (inside) return false;
  }
  return true;
}

/// E ≤_O E' of Definition 3.3, pointwise on the ontology's ⊑.
bool LiteralLeq(const onto::BoundOntology& bound, const Explanation& e,
                const Explanation& other) {
  for (size_t i = 0; i < e.size(); ++i) {
    if (!bound.Subsumes(e[i], other[i])) return false;
  }
  return true;
}

/// Property sweep: on random tree ontologies and random answer sets, the
/// search returns exactly the most-general explanations of Definition 3.3,
/// read literally over all concept pairs — the explanations no other
/// explanation strictly exceeds under ≤_O, one per ≤_O-equivalence class —
/// and every explanation is below some output.
class ExhaustiveSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExhaustiveSweepTest, PrunedMatchesDefinitionAndIsComplete) {
  uint64_t seed = GetParam();
  workload::Rng rng(seed);
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  std::vector<Value> domain;
  for (int i = 0; i < 8; ++i) domain.push_back(Value(i));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<onto::ExplicitOntology> ontology,
                       workload::RandomTreeOntology(domain, 9, seed));
  onto::BoundOntology bound(ontology.get(), &instance);

  // Random binary answer set over the domain and a random missing tuple.
  std::vector<Tuple> answers;
  for (int i = 0; i < 6; ++i) {
    answers.push_back({domain[rng.Below(domain.size())],
                       domain[rng.Below(domain.size())]});
  }
  Tuple missing = {domain[rng.Below(domain.size())],
                   domain[rng.Below(domain.size())]};
  auto wni_or = explain::MakeWhyNotInstanceFromAnswers(&instance, answers,
                                                       missing);
  if (!wni_or.ok()) return;  // missing happened to be an answer: skip seed
  const explain::WhyNotInstance& wni = wni_or.value();

  // The reference: all explanations over all concept pairs, then the
  // ≤_O-maximal ones.
  std::vector<Explanation> explanations;
  for (onto::ConceptId c1 = 0; c1 < bound.NumConcepts(); ++c1) {
    for (onto::ConceptId c2 = 0; c2 < bound.NumConcepts(); ++c2) {
      Explanation e = {c1, c2};
      if (LiteralIsExplanation(&bound, wni, e)) explanations.push_back(e);
    }
  }
  std::vector<Explanation> maximal;
  for (const Explanation& e : explanations) {
    bool exceeded = false;
    for (const Explanation& other : explanations) {
      if (LiteralLeq(bound, e, other) && !LiteralLeq(bound, other, e)) {
        exceeded = true;
      }
    }
    if (!exceeded) maximal.push_back(e);
  }

  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> pruned,
                       explain::PrunedSearchAllMge(&bound, wni));
  // Every output is a most-general explanation, and every equivalence
  // class of most-general explanations holds exactly one output.
  for (const Explanation& e : pruned) {
    EXPECT_TRUE(std::find(maximal.begin(), maximal.end(), e) != maximal.end())
        << explain::ExplanationToString(bound, e)
        << " is not most general at seed " << seed;
  }
  for (const Explanation& e : maximal) {
    size_t in_class = 0;
    for (const Explanation& out : pruned) {
      if (LiteralLeq(bound, e, out) && LiteralLeq(bound, out, e)) ++in_class;
    }
    EXPECT_EQ(in_class, 1u) << explain::ExplanationToString(bound, e)
                            << " at seed " << seed;
  }

  // Completeness: every explanation is ≤ some returned MGE.
  for (const Explanation& e : explanations) {
    bool dominated = false;
    for (const Explanation& mge : pruned) {
      if (LiteralLeq(bound, e, mge)) dominated = true;
    }
    EXPECT_TRUE(dominated) << "uncovered explanation at seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExhaustiveSweepTest,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace whynot
