#include <gtest/gtest.h>

#include "test_util.h"

namespace whynot {
namespace {

using explain::Explanation;

class WhyExplanationTest : public ::testing::Test {
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
  }

  onto::ConceptId Id(const char* name) {
    return ontology_->FindConcept(name);
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<onto::ExplicitOntology> ontology_;
  std::unique_ptr<onto::BoundOntology> bound_;
};

TEST_F(WhyExplanationTest, RejectsNonAnswers) {
  Result<explain::WhyInstance> bad = explain::MakeWhyInstance(
      instance_.get(), workload::ConnectedViaQuery(),
      {Value("Amsterdam"), Value("New York")});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WhyExplanationTest, SingletonConceptsExplainAnAnswer) {
  // (New York, Santa Cruz) ∈ q(I); (East-Coast-City, West-Coast-City) has
  // product {NY} × {SC, SF} — but (NY, SF) is NOT an answer, so it is not
  // a why-explanation; the dual condition demands the whole product inside.
  ASSERT_OK_AND_ASSIGN(
      explain::WhyInstance wi,
      explain::MakeWhyInstance(instance_.get(),
                               workload::ConnectedViaQuery(),
                               {Value("New York"), Value("Santa Cruz")}));
  Explanation not_inside = {Id("East-Coast-City"), Id("West-Coast-City")};
  ASSERT_OK_AND_ASSIGN(bool a,
                       explain::IsWhyExplanation(bound_.get(), wi,
                                                 not_inside));
  EXPECT_FALSE(a);
  // A concept pair whose product is exactly {(NY, SC)}... the Figure 3
  // ontology has no Santa-Cruz-only concept, so the most informative valid
  // pair uses East-Coast-City × West-Coast-City only if both products are
  // answers — they are not. No why-explanation exists here.
  ASSERT_OK_AND_ASSIGN(
      std::vector<Explanation> all,
      explain::AllMostGeneralWhyExplanations(bound_.get(), wi));
  EXPECT_TRUE(all.empty());
}

TEST_F(WhyExplanationTest, ProductFullyInsideAnswers) {
  // Custom ontology with tight concepts so a product is fully inside:
  // answers {(a,b), (a,c)}; concepts A={a}, BC={b,c}: product ⊆ answers.
  onto::ExplicitOntology o;
  o.AddConcept("A");
  o.SetExtension("A", {Value("a")});
  o.AddConcept("BC");
  o.SetExtension("BC", {Value("b"), Value("c")});
  o.AddConcept("B");
  o.SetExtension("B", {Value("b")});
  o.AddSubsumption("B", "BC");
  ASSERT_OK(o.Finalize());
  rel::Instance instance(&schema_);
  onto::BoundOntology bound(&o, &instance);

  explain::WhyInstance wi;
  wi.instance = &instance;
  wi.answers = {{Value("a"), Value("b")}, {Value("a"), Value("c")}};
  wi.present = {Value("a"), Value("b")};

  Explanation wide = {o.FindConcept("A"), o.FindConcept("BC")};
  ASSERT_OK_AND_ASSIGN(bool inside,
                       explain::IsWhyExplanation(&bound, wi, wide));
  EXPECT_TRUE(inside);

  ASSERT_OK_AND_ASSIGN(
      std::vector<Explanation> all,
      explain::AllMostGeneralWhyExplanations(&bound, wi));
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], wide);  // (A, BC) dominates (A, B)
}

TEST_F(WhyExplanationTest, DuplicateAnswersInHandBuiltInstance) {
  // WhyInstance is a plain struct; a hand-built one may carry duplicate
  // answers. The counting-based product check must dedup defensively:
  // with answers [(a,b), (a,b)] and product {a}×{b,c}, the duplicate must
  // not be counted twice (false positive), and with product {a}×{b} the
  // double count must not be compared against product size 1 (false
  // negative).
  onto::ExplicitOntology o;
  o.AddConcept("A");
  o.SetExtension("A", {Value("a")});
  o.AddConcept("B");
  o.SetExtension("B", {Value("b")});
  o.AddConcept("BC");
  o.SetExtension("BC", {Value("b"), Value("c")});
  ASSERT_OK(o.Finalize());
  rel::Instance instance(&schema_);
  onto::BoundOntology bound(&o, &instance);

  explain::WhyInstance wi;
  wi.instance = &instance;
  wi.answers = {{Value("a"), Value("b")}, {Value("a"), Value("b")}};
  wi.present = {Value("a"), Value("b")};

  Explanation exact = {o.FindConcept("A"), o.FindConcept("B")};
  ASSERT_OK_AND_ASSIGN(bool inside,
                       explain::IsWhyExplanation(&bound, wi, exact));
  EXPECT_TRUE(inside);  // product {(a,b)} ⊆ {(a,b)}

  Explanation wide = {o.FindConcept("A"), o.FindConcept("BC")};
  ASSERT_OK_AND_ASSIGN(bool too_wide,
                       explain::IsWhyExplanation(&bound, wi, wide));
  EXPECT_FALSE(too_wide);  // (a, c) is not an answer
}

TEST_F(WhyExplanationTest, TopNeverQualifies) {
  // ⊤-like concepts (is_all extensions) can never be inside a finite
  // answer set.
  onto::ExplicitOntology o;
  o.AddConcept("A");
  o.SetExtension("A", {Value("a")});
  ASSERT_OK(o.Finalize());
  rel::Instance instance(&schema_);

  // Use an LS ontology with ⊤ via materialization instead: simpler — check
  // ProductInsideAnswers indirectly through IsWhyExplanation with an
  // extension function returning nothing is finite; skip the All case here
  // (covered by ext_set tests) and assert the finite path.
  onto::BoundOntology bound(&o, &instance);
  explain::WhyInstance wi;
  wi.instance = &instance;
  wi.answers = {{Value("a")}};
  wi.present = {Value("a")};
  Explanation e = {o.FindConcept("A")};
  ASSERT_OK_AND_ASSIGN(bool inside, explain::IsWhyExplanation(&bound, wi, e));
  EXPECT_TRUE(inside);
}

// --- Why-explanations w.r.t. OI (the derived-ontology dual) -----------------

class WhyDerivedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, workload::CitiesDataSchema());
    ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                         workload::CitiesInstance(&schema_));
    instance_ = std::make_unique<rel::Instance>(std::move(instance));
    ASSERT_OK_AND_ASSIGN(
        explain::WhyInstance wi,
        explain::MakeWhyInstance(instance_.get(),
                                 workload::ConnectedViaQuery(),
                                 {Value("Amsterdam"), Value("Rome")}));
    wi_ = std::make_unique<explain::WhyInstance>(std::move(wi));
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<explain::WhyInstance> wi_;
};

TEST_F(WhyDerivedTest, NominalTupleIsAWhyExplanation) {
  explain::LsExplanation nominals = {
      ls::LsConcept::Nominal(Value("Amsterdam")),
      ls::LsConcept::Nominal(Value("Rome"))};
  EXPECT_TRUE(explain::IsLsWhyExplanation(*wi_, nominals).value());
}

TEST_F(WhyDerivedTest, TopNeverQualifies) {
  explain::LsExplanation with_top = {ls::LsConcept::Top(),
                                     ls::LsConcept::Nominal(Value("Rome"))};
  EXPECT_FALSE(explain::IsLsWhyExplanation(*wi_, with_top).value());
}

TEST_F(WhyDerivedTest, ProductOutsideAnswersRejected) {
  // π_name(σ_continent=Europe(Cities)) × {Rome} covers (Berlin, Rome) ∉ Ans.
  explain::LsExplanation e = {
      ls::LsConcept::Projection("Cities", 0,
                                {{3, rel::CmpOp::kEq, Value("Europe")}}),
      ls::LsConcept::Nominal(Value("Rome"))};
  EXPECT_FALSE(explain::IsLsWhyExplanation(*wi_, e).value());
}

// A candidate whose arity differs from the present tuple's is malformed
// input, as for the external IsWhyExplanation, not a "no" verdict.
TEST_F(WhyDerivedTest, ArityMismatchRejected) {
  explain::LsExplanation wrong_arity = {
      ls::LsConcept::Nominal(Value("Amsterdam"))};
  EXPECT_EQ(explain::IsLsWhyExplanation(*wi_, wrong_arity).status().code(),
            StatusCode::kInvalidArgument);
  ls::LubContext ctx(instance_.get());
  for (bool with_selections : {false, true}) {
    EXPECT_EQ(explain::CheckWhyMgeDerived(*wi_, wrong_arity, with_selections,
                                          &ctx)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

// Caller-owned covers key rows by extension address, so the why entry
// points refuse them without the caller-owned store those extensions live
// in (the concept cache for the searches, the eval cache for
// IsLsWhyExplanation): a per-call local would free the extensions at
// return and a later call would reuse the addresses.
TEST_F(WhyDerivedTest, IsLsWhyExplanationRejectsCoversWithoutCache) {
  explain::LsAnswerCovers covers(instance_.get(), &wi_->answers);
  explain::LsExplanation nominals = {
      ls::LsConcept::Nominal(Value("Amsterdam")),
      ls::LsConcept::Nominal(Value("Rome"))};
  Result<bool> r = explain::IsLsWhyExplanation(*wi_, nominals, nullptr,
                                               &covers);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  ls::EvalCache cache(instance_.get());
  ASSERT_OK_AND_ASSIGN(
      bool inside, explain::IsLsWhyExplanation(*wi_, nominals, &cache, &covers));
  EXPECT_TRUE(inside);
}

TEST_F(WhyDerivedTest, IncrementalWhySearchRejectsCoversWithoutStores) {
  explain::LsAnswerCovers covers(instance_.get(), &wi_->answers);
  ls::LubContext ctx(instance_.get());
  ls::EvalCache cache(instance_.get());
  ls::ConceptCache concepts(instance_.get());
  EXPECT_EQ(explain::IncrementalWhySearch(*wi_, false, &ctx, &cache, &covers,
                                          nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK_AND_ASSIGN(explain::LsExplanation want,
                       explain::IncrementalWhySearch(*wi_, false));
  ASSERT_OK_AND_ASSIGN(explain::LsExplanation got,
                       explain::IncrementalWhySearch(*wi_, false, &ctx, &cache,
                                                     &covers, &concepts));
  EXPECT_EQ(got, want);
  // A null cache means the concept cache's own memo, which is caller-owned.
  ASSERT_OK_AND_ASSIGN(explain::LsExplanation own_memo,
                       explain::IncrementalWhySearch(*wi_, false, &ctx, nullptr,
                                                     &covers, &concepts));
  EXPECT_EQ(own_memo, want);
}

TEST_F(WhyDerivedTest, CheckWhyMgeDerivedRejectsCoversWithoutStores) {
  ASSERT_OK_AND_ASSIGN(explain::LsExplanation e,
                       explain::IncrementalWhySearch(*wi_, false));
  explain::LsAnswerCovers covers(instance_.get(), &wi_->answers);
  ls::LubContext ctx(instance_.get());
  ls::EvalCache cache(instance_.get());
  ls::ConceptCache concepts(instance_.get());
  EXPECT_EQ(explain::CheckWhyMgeDerived(*wi_, e, false, &ctx, &cache, &covers,
                                        nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK_AND_ASSIGN(bool mge,
                       explain::CheckWhyMgeDerived(*wi_, e, false, &ctx, &cache,
                                                   &covers, &concepts));
  EXPECT_TRUE(mge);
  ASSERT_OK_AND_ASSIGN(bool own_memo,
                       explain::CheckWhyMgeDerived(*wi_, e, false, &ctx, nullptr,
                                                   &covers, &concepts));
  EXPECT_TRUE(own_memo);
}

TEST_F(WhyDerivedTest, IncrementalWhySearchOutputIsWhyExplanationAndMge) {
  for (bool with_selections : {false, true}) {
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation e,
                         explain::IncrementalWhySearch(*wi_, with_selections));
    EXPECT_TRUE(explain::IsLsWhyExplanation(*wi_, e).value());
    ls::LubContext ctx(instance_.get());
    ASSERT_OK_AND_ASSIGN(
        bool mge, explain::CheckWhyMgeDerived(*wi_, e, with_selections, &ctx));
    EXPECT_TRUE(mge) << explain::LsExplanationToString(schema_, e);
  }
}

TEST_F(WhyDerivedTest, CheckWhyMgeRejectsTheNominalStartWhenGrowable) {
  // Ans contains (Amsterdam, Amsterdam) and (Amsterdam, Rome): position 2
  // can grow beyond the nominal, so the nominal tuple is not most general.
  explain::LsExplanation nominals = {
      ls::LsConcept::Nominal(Value("Amsterdam")),
      ls::LsConcept::Nominal(Value("Rome"))};
  ls::LubContext ctx(instance_.get());
  ASSERT_OK_AND_ASSIGN(
      bool mge,
      explain::CheckWhyMgeDerived(*wi_, nominals, /*with_selections=*/true,
                                  &ctx));
  EXPECT_FALSE(mge);
}

// Cross-check: the greedy output lands in the brute-force most-general
// antichain over the materialized selection-free OI[K].
class WhyDerivedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WhyDerivedSweepTest, GreedyOutputInBruteForceAntichain) {
  uint64_t seed = GetParam();
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::RandomSchema(2, {2, 1}));
  ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                       workload::RandomInstance(&schema, 6, 4, seed));
  rel::ConjunctiveQuery cq;
  cq.head = {"x", "y"};
  cq.atoms = {testutil::A("R0", {testutil::V("x"), testutil::V("y")})};
  rel::UnionQuery q = testutil::Q1(cq);
  if (instance.Relation("R0").empty()) GTEST_SKIP();
  Tuple present = instance.Relation("R0").front();
  ASSERT_OK_AND_ASSIGN(explain::WhyInstance wi,
                       explain::MakeWhyInstance(&instance, q, present));

  ASSERT_OK_AND_ASSIGN(explain::LsExplanation greedy,
                       explain::IncrementalWhySearch(wi));

  ls::MaterializeOptions mat;
  mat.fragment = ls::Fragment::kSelectionFree;
  mat.mode = ls::SubsumptionMode::kInstance;
  mat.max_concepts = 8192;
  ASSERT_OK_AND_ASSIGN(auto ontology,
                       ls::LsOntology::Materialize(&instance, {}, mat));
  onto::BoundOntology bound(ontology.get(), &instance);
  ASSERT_OK_AND_ASSIGN(
      std::vector<Explanation> brute,
      explain::AllMostGeneralWhyExplanations(&bound, wi));

  // The greedy extension tuple must match one of the brute-force MGEs.
  std::vector<std::pair<bool, std::vector<Value>>> greedy_key;
  for (const ls::LsConcept& c : greedy) {
    ls::Extension ext = ls::Eval(c, instance);
    greedy_key.emplace_back(ext.all, ext.values());
  }
  bool found = false;
  for (const Explanation& e : brute) {
    std::vector<std::pair<bool, std::vector<Value>>> key;
    for (onto::ConceptId id : e) {
      ls::Extension ext = ls::Eval(ontology->Concept(id), instance);
      key.emplace_back(ext.all, ext.values());
    }
    if (key == greedy_key) found = true;
  }
  EXPECT_TRUE(found) << "seed " << seed
                     << ": greedy why-MGE missing from brute force ("
                     << brute.size() << " brute MGEs)";
}

INSTANTIATE_TEST_SUITE_P(Sweep, WhyDerivedSweepTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace whynot
