#include <gtest/gtest.h>

#include "test_util.h"

namespace whynot {
namespace {

using explain::Degree;
using explain::Explanation;

TEST(DegreeTest, ComparisonSemantics) {
  Degree small{false, 3};
  Degree big{false, 10};
  Degree inf{true, 0};
  EXPECT_TRUE(big > small);
  EXPECT_FALSE(small > big);
  EXPECT_TRUE(inf > big);
  EXPECT_FALSE(big > inf);
  EXPECT_TRUE(Degree({true, 5}) == inf);
  EXPECT_EQ(inf.ToString(), "inf");
  EXPECT_EQ(big.ToString(), "10");
}

class CardinalityTest : public ::testing::Test {
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
    ASSERT_TRUE(wni.ok());
    wni_ = std::make_unique<explain::WhyNotInstance>(std::move(wni).value());
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<onto::ExplicitOntology> ontology_;
  std::unique_ptr<onto::BoundOntology> bound_;
  std::unique_ptr<explain::WhyNotInstance> wni_;
};

TEST_F(CardinalityTest, ExactMaximumOnExample34) {
  ASSERT_OK_AND_ASSIGN(auto exact,
                       explain::ExactCardMaximal(bound_.get(), *wni_));
  ASSERT_TRUE(exact.has_value());
  // (City, East-Coast-City) has degree 8 + 1 = 9;
  // (European-City, US-City) has degree 3 + 3 = 6. The exact maximum is 9.
  EXPECT_EQ(exact->degree.ToString(), "9");
  ASSERT_OK_AND_ASSIGN(
      bool valid,
      explain::IsExplanation(bound_.get(), *wni_, exact->explanation));
  EXPECT_TRUE(valid);
}

TEST_F(CardinalityTest, GreedyReturnsValidExplanation) {
  ASSERT_OK_AND_ASSIGN(auto greedy,
                       explain::GreedyCardinalityClimb(bound_.get(), *wni_));
  ASSERT_TRUE(greedy.has_value());
  ASSERT_OK_AND_ASSIGN(
      bool valid,
      explain::IsExplanation(bound_.get(), *wni_, greedy->explanation));
  EXPECT_TRUE(valid);
  ASSERT_OK_AND_ASSIGN(auto exact,
                       explain::ExactCardMaximal(bound_.get(), *wni_));
  // Greedy never exceeds the exact optimum.
  EXPECT_FALSE(greedy->degree > exact->degree);
}

TEST_F(CardinalityTest, NoExplanationMeansNullopt) {
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(instance_.get(),
                                  workload::ConnectedViaQuery(),
                                  {"Mars", "New York"}));
  ASSERT_OK_AND_ASSIGN(auto exact,
                       explain::ExactCardMaximal(bound_.get(), wni));
  EXPECT_FALSE(exact.has_value());
  ASSERT_OK_AND_ASSIGN(auto greedy,
                       explain::GreedyCardinalityClimb(bound_.get(), wni));
  EXPECT_FALSE(greedy.has_value());
}

/// A candidate list holding an All extension (the materialized ⊤ of
/// OI[K]) pins ExactCardMaximal to the odometer even under kLattice. With
/// no answers, (⊤, ⊤) is the one most-general explanation, yet
/// (π_a(R), ⊤) outranks it by degree (the finite parts decide between
/// infinite degrees); a frontier walk would stop at (⊤, ⊤) and miss it.
TEST(CardinalityPinTest, AllCandidatePinsTheLatticeStrategyToTheOdometer) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  ASSERT_OK(instance.AddFact("R", {1, 2}));
  ASSERT_OK(instance.AddFact("R", {2, 3}));
  ASSERT_OK(instance.AddFact("R", {3, 1}));
  ASSERT_OK(instance.AddFact("U", {1}));
  ASSERT_OK(instance.AddFact("U", {3}));
  Tuple missing = {Value(1), Value(1)};
  ls::MaterializeOptions mat;
  mat.fragment = ls::Fragment::kSelectionFree;
  mat.mode = ls::SubsumptionMode::kInstance;
  ASSERT_OK_AND_ASSIGN(auto ontology,
                       ls::LsOntology::Materialize(&instance, missing, mat));
  onto::BoundOntology bound(ontology.get(), &instance);
  for (const std::vector<Tuple>& answers :
       {std::vector<Tuple>{}, std::vector<Tuple>{{Value(2), Value(3)}}}) {
    ASSERT_OK_AND_ASSIGN(
        explain::WhyNotInstance wni,
        explain::MakeWhyNotInstanceFromAnswers(&instance, answers, missing));
    explain::ExhaustiveOptions odo;
    odo.strategy = explain::SearchStrategy::kOdometer;
    explain::ExhaustiveOptions lat;
    lat.strategy = explain::SearchStrategy::kLattice;
    ASSERT_OK_AND_ASSIGN(auto want, explain::ExactCardMaximal(&bound, wni, odo));
    ASSERT_OK_AND_ASSIGN(auto got, explain::ExactCardMaximal(&bound, wni, lat));
    ASSERT_TRUE(want.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(want->degree.infinite) << "the All candidate was not used";
    EXPECT_EQ(got->explanation, want->explanation)
        << explain::ExplanationToString(bound, got->explanation) << " vs "
        << explain::ExplanationToString(bound, want->explanation);
    EXPECT_TRUE(got->degree == want->degree)
        << got->degree.ToString() << " vs " << want->degree.ToString();
  }
}

/// Sweep: greedy ≤ exact on random instances (Proposition 6.4's gap shows
/// up as strict inequality on some seeds; validity always holds).
class CardinalitySweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CardinalitySweepTest, GreedyNeverBeatsExact) {
  uint64_t seed = GetParam();
  workload::Rng rng(seed * 3 + 2);
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  std::vector<Value> domain;
  for (int i = 0; i < 8; ++i) domain.push_back(Value(i));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<onto::ExplicitOntology> ontology,
                       workload::RandomTreeOntology(domain, 8, seed));
  onto::BoundOntology bound(ontology.get(), &instance);
  std::vector<Tuple> answers;
  for (int i = 0; i < 6; ++i) {
    answers.push_back({domain[rng.Below(domain.size())],
                       domain[rng.Below(domain.size())]});
  }
  Tuple missing = {domain[rng.Below(domain.size())],
                   domain[rng.Below(domain.size())]};
  auto wni_or =
      explain::MakeWhyNotInstanceFromAnswers(&instance, answers, missing);
  if (!wni_or.ok()) return;
  ASSERT_OK_AND_ASSIGN(auto exact,
                       explain::ExactCardMaximal(&bound, wni_or.value()));
  ASSERT_OK_AND_ASSIGN(
      auto greedy, explain::GreedyCardinalityClimb(&bound, wni_or.value()));
  EXPECT_EQ(exact.has_value(), greedy.has_value());
  if (exact.has_value() && greedy.has_value()) {
    EXPECT_FALSE(greedy->degree > exact->degree) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CardinalitySweepTest,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace whynot
