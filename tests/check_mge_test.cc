#include <gtest/gtest.h>

#include "test_util.h"

namespace whynot {
namespace {

using explain::Explanation;

class CheckMgeTest : public ::testing::Test {
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

  onto::ConceptId Id(const char* name) {
    return ontology_->FindConcept(name);
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<onto::ExplicitOntology> ontology_;
  std::unique_ptr<onto::BoundOntology> bound_;
  std::unique_ptr<explain::WhyNotInstance> wni_;
};

TEST_F(CheckMgeTest, ConfirmsE4RejectsE1E2E3) {
  Explanation e4 = {Id("European-City"), Id("US-City")};
  ASSERT_OK_AND_ASSIGN(bool e4_mge,
                       explain::CheckMgeExternal(bound_.get(), *wni_, e4));
  EXPECT_TRUE(e4_mge);
  for (Explanation e :
       {Explanation{Id("Dutch-City"), Id("East-Coast-City")},
        Explanation{Id("Dutch-City"), Id("US-City")},
        Explanation{Id("European-City"), Id("East-Coast-City")}}) {
    ASSERT_OK_AND_ASSIGN(bool mge,
                         explain::CheckMgeExternal(bound_.get(), *wni_, e));
    EXPECT_FALSE(mge) << explain::ExplanationToString(*bound_, e);
  }
}

TEST_F(CheckMgeTest, NonExplanationIsNotMge) {
  Explanation not_expl = {Id("City"), Id("US-City")};
  ASSERT_OK_AND_ASSIGN(
      bool mge, explain::CheckMgeExternal(bound_.get(), *wni_, not_expl));
  EXPECT_FALSE(mge);
}

TEST_F(CheckMgeTest, EveryAlgorithm1OutputPassesCheckMge) {
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> mges,
                       explain::PrunedSearchAllMge(bound_.get(), *wni_));
  ASSERT_FALSE(mges.empty());
  for (const Explanation& e : mges) {
    ASSERT_OK_AND_ASSIGN(bool ok,
                         explain::CheckMgeExternal(bound_.get(), *wni_, e));
    EXPECT_TRUE(ok) << explain::ExplanationToString(*bound_, e);
  }
}

TEST_F(CheckMgeTest, ArityMismatchRejected) {
  Explanation wrong_arity = {Id("City")};
  EXPECT_FALSE(
      explain::CheckMgeExternal(bound_.get(), *wni_, wrong_arity).ok());
  // CHECK-MGE w.r.t. O_I rejects a wrong-arity candidate the same way, one-
  // shot and through a session, rather than answering "not most general".
  explain::LsExplanation wrong_ls = {
      ls::LsConcept::Nominal(Value("Amsterdam"))};
  ls::LubContext lub(instance_.get());
  EXPECT_EQ(explain::CheckMgeDerived(*wni_, wrong_ls,
                                     /*with_selections=*/false, &lub)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(instance_.get(),
                                    workload::ConnectedViaQuery(),
                                    ontology_.get()));
  EXPECT_EQ(session.CheckMge(wni_->missing, wrong_arity).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.CheckMgeDerived(wni_->missing, wrong_ls).status().code(),
            StatusCode::kInvalidArgument);
}

/// Sweep: CheckMgeExternal agrees with membership in the Algorithm 1 output
/// (up to equivalence) on random ontologies.
class CheckMgeSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckMgeSweepTest, AgreesWithExhaustiveSearch) {
  uint64_t seed = GetParam();
  workload::Rng rng(seed * 7 + 1);
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  std::vector<Value> domain;
  for (int i = 0; i < 7; ++i) domain.push_back(Value(i));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<onto::ExplicitOntology> ontology,
                       workload::RandomTreeOntology(domain, 8, seed));
  onto::BoundOntology bound(ontology.get(), &instance);
  std::vector<Tuple> answers;
  for (int i = 0; i < 5; ++i) {
    answers.push_back({domain[rng.Below(domain.size())],
                       domain[rng.Below(domain.size())]});
  }
  Tuple missing = {domain[rng.Below(domain.size())],
                   domain[rng.Below(domain.size())]};
  auto wni_or =
      explain::MakeWhyNotInstanceFromAnswers(&instance, answers, missing);
  if (!wni_or.ok()) return;
  ASSERT_OK_AND_ASSIGN(
      std::vector<Explanation> mges,
      explain::PrunedSearchAllMge(&bound, wni_or.value()));
  for (onto::ConceptId c1 = 0; c1 < bound.NumConcepts(); ++c1) {
    for (onto::ConceptId c2 = 0; c2 < bound.NumConcepts(); ++c2) {
      Explanation e = {c1, c2};
      ASSERT_OK_AND_ASSIGN(
          bool check, explain::CheckMgeExternal(&bound, wni_or.value(), e));
      bool in_output = false;
      for (const Explanation& mge : mges) {
        if (explain::LessGeneral(bound, e, mge) &&
            explain::LessGeneral(bound, mge, e)) {
          in_output = true;  // equivalent to a returned MGE
        }
      }
      EXPECT_EQ(check, in_output) << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CheckMgeSweepTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace whynot
