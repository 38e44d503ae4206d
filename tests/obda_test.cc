#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace whynot {
namespace {

using dl::BasicConcept;
using dl::Role;

class ObdaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = workload::CitiesDataSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::move(schema).value();
    auto instance = workload::CitiesInstance(&schema_);
    ASSERT_TRUE(instance.ok());
    instance_ = std::make_unique<rel::Instance>(std::move(instance).value());
    spec_ = std::make_unique<obda::ObdaSpec>(
        workload::CitiesTBox(), &schema_, workload::CitiesMappings());
    ASSERT_OK(spec_->Validate());
  }

  std::set<Value> Members(const obda::Saturation& sat, const char* name) {
    return sat.Members(BasicConcept::Atomic(name));
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<obda::ObdaSpec> spec_;
};

TEST_F(ObdaTest, Example45CertainExtensions) {
  ASSERT_OK_AND_ASSIGN(obda::Saturation sat, spec_->Saturate(*instance_));
  // ext_OB(EU-City, I) = {Amsterdam, Berlin, Rome}.
  EXPECT_EQ(Members(sat, "EU-City"),
            (std::set<Value>{Value("Amsterdam"), Value("Berlin"),
                             Value("Rome")}));
  // ext_OB(N.A.-City, I) = {New York, San Francisco, Santa Cruz}.
  EXPECT_EQ(Members(sat, "N.A.-City"),
            (std::set<Value>{Value("New York"), Value("San Francisco"),
                             Value("Santa Cruz")}));
  // ext_OB(City, I): all eight cities (via the positive closure).
  EXPECT_EQ(Members(sat, "City").size(), 8u);
  EXPECT_TRUE(Members(sat, "City").count(Value("Kyoto")) > 0);
  // ext_OB(∃hasCountry⁻, I) = the five countries (Example 4.5).
  std::set<Value> countries =
      sat.Members(BasicConcept::Exists(Role{"hasCountry", true}));
  EXPECT_EQ(countries,
            (std::set<Value>{Value("Netherlands"), Value("Germany"),
                             Value("Italy"), Value("USA"), Value("Japan")}));
  // ∃connected: every city with an outgoing train connection whose both
  // endpoints are cities. (The paper's Example 4.5 prints a truncated
  // listing; the definition yields these five.)
  std::set<Value> connected =
      sat.Members(BasicConcept::Exists(Role{"connected", false}));
  EXPECT_EQ(connected,
            (std::set<Value>{Value("Amsterdam"), Value("Berlin"),
                             Value("New York"), Value("San Francisco"),
                             Value("Tokyo")}));
}

TEST_F(ObdaTest, UnaryClosurePropagatesUpward) {
  ASSERT_OK_AND_ASSIGN(obda::Saturation sat, spec_->Saturate(*instance_));
  // Dutch-City ⊑ EU-City: Amsterdam must be certain in both.
  EXPECT_EQ(Members(sat, "Dutch-City"), std::set<Value>{Value("Amsterdam")});
  EXPECT_TRUE(Members(sat, "EU-City").count(Value("Amsterdam")) > 0);
  // City ⊑ ∃hasCountry: every city is certainly in ∃hasCountry even though
  // the witness may be anonymous.
  std::set<Value> has_country =
      sat.Members(BasicConcept::Exists(Role{"hasCountry", false}));
  EXPECT_EQ(has_country.size(), 8u);
}

TEST_F(ObdaTest, ConsistencyHoldsOnFigure2) {
  EXPECT_OK(spec_->CheckConsistent(*instance_));
}

TEST_F(ObdaTest, InconsistencyDetected) {
  // A city recorded both in Europe and N.America violates
  // EU-City ⊑ ¬N.A.-City once both mappings fire.
  rel::Instance bad(&schema_);
  ASSERT_OK(bad.AddFact("Cities",
                        {Value("Atlantis"), Value(1), Value("X"),
                         Value("Europe")}));
  ASSERT_OK(bad.AddFact("Cities",
                        {Value("Atlantis"), Value(2), Value("Y"),
                         Value("N.America")}));
  EXPECT_FALSE(spec_->CheckConsistent(bad).ok());
}

TEST_F(ObdaTest, InducedOntologyConceptsAndSubsumption) {
  obda::ObdaInducedOntology ontology(spec_.get());
  // All basic concepts occurring in the Figure 4 TBox (Example 4.5 lists
  // 13 of them).
  EXPECT_EQ(ontology.NumConcepts(), 13);
  onto::ConceptId dutch =
      ontology.FindConcept(BasicConcept::Atomic("Dutch-City"));
  onto::ConceptId city = ontology.FindConcept(BasicConcept::Atomic("City"));
  ASSERT_GE(dutch, 0);
  ASSERT_GE(city, 0);
  EXPECT_TRUE(ontology.Subsumes(dutch, city));
  EXPECT_FALSE(ontology.Subsumes(city, dutch));
}

TEST_F(ObdaTest, InducedOntologyConsistentWithInstance) {
  obda::ObdaInducedOntology ontology(spec_.get());
  onto::BoundOntology bound(&ontology, instance_.get());
  EXPECT_OK(bound.CheckConsistent());
}

TEST_F(ObdaTest, SessionRewarmSeesWritesToTheSameInstance) {
  // The induced ontology caches one saturation per instance; a write to
  // that instance must not let a session's re-warm serve the old certain
  // answers. Paris is not in the Figure 2 data, so only a fresh saturation
  // puts it in ext(EU-City).
  obda::ObdaInducedOntology ontology(spec_.get());
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(instance_.get(),
                                    workload::ConnectedViaQuery(), &ontology));
  ASSERT_OK(instance_->AddFact(
      "Cities", {Value("Paris"), Value(2148000), Value("France"),
                 Value("Europe")}));
  ASSERT_OK(instance_->AddFact("Train-Connections",
                               {Value("Paris"), Value("Amsterdam")}));
  const Tuple missing = {Value("Paris"), Value("New York")};
  ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got,
                       session.ExhaustiveMges(missing));

  onto::ConceptId eu = ontology.FindConcept(BasicConcept::Atomic("EU-City"));
  onto::ConceptId na =
      ontology.FindConcept(BasicConcept::Atomic("N.A.-City"));
  ASSERT_GE(eu, 0);
  ASSERT_GE(na, 0);
  EXPECT_NE(std::find(got.begin(), got.end(), explain::Explanation{eu, na}),
            got.end());

  obda::ObdaInducedOntology fresh(spec_.get());
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession fresh_session,
      explain::ExplainSession::Bind(instance_.get(),
                                    workload::ConnectedViaQuery(), &fresh));
  ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> want,
                       fresh_session.ExhaustiveMges(missing));
  EXPECT_EQ(got, want);
}

TEST_F(ObdaTest, RoleInclusionClosureInSaturation) {
  // A spec where mapping-derived role facts propagate through a role
  // inclusion P ⊑ Q⁻.
  rel::Schema schema = testutil::SimpleSchema();
  dl::TBox t;
  t.AddRoleAxiom(Role{"P", false}, {Role{"Q", true}, false});
  std::vector<obda::GavMapping> mappings;
  mappings.push_back({{testutil::A("R", {testutil::V("x"), testutil::V("y")})},
                      {},
                      obda::MappingHead::RolePair("P", "x", "y")});
  obda::ObdaSpec spec(std::move(t), &schema, std::move(mappings));
  rel::Instance i(&schema);
  ASSERT_OK(i.AddFact("R", {Value("a"), Value("b")}));
  ASSERT_OK_AND_ASSIGN(obda::Saturation sat, spec.Saturate(i));
  // Q must contain the flipped pair (b, a).
  ASSERT_EQ(sat.role_pairs.count("Q"), 1u);
  EXPECT_TRUE(sat.role_pairs.at("Q").count({Value("b"), Value("a")}) > 0);
  // ∃Q therefore certainly contains b.
  EXPECT_TRUE(sat.Members(BasicConcept::Exists(Role{"Q", false}))
                  .count(Value("b")) > 0);
}

TEST_F(ObdaTest, MappingValidationCatchesBadBodies) {
  rel::Schema schema = testutil::SimpleSchema();
  std::vector<obda::GavMapping> mappings;
  mappings.push_back({{testutil::A("Nope", {testutil::V("x")})},
                      {},
                      obda::MappingHead::Concept("A", "x")});
  obda::ObdaSpec spec(dl::TBox(), &schema, std::move(mappings));
  EXPECT_FALSE(spec.Validate().ok());
}

}  // namespace
}  // namespace whynot
