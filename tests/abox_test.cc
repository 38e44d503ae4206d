#include "whynot/dllite/abox.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

using dl::ABox;
using dl::AboxOntology;
using dl::BasicConcept;
using dl::CertainMembers;
using dl::CertainRolePairs;
using dl::CheckAboxConsistency;
using dl::DerivedConcepts;
using dl::Reasoner;
using dl::Role;
using dl::TBox;

// The Figure 4 travel ABox: a few cities with their classes and
// connections.
ABox TravelAbox() {
  ABox abox;
  abox.AddConceptAssertion("Dutch-City", "Amsterdam");
  abox.AddConceptAssertion("EU-City", "Berlin");
  abox.AddConceptAssertion("US-City", "New York");
  abox.AddRoleAssertion("connected", "Amsterdam", "Berlin");
  abox.AddRoleAssertion("hasCountry", "Amsterdam", "Netherlands");
  return abox;
}

TEST(AboxTest, IndividualsAreSortedAndDeduplicated) {
  ABox abox = TravelAbox();
  std::vector<Value> ind = abox.Individuals();
  EXPECT_TRUE(std::is_sorted(ind.begin(), ind.end()));
  EXPECT_EQ(std::adjacent_find(ind.begin(), ind.end()), ind.end());
  EXPECT_EQ(ind.size(), 4u);  // Amsterdam, Berlin, Netherlands, New York
}

TEST(AboxTest, DerivedConceptsFollowTheHierarchy) {
  TBox tbox = workload::CitiesTBox();
  Reasoner reasoner(&tbox);
  ABox abox = TravelAbox();
  std::vector<BasicConcept> derived =
      DerivedConcepts(reasoner, abox, Value("Amsterdam"));
  auto has = [&](const BasicConcept& b) {
    return std::find(derived.begin(), derived.end(), b) != derived.end();
  };
  EXPECT_TRUE(has(BasicConcept::Atomic("Dutch-City")));
  EXPECT_TRUE(has(BasicConcept::Atomic("EU-City")));   // Dutch ⊑ EU
  EXPECT_TRUE(has(BasicConcept::Atomic("City")));      // EU ⊑ City
  EXPECT_TRUE(has(BasicConcept::Exists(Role{"connected", false})));
  EXPECT_TRUE(has(BasicConcept::Exists(Role{"hasCountry", false})));
  EXPECT_FALSE(has(BasicConcept::Atomic("US-City")));
}

TEST(AboxTest, CertainMembersLiftAlongSubsumption) {
  TBox tbox = workload::CitiesTBox();
  Reasoner reasoner(&tbox);
  ABox abox = TravelAbox();
  std::vector<Value> cities =
      CertainMembers(reasoner, abox, BasicConcept::Atomic("City"));
  // Amsterdam (Dutch ⊑ EU ⊑ City), Berlin (EU ⊑ City), New York
  // (US ⊑ N.A. ⊑ City), plus both connected-endpoints are Cities by the
  // ∃connected ⊑ City / ∃connected⁻ ⊑ City axioms.
  EXPECT_TRUE(std::binary_search(cities.begin(), cities.end(),
                                 Value("Amsterdam")));
  EXPECT_TRUE(std::binary_search(cities.begin(), cities.end(),
                                 Value("Berlin")));
  EXPECT_TRUE(std::binary_search(cities.begin(), cities.end(),
                                 Value("New York")));
  EXPECT_FALSE(std::binary_search(cities.begin(), cities.end(),
                                  Value("Netherlands")));
}

TEST(AboxTest, ExistentialMembershipFromRoleAssertions) {
  TBox tbox = workload::CitiesTBox();
  Reasoner reasoner(&tbox);
  ABox abox = TravelAbox();
  std::vector<Value> has_country = CertainMembers(
      reasoner, abox, BasicConcept::Exists(Role{"hasCountry", false}));
  // Amsterdam directly; Berlin and New York via City ⊑ ∃hasCountry (every
  // certain city certainly has a country).
  EXPECT_EQ(has_country,
            (std::vector<Value>{Value("Amsterdam"), Value("Berlin"),
                                Value("New York")}));
  std::vector<Value> countries = CertainMembers(
      reasoner, abox, BasicConcept::Atomic("Country"));
  // ∃hasCountry⁻ ⊑ Country.
  EXPECT_EQ(countries, std::vector<Value>{Value("Netherlands")});
}

TEST(AboxTest, CertainRolePairsRespectInverses) {
  TBox tbox = workload::CitiesTBox();
  Reasoner reasoner(&tbox);
  ABox abox = TravelAbox();
  auto forward =
      CertainRolePairs(reasoner, abox, Role{"connected", false});
  ASSERT_EQ(forward.size(), 1u);
  EXPECT_EQ(forward[0].first, Value("Amsterdam"));
  auto backward = CertainRolePairs(reasoner, abox, Role{"connected", true});
  ASSERT_EQ(backward.size(), 1u);
  EXPECT_EQ(backward[0].first, Value("Berlin"));
}

TEST(AboxTest, ConsistencyAcceptsTravelAbox) {
  TBox tbox = workload::CitiesTBox();
  Reasoner reasoner(&tbox);
  EXPECT_OK(CheckAboxConsistency(reasoner, TravelAbox()));
}

TEST(AboxTest, ConsistencyRejectsDisjointMembership) {
  TBox tbox = workload::CitiesTBox();  // EU-City ⊑ ¬N.A.-City
  Reasoner reasoner(&tbox);
  ABox abox;
  abox.AddConceptAssertion("EU-City", "Springfield");
  abox.AddConceptAssertion("US-City", "Springfield");  // US ⊑ N.A.
  Status st = CheckAboxConsistency(reasoner, abox);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(AboxTest, ConsistencyRejectsDisjointRoles) {
  TBox tbox;
  tbox.AddRoleAxiom(Role{"P", false}, {Role{"Q", false}, /*negated=*/true});
  Reasoner reasoner(&tbox);
  ABox abox;
  abox.AddRoleAssertion("P", 1, 2);
  abox.AddRoleAssertion("Q", 1, 2);
  Status st = CheckAboxConsistency(reasoner, abox);
  ASSERT_FALSE(st.ok());
}

TEST(AboxTest, ConsistencyChecksInverseRoleDisjointness) {
  TBox tbox;
  tbox.AddRoleAxiom(Role{"P", false}, {Role{"Q", true}, /*negated=*/true});
  Reasoner reasoner(&tbox);
  ABox abox;
  abox.AddRoleAssertion("P", 1, 2);
  abox.AddRoleAssertion("Q", 2, 1);  // Q(2,1) means Q⁻(1,2): conflict
  Status st = CheckAboxConsistency(reasoner, abox);
  ASSERT_FALSE(st.ok());
}

TEST(AboxOntologyTest, MakeRejectsInconsistentAbox) {
  TBox tbox = workload::CitiesTBox();
  ABox abox;
  abox.AddConceptAssertion("EU-City", "X");
  abox.AddConceptAssertion("N.A.-City", "X");
  auto result = AboxOntology::Make(&tbox, std::move(abox));
  ASSERT_FALSE(result.ok());
}

TEST(AboxOntologyTest, WorksAsExternalOntologyForWhyNot) {
  // The ABox route end-to-end: the Example 3.4 why-not question answered
  // with an ABox-backed external ontology instead of mappings.
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::CitiesDataSchema());
  ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                       workload::CitiesInstance(&schema));
  TBox tbox = workload::CitiesTBox();
  ABox abox;
  abox.AddConceptAssertion("Dutch-City", "Amsterdam");
  abox.AddConceptAssertion("EU-City", "Berlin");
  abox.AddConceptAssertion("EU-City", "Rome");
  abox.AddConceptAssertion("US-City", "New York");
  abox.AddConceptAssertion("US-City", "San Francisco");
  abox.AddConceptAssertion("US-City", "Santa Cruz");
  ASSERT_OK_AND_ASSIGN(auto ontology, AboxOntology::Make(&tbox, abox));

  onto::BoundOntology bound(ontology.get(), &instance);
  ASSERT_OK(bound.CheckConsistent());
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(&instance, workload::ConnectedViaQuery(),
                                  {"Amsterdam", "New York"}));
  ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> mges,
                       explain::PrunedSearchAllMge(&bound, wni));
  ASSERT_FALSE(mges.empty());
  // The paper's MGE (EU-City, N.A.-City) must be among the outputs.
  bool found = false;
  for (const explain::Explanation& e : mges) {
    if (bound.ConceptName(e[0]) == "EU-City" &&
        bound.ConceptName(e[1]) == "N.A.-City") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AboxOntologyTest, ExtIsInstanceIndependent) {
  TBox tbox = workload::CitiesTBox();
  ASSERT_OK_AND_ASSIGN(auto ontology, AboxOntology::Make(&tbox, TravelAbox()));
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance empty(&schema);
  rel::Instance nonempty(&schema);
  ASSERT_OK(nonempty.AddFact("U", {Value("Amsterdam")}));
  ValuePool pool;
  for (onto::ConceptId id = 0; id < ontology->NumConcepts(); ++id) {
    onto::ExtSet a = ontology->ComputeExt(id, empty, &pool);
    onto::ExtSet b = ontology->ComputeExt(id, nonempty, &pool);
    EXPECT_TRUE(a.SubsetOf(b) && b.SubsetOf(a));
  }
}

// Soundness sweep: every derived membership holds in every model of the
// TBox that extends the ABox (spot-checked on random satisfying
// interpretations built from the assertions).
class AboxSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AboxSoundnessTest, DerivedMembershipsHoldInExtendingModels) {
  uint64_t seed = GetParam();
  dl::TBox tbox = workload::RandomTBox(4, 2, 6, seed, /*negative_percent=*/0);
  Reasoner reasoner(&tbox);
  // Random ABox over a small individual pool.
  workload::Rng rng(seed * 17 + 3);
  ABox abox;
  const std::set<std::string> concept_set = tbox.AtomicConcepts();
  const std::set<std::string> role_set = tbox.AtomicRoles();
  std::vector<std::string> concepts(concept_set.begin(), concept_set.end());
  std::vector<std::string> roles(role_set.begin(), role_set.end());
  for (int i = 0; i < 8; ++i) {
    if (!roles.empty() && rng.Chance(1, 2)) {
      abox.AddRoleAssertion(
          roles[rng.Below(roles.size())],
          Value(static_cast<int64_t>(rng.Below(4))),
          Value(static_cast<int64_t>(rng.Below(4))));
    } else if (!concepts.empty()) {
      abox.AddConceptAssertion(concepts[rng.Below(concepts.size())],
                               Value(static_cast<int64_t>(rng.Below(4))));
    }
  }
  if (!CheckAboxConsistency(reasoner, abox).ok()) {
    GTEST_SKIP() << "inconsistent random ABox";
  }
  // Build a model: start from the assertions, then saturate under the
  // positive closure by adding memberships/fillers until fixpoint.
  dl::Interpretation interp;
  for (const auto& [name, members] : abox.concept_assertions()) {
    for (const Value& c : members) interp.AddConceptMember(name, c);
  }
  for (const auto& [name, pairs] : abox.role_assertions()) {
    for (const auto& [c, d] : pairs) interp.AddRolePair(name, c, d);
  }
  int64_t fresh = 100;
  for (int round = 0; round < 20 && !interp.Satisfies(tbox); ++round) {
    for (const dl::ConceptAxiom& ax : tbox.concept_axioms()) {
      if (ax.rhs.negated) continue;
      for (const Value& v : interp.Eval(ax.lhs)) {
        if (ax.rhs.basic.kind == dl::BasicConcept::Kind::kAtomic) {
          interp.AddConceptMember(ax.rhs.basic.atomic, v);
        } else if (interp.Eval(ax.rhs.basic).count(v) == 0) {
          dl::Role r = ax.rhs.basic.role;
          Value filler(fresh++);
          if (r.inverse) {
            interp.AddRolePair(r.name, filler, v);
          } else {
            interp.AddRolePair(r.name, v, filler);
          }
        }
      }
    }
    for (const dl::RoleAxiom& ax : tbox.role_axioms()) {
      if (ax.rhs.negated) continue;
      for (const auto& [x, y] : interp.EvalRole(ax.lhs)) {
        if (ax.rhs.role.inverse) {
          interp.AddRolePair(ax.rhs.role.name, y, x);
        } else {
          interp.AddRolePair(ax.rhs.role.name, x, y);
        }
      }
    }
  }
  if (!interp.Satisfies(tbox)) GTEST_SKIP() << "saturation did not converge";
  // Every certain membership must hold in this model.
  for (const dl::BasicConcept& b : reasoner.Universe()) {
    std::set<Value> model_ext = interp.Eval(b);
    for (const Value& c : CertainMembers(reasoner, abox, b)) {
      EXPECT_TRUE(model_ext.count(c) > 0)
          << "seed " << seed << ": certain " << b.ToString() << "("
          << c.ToString() << ") missing from a model";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AboxSoundnessTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace whynot
