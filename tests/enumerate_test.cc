#include "whynot/explain/enumerate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

using explain::EnumerateAllMges;
using explain::EnumerateOptions;
using explain::EnumerateStats;
using explain::LsExplanation;
using explain::WhyNotInstance;
using testutil::A;
using testutil::Q1;
using testutil::V;

// Canonical key of an explanation: the tuple of extensions on I.
std::vector<std::pair<bool, std::vector<Value>>> ExtKey(
    const LsExplanation& e, const rel::Instance& instance) {
  std::vector<std::pair<bool, std::vector<Value>>> key;
  for (const ls::LsConcept& c : e) {
    ls::Extension ext = ls::Eval(c, instance);
    key.emplace_back(ext.all, ext.values());
  }
  return key;
}

// The Figures 1-2 travel world with the two-hop query and the paper's
// why-not pair (Amsterdam, New York).
class EnumerateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, workload::CitiesDataSchema());
    ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                         workload::CitiesInstance(&schema_));
    instance_ = std::make_unique<rel::Instance>(std::move(instance));
    ASSERT_OK_AND_ASSIGN(
        WhyNotInstance wni,
        explain::MakeWhyNotInstance(instance_.get(),
                                    workload::ConnectedViaQuery(),
                                    {"Amsterdam", "New York"}));
    wni_ = std::make_unique<WhyNotInstance>(std::move(wni));
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<WhyNotInstance> wni_;
};

TEST_F(EnumerateTest, EveryOutputIsAnExplanation) {
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(*wni_));
  ASSERT_FALSE(mges.empty());
  for (const LsExplanation& e : mges) {
    EXPECT_TRUE(explain::IsLsExplanation(*wni_, e))
        << explain::LsExplanationToString(schema_, e);
  }
}

TEST_F(EnumerateTest, EveryOutputPassesCheckMge) {
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(*wni_));
  ls::LubContext ctx(instance_.get());
  for (const LsExplanation& e : mges) {
    ASSERT_OK_AND_ASSIGN(
        bool is_mge,
        explain::CheckMgeDerived(*wni_, e, /*with_selections=*/false, &ctx));
    EXPECT_TRUE(is_mge) << explain::LsExplanationToString(schema_, e);
  }
}

TEST_F(EnumerateTest, OutputsArePairwiseIncomparable) {
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(*wni_));
  for (size_t i = 0; i < mges.size(); ++i) {
    for (size_t j = 0; j < mges.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(explain::StrictlyLessGeneralI(*instance_, mges[i], mges[j]))
          << "output " << i << " strictly below output " << j;
    }
  }
}

TEST_F(EnumerateTest, OutputsAreDistinctModuloEquivalence) {
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(*wni_));
  std::set<std::vector<std::pair<bool, std::vector<Value>>>> keys;
  for (const LsExplanation& e : mges) {
    EXPECT_TRUE(keys.insert(ExtKey(e, *instance_)).second)
        << "duplicate: " << explain::LsExplanationToString(schema_, e);
  }
}

TEST_F(EnumerateTest, ContainsIncrementalSearchOutput) {
  ASSERT_OK_AND_ASSIGN(LsExplanation one, explain::IncrementalSearch(*wni_));
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> all,
                       EnumerateAllMges(*wni_));
  auto one_key = ExtKey(one, *instance_);
  bool found = false;
  for (const LsExplanation& e : all) {
    if (ExtKey(e, *instance_) == one_key) found = true;
  }
  EXPECT_TRUE(found) << "Algorithm 2's MGE missing from the enumeration";
}

TEST_F(EnumerateTest, WithSelectionsOutputsPassSelectionAwareCheckMge) {
  EnumerateOptions options;
  options.with_selections = true;
  options.max_results = 50;
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(*wni_, options));
  ASSERT_FALSE(mges.empty());
  ls::LubContext ctx(instance_.get());
  for (const LsExplanation& e : mges) {
    ASSERT_OK_AND_ASSIGN(
        bool is_mge,
        explain::CheckMgeDerived(*wni_, e, /*with_selections=*/true, &ctx));
    EXPECT_TRUE(is_mge) << explain::LsExplanationToString(schema_, e);
  }
}

TEST_F(EnumerateTest, MaxResultsCapRespected) {
  EnumerateOptions options;
  options.max_results = 1;
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(*wni_, options));
  EXPECT_EQ(mges.size(), 1u);
}

TEST_F(EnumerateTest, MaxNodesCapReturnsResourceExhausted) {
  EnumerateOptions options;
  options.max_nodes = 0;
  auto result = EnumerateAllMges(*wni_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(EnumerateTest, StatsArePopulated) {
  EnumerateStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(*wni_, {}, &stats));
  EXPECT_GE(stats.nodes_expanded, mges.size());
  EXPECT_GE(stats.max_delay, 1u);
}

TEST(EnumerateEdgeTest, EmptyAnswersYieldSingleAllTopMge) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  ASSERT_OK(instance.AddFact("R", {1, 2}));
  // q(x, y) :- R(x, y), R(y, x): no symmetric pair exists, so Ans = ∅.
  rel::ConjunctiveQuery cq;
  cq.head = {"x", "y"};
  cq.atoms = {A("R", {V("x"), V("y")}), A("R", {V("y"), V("x")})};
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(&instance, Q1(cq), {Value(7), Value(8)}));
  ASSERT_TRUE(wni.answers.empty());
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(wni));
  ASSERT_EQ(mges.size(), 1u);
  for (const ls::LsConcept& c : mges[0]) {
    EXPECT_TRUE(ls::Eval(c, instance).all)
        << "with Ans = ∅ the unique MGE is (⊤, ..., ⊤)";
  }
}

// --- Completeness sweep: enumeration output == brute force over the
// --- materialized selection-free OI[K] fed to Algorithm 1.
class EnumerateCompletenessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumerateCompletenessTest, MatchesExhaustiveOverMaterializedOntology) {
  uint64_t seed = GetParam();
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::RandomSchema(2, {2, 1}));
  ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                       workload::RandomInstance(&schema, 6, 5, seed));

  // Query: q(x, y) :- R0(x, y). Prefer a missing tuple inside adom × adom
  // (so both positions explore the full concept lattice); fall back to a
  // fresh pair when R0 happens to be complete over the domain.
  rel::ConjunctiveQuery cq;
  cq.head = {"x", "y"};
  cq.atoms = {A("R0", {V("x"), V("y")})};
  Tuple missing = {Value(91), Value(92)};
  for (int64_t x = 0; x < 5 && missing[0] == Value(91); ++x) {
    for (int64_t y = 0; y < 5; ++y) {
      if (!instance.Contains("R0", {Value(x), Value(y)})) {
        missing = {Value(x), Value(y)};
        break;
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(&instance, Q1(cq), missing));

  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> enumerated,
                       EnumerateAllMges(wni));

  // Brute force: materialize the selection-free fragment over
  // K = adom ∪ {91, 92} (includes ⊤ and all conjunct intersections modulo
  // extension equivalence) and run Algorithm 1 for all MGEs.
  ls::MaterializeOptions mat;
  mat.fragment = ls::Fragment::kSelectionFree;
  mat.mode = ls::SubsumptionMode::kInstance;
  mat.max_concepts = 8192;
  ASSERT_OK_AND_ASSIGN(
      auto ontology,
      ls::LsOntology::Materialize(&instance, {missing[0], missing[1]}, mat));
  onto::BoundOntology bound(ontology.get(), &instance);
  ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> brute,
                       explain::PrunedSearchAllMge(&bound, wni));

  std::set<std::vector<std::pair<bool, std::vector<Value>>>> enum_keys;
  for (const LsExplanation& e : enumerated) {
    enum_keys.insert(ExtKey(e, instance));
  }
  std::set<std::vector<std::pair<bool, std::vector<Value>>>> brute_keys;
  for (const explain::Explanation& e : brute) {
    LsExplanation ls_e;
    for (onto::ConceptId id : e) ls_e.push_back(ontology->Concept(id));
    brute_keys.insert(ExtKey(ls_e, instance));
  }
  EXPECT_EQ(enum_keys, brute_keys)
      << "seed " << seed << ": enumerated " << enum_keys.size()
      << " classes, brute force " << brute_keys.size();
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnumerateCompletenessTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace whynot
