#include "whynot/explain/enumerate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
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

TEST_F(EnumerateTest, CallerOwnedStoresMatchCallLocalOnes) {
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> want,
                       EnumerateAllMges(*wni_));
  ls::LubContext lub(instance_.get());
  ls::EvalCache cache(instance_.get());
  explain::LsAnswerCovers covers(instance_.get(), &wni_->answers);
  ls::ConceptCache concept_cache(instance_.get());
  // The second call finds every cover row and lub the first one built.
  for (int round = 0; round < 2; ++round) {
    ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> got,
                         EnumerateAllMges(*wni_, {}, nullptr, &lub,
                                          &concept_cache, &cache, &covers));
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST_F(EnumerateTest, CallerOwnedCoversNeedCallerOwnedStores) {
  explain::LsAnswerCovers covers(instance_.get(), &wni_->answers);
  auto result = EnumerateAllMges(*wni_, {}, nullptr, nullptr, nullptr,
                                 nullptr, &covers);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
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

// --- Completeness sweeps: enumeration output == brute force over the
// --- materialized selection-free OI[K] fed to Algorithm 1.

using ClassKeys = std::set<std::vector<std::pair<bool, std::vector<Value>>>>;

// q(x0, .., x_{m-1}) :- R0(x0, .., x_{m-1}).
rel::UnionQuery BaseRelationQuery(size_t arity) {
  rel::ConjunctiveQuery cq;
  std::vector<rel::Term> args;
  for (size_t i = 0; i < arity; ++i) {
    cq.head.push_back("x" + std::to_string(i));
    args.push_back(V(cq.head.back()));
  }
  cq.atoms = {A("R0", args)};
  return Q1(cq);
}

// Random instance of RandomSchema(2, arities) (R0 has arity arities[0]),
// 6 rows per relation over {0..4}. Prefers a missing tuple inside adom^m
// (so every position explores the full concept lattice); falls back to
// fresh values when R0 happens to be complete over the domain. Checks that
// the enumeration is duplicate-free and matches the brute force.
void ExpectEnumerationMatchesMaterialized(const std::vector<int>& arities,
                                          uint64_t seed) {
  const size_t m = static_cast<size_t>(arities[0]);
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::RandomSchema(2, arities));
  ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                       workload::RandomInstance(&schema, 6, 5, seed));
  Tuple missing;
  for (size_t i = 0; i < m; ++i) missing.push_back(Value(int64_t(91 + i)));
  // Lexicographic order over {0..4}^m, the last position fastest.
  size_t total = 1;
  for (size_t i = 0; i < m; ++i) total *= 5;
  for (size_t code = 0; code < total; ++code) {
    Tuple t(m, Value(int64_t{0}));
    for (size_t i = 0, c = code; i < m; ++i, c /= 5) {
      t[m - 1 - i] = Value(static_cast<int64_t>(c % 5));
    }
    if (!instance.Contains("R0", t)) {
      missing = t;
      break;
    }
  }
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(&instance, BaseRelationQuery(m), missing));

  EnumerateStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> enumerated,
                       EnumerateAllMges(wni, {}, &stats));
  EXPECT_EQ(stats.duplicate_outputs, 0u) << "seed " << seed;
  EXPECT_EQ(stats.visited_hits, 0u) << "seed " << seed;

  // Brute force: materialize the selection-free fragment over
  // K = adom ∪ missing (includes ⊤ and all conjunct intersections modulo
  // extension equivalence) and run Algorithm 1 for all MGEs.
  ls::MaterializeOptions mat;
  mat.fragment = ls::Fragment::kSelectionFree;
  mat.mode = ls::SubsumptionMode::kInstance;
  mat.max_concepts = 8192;
  ASSERT_OK_AND_ASSIGN(auto ontology,
                       ls::LsOntology::Materialize(&instance, missing, mat));
  onto::BoundOntology bound(ontology.get(), &instance);
  ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> brute,
                       explain::PrunedSearchAllMge(&bound, wni));

  ClassKeys enum_keys;
  for (const LsExplanation& e : enumerated) {
    EXPECT_TRUE(enum_keys.insert(ExtKey(e, instance)).second)
        << "seed " << seed << ": an MGE class was reported twice";
  }
  ClassKeys brute_keys;
  for (const explain::Explanation& e : brute) {
    LsExplanation ls_e;
    for (onto::ConceptId id : e) ls_e.push_back(ontology->Concept(id));
    brute_keys.insert(ExtKey(ls_e, instance));
  }
  EXPECT_EQ(enum_keys, brute_keys)
      << "seed " << seed << ": enumerated " << enum_keys.size()
      << " classes, brute force " << brute_keys.size();
}

class EnumerateCompletenessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumerateCompletenessTest, MatchesExhaustiveOverMaterializedOntology) {
  ExpectEnumerationMatchesMaterialized({2, 1}, GetParam());
}

TEST_P(EnumerateCompletenessTest,
       TernaryMatchesExhaustiveOverMaterializedOntology) {
  ExpectEnumerationMatchesMaterialized({3, 2, 1}, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnumerateCompletenessTest,
                         ::testing::Range<uint64_t>(1, 25));

// A ternary instance on which exclusion branching that treats an excluded
// constant as a single element (rather than part of its lub closure) ran
// past 200,000 nodes; partition branching finishes in about a thousand.
TEST(EnumerateRegressionTest, TernaryInstanceFinishesWithinNodeBudget) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema,
                       workload::RandomSchema(2, {3, 2, 1}));
  ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                       workload::RandomInstance(&schema, 20, 12, /*seed=*/8));
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(&instance, BaseRelationQuery(3),
                                  {Value(2), Value(7), Value(0)}));
  EnumerateOptions options;
  options.max_nodes = 20000;
  EnumerateStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(wni, options, &stats));
  ASSERT_FALSE(mges.empty());
  EXPECT_EQ(stats.duplicate_outputs, 0u);
  ls::LubContext ctx(&instance);
  for (const LsExplanation& e : mges) {
    ASSERT_OK_AND_ASSIGN(
        bool is_mge,
        explain::CheckMgeDerived(wni, e, /*with_selections=*/false, &ctx));
    EXPECT_TRUE(is_mge);
  }
  for (size_t i = 0; i < mges.size(); ++i) {
    for (size_t j = 0; j < mges.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(explain::StrictlyLessGeneralI(instance, mges[i], mges[j]))
          << "output " << i << " strictly below output " << j;
    }
  }
}

// Retail-shaped rows: products in categories, stores in cities and
// regions, every headset unstocked in every California store and one in
// six of the other (product, store) pairs unstocked. The question asks
// why a headset is not stocked in a California store. Excluding one
// headset must exclude the whole headset class, so the enumeration
// settles in a handful of nodes.
TEST(EnumerateRetailTest, HeadsetHoleSettlesInFewNodes) {
  const std::vector<std::string> categories = {"headset", "speaker",
                                               "laptop"};
  const std::vector<std::pair<std::string, std::string>> cities = {
      {"San Francisco", "California"},
      {"Oakland", "California"},
      {"Seattle", "Washington"}};
  rel::Schema schema;
  ASSERT_OK(schema.AddRelation("Products", {"pid", "category"}));
  ASSERT_OK(schema.AddRelation("Stores", {"sid", "city", "region"}));
  ASSERT_OK(schema.AddRelation("Stock", {"pid", "sid"}));
  for (const std::string& cat : categories) {
    ASSERT_OK(schema.AddRelation("Cat_" + cat, {"id"}));
  }
  ASSERT_OK(schema.AddRelation("Region_California", {"id"}));
  ASSERT_OK(schema.AddRelation("Region_Washington", {"id"}));
  rel::Instance instance(&schema);
  std::vector<std::pair<Value, bool>> products;  // (pid, is headset)
  for (const std::string& cat : categories) {
    for (int i = 0; i < 12; ++i) {
      Value pid("P-" + cat + "-" + std::to_string(i));
      ASSERT_OK(instance.AddFact("Products", {pid, Value(cat)}));
      ASSERT_OK(instance.AddFact("Cat_" + cat, {pid}));
      products.emplace_back(pid, cat == "headset");
    }
  }
  std::vector<std::pair<Value, bool>> stores;  // (sid, in California)
  for (const auto& [city, region] : cities) {
    for (int i = 0; i < 8; ++i) {
      Value sid("S-" + city + "-" + std::to_string(i));
      ASSERT_OK(
          instance.AddFact("Stores", {sid, Value(city), Value(region)}));
      ASSERT_OK(instance.AddFact("Region_" + region, {sid}));
      stores.emplace_back(sid, region == "California");
    }
  }
  size_t other = 0;
  for (const auto& [pid, headset] : products) {
    for (const auto& [sid, california] : stores) {
      if (headset && california) continue;
      if (other++ % 6 == 5) continue;
      ASSERT_OK(instance.AddFact("Stock", {pid, sid}));
    }
  }
  rel::ConjunctiveQuery cq;
  cq.head = {"p", "s"};
  cq.atoms = {A("Stock", {V("p"), V("s")})};
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(&instance, Q1(cq),
                                  {Value("P-headset-3"),
                                   Value("S-Oakland-2")}));
  EnumerateStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<LsExplanation> mges,
                       EnumerateAllMges(wni, {}, &stats));
  ASSERT_FALSE(mges.empty());
  EXPECT_LE(stats.nodes_expanded, 10u);
  EXPECT_EQ(stats.duplicate_outputs, 0u);
  ls::LubContext ctx(&instance);
  for (const LsExplanation& e : mges) {
    ASSERT_OK_AND_ASSIGN(
        bool is_mge,
        explain::CheckMgeDerived(wni, e, /*with_selections=*/false, &ctx));
    EXPECT_TRUE(is_mge) << explain::LsExplanationToString(schema, e);
  }
}

}  // namespace
}  // namespace whynot
