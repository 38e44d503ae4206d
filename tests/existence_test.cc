#include <gtest/gtest.h>

#include "test_util.h"

namespace whynot {
namespace {

using explain::Explanation;
using explain::SetCoverInstance;

TEST(SetCoverTest, BruteForceBasics) {
  SetCoverInstance yes{3, {{0, 1}, {1, 2}, {2}}, 2};
  EXPECT_TRUE(explain::BruteForceSetCover(yes));
  SetCoverInstance no{3, {{0}, {1}, {2}}, 2};
  EXPECT_FALSE(explain::BruteForceSetCover(no));
  SetCoverInstance trivial{0, {}, 1};
  EXPECT_TRUE(explain::BruteForceSetCover(trivial));
  SetCoverInstance one_set{4, {{0, 1, 2, 3}}, 1};
  EXPECT_TRUE(explain::BruteForceSetCover(one_set));
}

TEST(ReductionTest, PositiveInstance) {
  SetCoverInstance sc{3, {{0, 1}, {1, 2}}, 2};
  ASSERT_TRUE(explain::BruteForceSetCover(sc));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<explain::SetCoverWhyNot> reduction,
                       explain::ReduceSetCoverToWhyNot(sc));
  onto::BoundOntology bound(reduction->ontology.get(),
                            reduction->instance.get());
  Explanation witness;
  ASSERT_OK_AND_ASSIGN(
      bool exists,
      explain::ExistsExplanation(&bound, reduction->wni, &witness));
  EXPECT_TRUE(exists);
  ASSERT_OK_AND_ASSIGN(
      bool valid, explain::IsExplanation(&bound, reduction->wni, witness));
  EXPECT_TRUE(valid);
}

TEST(ReductionTest, NegativeInstance) {
  SetCoverInstance sc{4, {{0}, {1}, {2, 3}}, 2};
  ASSERT_FALSE(explain::BruteForceSetCover(sc));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<explain::SetCoverWhyNot> reduction,
                       explain::ReduceSetCoverToWhyNot(sc));
  onto::BoundOntology bound(reduction->ontology.get(),
                            reduction->instance.get());
  ASSERT_OK_AND_ASSIGN(bool exists,
                       explain::ExistsExplanation(&bound, reduction->wni));
  EXPECT_FALSE(exists);
}

TEST(ReductionTest, ZeroBoundRejected) {
  SetCoverInstance sc{2, {{0, 1}}, 0};
  EXPECT_FALSE(explain::ReduceSetCoverToWhyNot(sc).ok());
}

TEST(ExistenceTest, NodeCapReported) {
  SetCoverInstance sc =
      explain::RandomSetCover(12, 10, 3, 5, /*seed=*/7);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<explain::SetCoverWhyNot> reduction,
                       explain::ReduceSetCoverToWhyNot(sc));
  onto::BoundOntology bound(reduction->ontology.get(),
                            reduction->instance.get());
  explain::ExistenceOptions options;
  options.max_nodes = 2;
  Result<bool> r =
      explain::ExistsExplanation(&bound, reduction->wni, nullptr, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

/// Theorem 5.1.2 cross-check: the reduction preserves the SET COVER answer
/// on random instances.
class ReductionSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReductionSweepTest, AgreesWithBruteForce) {
  uint64_t seed = GetParam();
  workload::Rng rng(seed);
  size_t universe = 3 + rng.Below(4);   // 3..6
  size_t num_sets = 2 + rng.Below(4);   // 2..5
  size_t set_size = 1 + rng.Below(3);   // 1..3
  size_t bound_k = 1 + rng.Below(3);    // 1..3
  SetCoverInstance sc = explain::RandomSetCover(universe, num_sets, set_size,
                                                bound_k, seed * 31);
  bool expected = explain::BruteForceSetCover(sc);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<explain::SetCoverWhyNot> reduction,
                       explain::ReduceSetCoverToWhyNot(sc));
  onto::BoundOntology bound(reduction->ontology.get(),
                            reduction->instance.get());
  Explanation witness;
  ASSERT_OK_AND_ASSIGN(
      bool exists,
      explain::ExistsExplanation(&bound, reduction->wni, &witness));
  EXPECT_EQ(exists, expected)
      << "universe=" << universe << " sets=" << num_sets
      << " bound=" << bound_k << " seed=" << seed;
  if (exists) {
    ASSERT_OK_AND_ASSIGN(
        bool valid, explain::IsExplanation(&bound, reduction->wni, witness));
    EXPECT_TRUE(valid);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReductionSweepTest,
                         ::testing::Range<uint64_t>(1, 41));

/// Existence must also agree with "Algorithm 1 returns a non-empty set".
class ExistenceVsExhaustiveTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExistenceVsExhaustiveTest, Agree) {
  uint64_t seed = GetParam();
  workload::Rng rng(seed + 100);
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  std::vector<Value> domain;
  for (int i = 0; i < 7; ++i) domain.push_back(Value(i));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<onto::ExplicitOntology> ontology,
                       workload::RandomTreeOntology(domain, 7, seed));
  onto::BoundOntology bound(ontology.get(), &instance);
  std::vector<Tuple> answers;
  for (int i = 0; i < 8; ++i) {
    answers.push_back({domain[rng.Below(domain.size())],
                       domain[rng.Below(domain.size())]});
  }
  Tuple missing = {domain[rng.Below(domain.size())],
                   domain[rng.Below(domain.size())]};
  auto wni_or =
      explain::MakeWhyNotInstanceFromAnswers(&instance, answers, missing);
  if (!wni_or.ok()) return;
  ASSERT_OK_AND_ASSIGN(bool exists,
                       explain::ExistsExplanation(&bound, wni_or.value()));
  ASSERT_OK_AND_ASSIGN(
      std::vector<Explanation> mges,
      explain::PrunedSearchAllMge(&bound, wni_or.value()));
  EXPECT_EQ(exists, !mges.empty()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExistenceVsExhaustiveTest,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace whynot
