#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

using rel::CmpOp;
using rel::ConjunctiveQuery;
using testutil::A;
using testutil::C;
using testutil::Q1;
using testutil::V;

TEST(SchemaTest, AddAndFind) {
  rel::Schema s = testutil::SimpleSchema();
  ASSERT_NE(s.Find("R"), nullptr);
  EXPECT_EQ(s.Find("R")->arity(), 2u);
  EXPECT_EQ(s.Find("R")->AttrIndex("b"), 1);
  EXPECT_EQ(s.Find("R")->AttrIndex("zzz"), -1);
  EXPECT_EQ(s.Find("nope"), nullptr);
  EXPECT_FALSE(s.AddRelation("R", {"x"}).ok());   // duplicate
  EXPECT_FALSE(s.AddRelation("E", {}).ok());      // arity 0
}

TEST(SchemaTest, ConstraintValidation) {
  rel::Schema s = testutil::SimpleSchema();
  EXPECT_OK(s.AddFd({"R", {0}, {1}}));
  EXPECT_FALSE(s.AddFd({"R", {0}, {5}}).ok());
  EXPECT_FALSE(s.AddFd({"Z", {0}, {1}}).ok());
  EXPECT_OK(s.AddId({"R", {0}, "U", {0}}));
  EXPECT_FALSE(s.AddId({"R", {0, 1}, "U", {0}}).ok());  // length mismatch
}

TEST(InstanceTest, AddFactsSetSemantics) {
  rel::Schema s = testutil::SimpleSchema();
  rel::Instance i(&s);
  ASSERT_OK(i.AddFact("R", {Value(1), Value(2)}));
  ASSERT_OK(i.AddFact("R", {Value(1), Value(2)}));  // duplicate ignored
  EXPECT_EQ(i.Relation("R").size(), 1u);
  EXPECT_TRUE(i.Contains("R", {Value(1), Value(2)}));
  EXPECT_FALSE(i.Contains("R", {Value(2), Value(1)}));
  EXPECT_FALSE(i.AddFact("R", {Value(1)}).ok());       // arity
  EXPECT_FALSE(i.AddFact("Z", {Value(1)}).ok());       // unknown
  EXPECT_EQ(i.NumFacts(), 1u);
}

TEST(InstanceTest, ActiveDomainSortedDistinct) {
  rel::Schema s = testutil::SimpleSchema();
  rel::Instance i(&s);
  ASSERT_OK(i.AddFact("R", {Value("b"), Value(3)}));
  ASSERT_OK(i.AddFact("U", {Value("b")}));
  ASSERT_OK(i.AddFact("U", {Value("a")}));
  std::vector<Value> adom = i.ActiveDomain();
  ASSERT_EQ(adom.size(), 3u);
  EXPECT_EQ(adom[0], Value(3));
  EXPECT_EQ(adom[1], Value("a"));
  EXPECT_EQ(adom[2], Value("b"));
}

TEST(InstanceTest, GenerationMovesOnlyOnNonAppendWrites) {
  rel::Schema s = testutil::SimpleSchema();
  rel::Instance i(&s);
  ASSERT_OK(i.AddFact("R", {Value(1), Value(2)}));
  ASSERT_OK(i.AddFact("U", {Value(1)}));
  const uint64_t g0 = i.generation();
  i.ClearRelation("R");  // clearing a non-empty relation
  EXPECT_GT(i.generation(), g0);
  const uint64_t g1 = i.generation();
  i.ClearRelation("R");  // already empty: nothing changes
  ASSERT_OK(i.AddFact("R", {Value(1), Value(2)}));  // refill: an append
  EXPECT_EQ(i.generation(), g1);

  rel::Instance other(i);  // a copy carries the generation
  EXPECT_EQ(other.generation(), g1);
  other.ClearRelation("U");
  other.ClearRelation("R");
  i = other;  // replacing the contents moves past both operands
  EXPECT_GT(i.generation(), other.generation());
  const uint64_t g2 = i.generation();
  i = rel::Instance(&s);
  EXPECT_GT(i.generation(), g2);
}

TEST(ConstraintsTest, FdSatisfaction) {
  rel::Schema s = testutil::SimpleSchema();
  rel::FunctionalDependency fd{"R", {0}, {1}};
  rel::Instance good(&s);
  ASSERT_OK(good.AddFact("R", {Value(1), Value(2)}));
  ASSERT_OK(good.AddFact("R", {Value(2), Value(2)}));
  EXPECT_TRUE(SatisfiesFd(good, fd, nullptr));

  rel::Instance bad(&s);
  ASSERT_OK(bad.AddFact("R", {Value(1), Value(2)}));
  ASSERT_OK(bad.AddFact("R", {Value(1), Value(3)}));
  std::string why;
  EXPECT_FALSE(SatisfiesFd(bad, fd, &why));
  EXPECT_FALSE(why.empty());
}

TEST(ConstraintsTest, IdSatisfaction) {
  rel::Schema s = testutil::SimpleSchema();
  rel::InclusionDependency id{"R", {0}, "U", {0}};
  rel::Instance good(&s);
  ASSERT_OK(good.AddFact("R", {Value(1), Value(2)}));
  ASSERT_OK(good.AddFact("U", {Value(1)}));
  EXPECT_TRUE(SatisfiesId(good, id, nullptr));

  rel::Instance bad(&s);
  ASSERT_OK(bad.AddFact("R", {Value(1), Value(2)}));
  std::string why;
  EXPECT_FALSE(SatisfiesId(bad, id, &why));
  EXPECT_FALSE(why.empty());
}

TEST(ConstraintsTest, InstanceSatisfiesConstraints) {
  rel::Schema s = testutil::SimpleSchema();
  ASSERT_OK(s.AddFd({"R", {0}, {1}}));
  ASSERT_OK(s.AddId({"R", {1}, "U", {0}}));
  rel::Instance i(&s);
  ASSERT_OK(i.AddFact("R", {Value(1), Value(2)}));
  ASSERT_OK(i.AddFact("U", {Value(2)}));
  EXPECT_OK(i.SatisfiesConstraints());
  ASSERT_OK(i.AddFact("R", {Value(1), Value(3)}));  // violates the FD
  EXPECT_FALSE(i.SatisfiesConstraints().ok());
}

TEST(CmpTest, AllOperators) {
  EXPECT_TRUE(rel::EvalCmp(Value(1), CmpOp::kLt, Value(2)));
  EXPECT_TRUE(rel::EvalCmp(Value(2), CmpOp::kLe, Value(2)));
  EXPECT_TRUE(rel::EvalCmp(Value(3), CmpOp::kGt, Value(2)));
  EXPECT_TRUE(rel::EvalCmp(Value(2), CmpOp::kGe, Value(2)));
  EXPECT_TRUE(rel::EvalCmp(Value("a"), CmpOp::kEq, Value("a")));
  EXPECT_FALSE(rel::EvalCmp(Value("a"), CmpOp::kGt, Value("b")));
}

class CqEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = testutil::SimpleSchema();
    instance_ = std::make_unique<rel::Instance>(&schema_);
    // R = {(1,2), (2,3), (3,1), (2,2)}; U = {2, 3}.
    ASSERT_OK(instance_->AddFact("R", {Value(1), Value(2)}));
    ASSERT_OK(instance_->AddFact("R", {Value(2), Value(3)}));
    ASSERT_OK(instance_->AddFact("R", {Value(3), Value(1)}));
    ASSERT_OK(instance_->AddFact("R", {Value(2), Value(2)}));
    ASSERT_OK(instance_->AddFact("U", {Value(2)}));
    ASSERT_OK(instance_->AddFact("U", {Value(3)}));
  }
  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
};

TEST_F(CqEvalTest, SingleAtomProjection) {
  ConjunctiveQuery q;
  q.head = {"x"};
  q.atoms = {A("R", {V("x"), V("y")})};
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> ans, Evaluate(q, *instance_));
  EXPECT_EQ(ans, (std::vector<Tuple>{{Value(1)}, {Value(2)}, {Value(3)}}));
}

TEST_F(CqEvalTest, JoinViaSharedVariable) {
  // q(x, z) :- R(x, y), R(y, z).
  ConjunctiveQuery q;
  q.head = {"x", "z"};
  q.atoms = {A("R", {V("x"), V("y")}), A("R", {V("y"), V("z")})};
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> ans, Evaluate(q, *instance_));
  // (1,2)->(2,3),(2,2); (2,3)->(3,1); (3,1)->(1,2); (2,2)->(2,3),(2,2).
  std::vector<Tuple> expected = {{Value(1), Value(2)}, {Value(1), Value(3)},
                                 {Value(2), Value(1)}, {Value(2), Value(2)},
                                 {Value(2), Value(3)}, {Value(3), Value(2)}};
  EXPECT_EQ(ans, expected);
}

TEST_F(CqEvalTest, ComparisonsFilter) {
  // q(x) :- R(x, y), y >= 2, x < 3.
  ConjunctiveQuery q;
  q.head = {"x"};
  q.atoms = {A("R", {V("x"), V("y")})};
  q.comparisons = {{"y", CmpOp::kGe, Value(2)}, {"x", CmpOp::kLt, Value(3)}};
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> ans, Evaluate(q, *instance_));
  EXPECT_EQ(ans, (std::vector<Tuple>{{Value(1)}, {Value(2)}}));
}

TEST_F(CqEvalTest, ConstantsInAtoms) {
  // q(y) :- R(2, y).
  ConjunctiveQuery q;
  q.head = {"y"};
  q.atoms = {A("R", {C(Value(2)), V("y")})};
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> ans, Evaluate(q, *instance_));
  EXPECT_EQ(ans, (std::vector<Tuple>{{Value(2)}, {Value(3)}}));
}

TEST_F(CqEvalTest, RepeatedVariableInAtom) {
  // q(x) :- R(x, x).
  ConjunctiveQuery q;
  q.head = {"x"};
  q.atoms = {A("R", {V("x"), V("x")})};
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> ans, Evaluate(q, *instance_));
  EXPECT_EQ(ans, (std::vector<Tuple>{{Value(2)}}));
}

TEST_F(CqEvalTest, CrossJoinAndBooleanMatch) {
  ConjunctiveQuery q;
  q.head = {};
  q.atoms = {A("U", {V("x")}), A("R", {V("x"), V("x")})};
  ASSERT_OK_AND_ASSIGN(bool match, HasMatch(q, *instance_));
  EXPECT_TRUE(match);  // x = 2

  ConjunctiveQuery q2;
  q2.head = {};
  q2.atoms = {A("R", {V("x"), V("x")})};
  q2.comparisons = {{"x", CmpOp::kGt, Value(5)}};
  ASSERT_OK_AND_ASSIGN(bool match2, HasMatch(q2, *instance_));
  EXPECT_FALSE(match2);
}

TEST_F(CqEvalTest, UnionQueryDeduplicates) {
  ConjunctiveQuery q1;
  q1.head = {"x"};
  q1.atoms = {A("U", {V("x")})};
  ConjunctiveQuery q2;
  q2.head = {"x"};
  q2.atoms = {A("R", {V("x"), V("y")})};
  rel::UnionQuery u;
  u.disjuncts = {q1, q2};
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> ans, Evaluate(u, *instance_));
  EXPECT_EQ(ans, (std::vector<Tuple>{{Value(1)}, {Value(2)}, {Value(3)}}));
}

TEST_F(CqEvalTest, ValidationErrors) {
  ConjunctiveQuery q;
  q.head = {"w"};  // not in any atom
  q.atoms = {A("R", {V("x"), V("y")})};
  EXPECT_FALSE(Evaluate(q, *instance_).ok());

  ConjunctiveQuery q2;
  q2.head = {"x"};
  q2.atoms = {A("R", {V("x")})};  // wrong arity
  EXPECT_FALSE(Evaluate(q2, *instance_).ok());

  ConjunctiveQuery q3;
  q3.head = {"x"};
  q3.atoms = {A("Z", {V("x")})};  // unknown relation
  EXPECT_FALSE(Evaluate(q3, *instance_).ok());
}

// --- Semi-naive delta evaluation --------------------------------------------

rel::UnionQuery Union(std::vector<ConjunctiveQuery> disjuncts) {
  rel::UnionQuery q;
  q.disjuncts = std::move(disjuncts);
  return q;
}

ConjunctiveQuery Cq(std::vector<std::string> head, std::vector<rel::Atom> atoms,
                    std::vector<rel::Comparison> comparisons = {}) {
  ConjunctiveQuery cq;
  cq.head = std::move(head);
  cq.atoms = std::move(atoms);
  cq.comparisons = std::move(comparisons);
  return cq;
}

/// One query of each shape the delta join must get right.
std::vector<rel::UnionQuery> DeltaQueries() {
  return {
      // The ConnectedViaQuery self-join.
      Q1(Cq({"x", "y"}, {A("R", {V("x"), V("z")}), A("R", {V("z"), V("y")})})),
      // Constants and comparisons across two relations.
      Q1(Cq({"x"}, {A("R", {V("x"), V("y")}), A("S", {V("y"), C(Value(3))})},
            {{"x", CmpOp::kGe, Value(2)}, {"y", CmpOp::kLt, Value(9)}})),
      // A union whose second disjunct joins three atoms.
      Union({Cq({"x", "y"}, {A("S", {V("x"), V("y")})}),
             Cq({"x", "y"}, {A("U", {V("x")}), A("R", {V("x"), V("z")}),
                             A("S", {V("z"), V("y")})})}),
      // U may hold no fact when the marks are taken (Find returns null).
      Q1(Cq({"y"}, {A("U", {V("x")}), A("R", {V("x"), V("y")})})),
      // A Boolean query: one empty answer or none.
      Q1(Cq({}, {A("R", {V("x"), V("x")})})),
  };
}

/// A fact for a random append: mostly old constants, sometimes a new one
/// (negative ints and strings sort before/after every old value and so
/// shift ValuePool::Rank of old ids), sometimes a copy of a stored fact.
std::pair<std::string, Tuple> RandomAppend(const rel::Instance& instance,
                                           workload::Rng* rng, int* fresh) {
  static const char* const kRelations[] = {"R", "S", "U"};
  std::string rel = kRelations[rng->Below(3)];
  const std::vector<Tuple>& stored = instance.Relation(rel);
  if (!stored.empty() && rng->Chance(1, 5)) {
    return {rel, stored[rng->Below(stored.size())]};  // a duplicate
  }
  auto value = [&]() -> Value {
    if (!rng->Chance(1, 6)) return Value(static_cast<int64_t>(rng->Below(10)));
    ++*fresh;
    return rng->Chance(1, 2) ? Value(static_cast<int64_t>(-*fresh))
                             : Value("new" + std::to_string(*fresh));
  };
  Tuple t = {value()};
  if (rel != "U") t.push_back(value());
  return {rel, t};
}

std::vector<Tuple> Boxed(const rel::Instance& instance,
                         const std::vector<std::vector<ValueId>>& rows) {
  std::vector<Tuple> out;
  for (const std::vector<ValueId>& row : rows) {
    Tuple t;
    for (ValueId id : row) t.push_back(instance.pool().Get(id));
    out.push_back(std::move(t));
  }
  return out;
}

TEST(DeltaEvalTest, OldAnswersUnionDeltaEqualsFullEvaluation) {
  const char* env = std::getenv("WHYNOT_TEST_SEED");
  const uint64_t base_seed = env != nullptr ? std::strtoull(env, nullptr, 10)
                                            : 20261019;
  std::printf("DeltaEvalTest seed %llu (set WHYNOT_TEST_SEED to vary)\n",
              static_cast<unsigned long long>(base_seed));
  rel::Schema schema;
  ASSERT_OK(schema.AddRelation("R", {"a", "b"}));
  ASSERT_OK(schema.AddRelation("S", {"a", "b"}));
  ASSERT_OK(schema.AddRelation("U", {"a"}));
  const std::vector<rel::UnionQuery> queries = DeltaQueries();
  size_t nonempty_deltas = 0;
  for (uint64_t seed = base_seed; seed < base_seed + 40; ++seed) {
    workload::Rng rng(seed);
    rel::Instance instance(&schema);
    // Sizes on both sides of StoredRelation::kIndexMinRows, so the delta
    // passes narrow posting lists as well as scan windows.
    for (const char* rel : {"R", "S", "U"}) {
      size_t rows = rng.Below(2) == 0 ? rng.Below(12) : 20 + rng.Below(50);
      if (std::string(rel) == "U" && seed % 3 == 0) rows = 0;
      for (size_t r = 0; r < rows; ++r) {
        Tuple t = {Value(static_cast<int64_t>(rng.Below(10)))};
        if (std::string(rel) != "U") {
          t.push_back(Value(static_cast<int64_t>(rng.Below(10))));
        }
        ASSERT_OK(instance.AddFact(rel, t));
      }
    }
    std::vector<rel::RowMarks> marks;
    std::vector<std::vector<Tuple>> old;
    for (const rel::UnionQuery& q : queries) {
      marks.push_back(rel::MarkRows(q, instance));
      ASSERT_OK_AND_ASSIGN(std::vector<std::vector<ValueId>> ids,
                           rel::EvaluateIds(q, instance));
      old.push_back(Boxed(instance, ids));
    }
    int fresh = 0;
    for (int round = 0; round < 4; ++round) {
      if (round == 1) {
        // A path through two new rows: neither row alone joins.
        ++fresh;
        Value mid("via" + std::to_string(fresh));
        ASSERT_OK(instance.AddFact("R", {Value(static_cast<int64_t>(rng.Below(10))), mid}));
        ASSERT_OK(instance.AddFact("R", {mid, Value(static_cast<int64_t>(rng.Below(10)))}));
      } else {
        for (uint64_t w = 0, n = 1 + rng.Below(4); w < n; ++w) {
          auto [rel, fact] = RandomAppend(instance, &rng, &fresh);
          ASSERT_OK(instance.AddFact(rel, fact));
        }
      }
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                     std::to_string(round) + " query " +
                     queries[qi].ToString());
        ASSERT_OK_AND_ASSIGN(std::vector<std::vector<ValueId>> delta_ids,
                             rel::EvaluateIds(queries[qi], instance, marks[qi]));
        ASSERT_OK_AND_ASSIGN(std::vector<std::vector<ValueId>> full_ids,
                             rel::EvaluateIds(queries[qi], instance));
        std::vector<Tuple> delta = Boxed(instance, delta_ids);
        std::vector<Tuple> full = Boxed(instance, full_ids);
        // Δ is sorted and duplicate-free in the Value order, like q(I).
        EXPECT_TRUE(std::adjacent_find(delta.begin(), delta.end(),
                                       [](const Tuple& a, const Tuple& b) {
                                         return !(a < b);
                                       }) == delta.end());
        std::vector<Tuple> merged;
        std::set_union(old[qi].begin(), old[qi].end(), delta.begin(),
                       delta.end(), std::back_inserter(merged));
        EXPECT_EQ(merged, full);
        if (!delta.empty()) ++nonempty_deltas;
        // Nothing appended since: the delta is empty.
        rel::RowMarks now = rel::MarkRows(queries[qi], instance);
        ASSERT_OK_AND_ASSIGN(std::vector<std::vector<ValueId>> none,
                             rel::EvaluateIds(queries[qi], instance, now));
        EXPECT_TRUE(none.empty());
        old[qi] = std::move(full);
        marks[qi] = std::move(now);
      }
    }
  }
  EXPECT_GT(nonempty_deltas, 100u);  // the sweep exercises real deltas
}

TEST(CqToStringTest, ReadableRendering) {
  ConjunctiveQuery q;
  q.head = {"x"};
  q.atoms = {A("R", {V("x"), C(Value("c"))})};
  q.comparisons = {{"x", CmpOp::kGe, Value(5)}};
  EXPECT_EQ(q.ToString(), "q(x) :- R(x, \"c\"), x >= 5");
}

}  // namespace
}  // namespace whynot
