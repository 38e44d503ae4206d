// Property tests for the columnar interned instance store (PR 2): the
// id-space CQ evaluator, the id-space constraint checks, and the interning
// machinery must agree exactly with a boxed-tuple reference implementation
// on random instances, and the pool's order index must preserve the Value
// total order across int / double / string.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

using rel::CmpOp;
using rel::ConjunctiveQuery;
using testutil::A;
using testutil::C;
using testutil::V;
using workload::Rng;

// --- Boxed-tuple reference implementations. --------------------------------

/// Naive nested-loop CQ evaluation over the Tuple compatibility view —
/// the pre-columnar semantics the id-space join must reproduce bit for bit.
class ReferenceEvaluator {
 public:
  ReferenceEvaluator(const ConjunctiveQuery& query,
                     const rel::Instance& instance)
      : query_(query), instance_(instance) {}

  std::vector<Tuple> Evaluate() {
    out_.clear();
    Descend(0);
    std::sort(out_.begin(), out_.end());
    out_.erase(std::unique(out_.begin(), out_.end()), out_.end());
    return out_;
  }

 private:
  void Descend(size_t atom_idx) {
    if (atom_idx == query_.atoms.size()) {
      for (const rel::Comparison& cmp : query_.comparisons) {
        if (!rel::EvalCmp(binding_.at(cmp.var), cmp.op, cmp.constant)) return;
      }
      Tuple head;
      for (const std::string& v : query_.head) head.push_back(binding_.at(v));
      out_.push_back(std::move(head));
      return;
    }
    const rel::Atom& atom = query_.atoms[atom_idx];
    for (const Tuple& tuple : instance_.Relation(atom.relation)) {
      std::vector<std::string> bound_here;
      bool match = true;
      for (size_t i = 0; i < atom.args.size() && match; ++i) {
        const rel::Term& term = atom.args[i];
        if (!term.is_var()) {
          match = term.constant() == tuple[i];
        } else if (binding_.count(term.var()) > 0) {
          match = binding_.at(term.var()) == tuple[i];
        } else {
          binding_.emplace(term.var(), tuple[i]);
          bound_here.push_back(term.var());
        }
      }
      if (match) Descend(atom_idx + 1);
      for (const std::string& v : bound_here) binding_.erase(v);
    }
  }

  const ConjunctiveQuery& query_;
  const rel::Instance& instance_;
  std::map<std::string, Value> binding_;
  std::vector<Tuple> out_;
};

bool ReferenceSatisfiesFd(const rel::Instance& instance,
                          const rel::FunctionalDependency& fd) {
  std::map<Tuple, Tuple> seen;
  for (const Tuple& t : instance.Relation(fd.relation)) {
    Tuple key, val;
    for (int a : fd.lhs) key.push_back(t[static_cast<size_t>(a)]);
    for (int a : fd.rhs) val.push_back(t[static_cast<size_t>(a)]);
    auto [it, inserted] = seen.emplace(std::move(key), val);
    if (!inserted && it->second != val) return false;
  }
  return true;
}

bool ReferenceSatisfiesId(const rel::Instance& instance,
                          const rel::InclusionDependency& id) {
  std::set<Tuple> rhs;
  for (const Tuple& t : instance.Relation(id.rhs_relation)) {
    Tuple key;
    for (int a : id.rhs_attrs) key.push_back(t[static_cast<size_t>(a)]);
    rhs.insert(std::move(key));
  }
  for (const Tuple& t : instance.Relation(id.lhs_relation)) {
    Tuple key;
    for (int a : id.lhs_attrs) key.push_back(t[static_cast<size_t>(a)]);
    if (rhs.count(key) == 0) return false;
  }
  return true;
}

// --- Random data with all three value kinds. -------------------------------

Value RandomValue(Rng* rng, int domain) {
  uint64_t k = rng->Below(static_cast<uint64_t>(domain));
  switch (rng->Below(4)) {
    case 0:
      return Value(static_cast<int64_t>(k));
    case 1:
      return Value(static_cast<double>(k) + 0.5);
    case 2:
      return Value("s" + std::to_string(k));
    default:  // int/double aliasing: 2 and 2.0 must intern identically
      return Value(static_cast<double>(k));
  }
}

rel::Schema TwoRelationSchema() {
  rel::Schema schema;
  EXPECT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"a", "b", "c"}).ok());
  return schema;
}

rel::Instance RandomMixedInstance(const rel::Schema* schema, Rng* rng,
                                  int rows, int domain) {
  rel::Instance instance(schema);
  for (const rel::RelationDef& def : schema->relations()) {
    for (int i = 0; i < rows; ++i) {
      Tuple t;
      for (size_t a = 0; a < def.arity(); ++a) {
        t.push_back(RandomValue(rng, domain));
      }
      EXPECT_TRUE(instance.AddFact(def.name(), std::move(t)).ok());
    }
  }
  return instance;
}

ConjunctiveQuery RandomQuery(Rng* rng, int domain) {
  // 1-3 atoms over {R/2, S/3}, variables drawn from a pool of 4 so joins
  // and repeated variables occur, plus occasional constants/comparisons.
  const std::vector<std::string> vars = {"x", "y", "z", "w"};
  ConjunctiveQuery q;
  size_t num_atoms = 1 + rng->Below(3);
  std::vector<std::string> used;
  for (size_t i = 0; i < num_atoms; ++i) {
    bool ternary = rng->Chance(1, 3);
    rel::Atom atom;
    atom.relation = ternary ? "S" : "R";
    size_t arity = ternary ? 3 : 2;
    for (size_t a = 0; a < arity; ++a) {
      if (rng->Chance(1, 6)) {
        atom.args.push_back(C(RandomValue(rng, domain)));
      } else {
        const std::string& v = vars[rng->Below(vars.size())];
        atom.args.push_back(V(v));
        used.push_back(v);
      }
    }
    q.atoms.push_back(std::move(atom));
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  if (used.empty()) return q;  // Boolean query over constants only
  for (const std::string& v : used) {
    if (rng->Chance(1, 2)) q.head.push_back(v);
  }
  if (rng->Chance(1, 2)) {
    static const CmpOp kOps[] = {CmpOp::kEq, CmpOp::kLt, CmpOp::kGt,
                                 CmpOp::kLe, CmpOp::kGe};
    q.comparisons.push_back({used[rng->Below(used.size())],
                             kOps[rng->Below(5)], RandomValue(rng, domain)});
  }
  return q;
}

// --- Id-space evaluation vs boxed reference. -------------------------------

class ColumnarAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarAgreementTest, EvaluateMatchesReferenceEvaluator) {
  Rng rng(GetParam());
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance =
      RandomMixedInstance(&schema, &rng, /*rows=*/20, /*domain=*/8);
  for (int qi = 0; qi < 25; ++qi) {
    ConjunctiveQuery q = RandomQuery(&rng, 8);
    if (!q.Validate(schema).ok()) continue;
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> got, Evaluate(q, instance));
    std::vector<Tuple> want = ReferenceEvaluator(q, instance).Evaluate();
    EXPECT_EQ(got, want) << "seed " << GetParam() << " query " << q.ToString();
  }
}

TEST_P(ColumnarAgreementTest, HasMatchAgreesWithEvaluate) {
  Rng rng(GetParam() ^ 0xabcdefull);
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance =
      RandomMixedInstance(&schema, &rng, /*rows=*/15, /*domain=*/6);
  for (int qi = 0; qi < 25; ++qi) {
    ConjunctiveQuery q = RandomQuery(&rng, 6);
    if (!q.Validate(schema).ok()) continue;
    ASSERT_OK_AND_ASSIGN(bool match, HasMatch(q, instance));
    std::vector<Tuple> want = ReferenceEvaluator(q, instance).Evaluate();
    EXPECT_EQ(match, !want.empty())
        << "seed " << GetParam() << " query " << q.ToString();
  }
}

TEST_P(ColumnarAgreementTest, EvaluateIdsRoundTripsThroughPool) {
  Rng rng(GetParam() ^ 0x5eedull);
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance =
      RandomMixedInstance(&schema, &rng, /*rows=*/12, /*domain=*/5);
  for (int qi = 0; qi < 10; ++qi) {
    ConjunctiveQuery q = RandomQuery(&rng, 5);
    if (!q.Validate(schema).ok() || q.head.empty()) continue;
    ASSERT_OK_AND_ASSIGN(std::vector<std::vector<ValueId>> id_rows,
                         EvaluateIds(q, instance));
    ASSERT_OK_AND_ASSIGN(std::vector<Tuple> tuples, Evaluate(q, instance));
    ASSERT_EQ(id_rows.size(), tuples.size());
    for (size_t i = 0; i < id_rows.size(); ++i) {
      for (size_t j = 0; j < id_rows[i].size(); ++j) {
        EXPECT_EQ(instance.pool().Get(id_rows[i][j]), tuples[i][j]);
      }
    }
  }
}

TEST_P(ColumnarAgreementTest, ConstraintChecksMatchReference) {
  Rng rng(GetParam() ^ 0xc0ffeeull);
  rel::Schema schema = TwoRelationSchema();
  // Small domain: FD/ID violations actually occur.
  for (int round = 0; round < 8; ++round) {
    rel::Instance instance =
        RandomMixedInstance(&schema, &rng, /*rows=*/8, /*domain=*/3);
    rel::FunctionalDependency fd{"R", {0}, {1}};
    rel::InclusionDependency unary{"R", {0}, "S", {1}};
    rel::InclusionDependency binary{"R", {0, 1}, "S", {0, 2}};
    EXPECT_EQ(SatisfiesFd(instance, fd, nullptr),
              ReferenceSatisfiesFd(instance, fd));
    EXPECT_EQ(SatisfiesId(instance, unary, nullptr),
              ReferenceSatisfiesId(instance, unary));
    EXPECT_EQ(SatisfiesId(instance, binary, nullptr),
              ReferenceSatisfiesId(instance, binary));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ColumnarAgreementTest,
                         ::testing::Range<uint64_t>(1, 16));

// --- Interning round-trips and the order-preserving index. ------------------

TEST(ValuePoolOrderTest, RankPreservesValueOrderAcrossKinds) {
  ValuePool pool;
  std::vector<Value> values = {Value(3),       Value("b"),  Value(1.5),
                               Value(-7),      Value("a"),  Value(2),
                               Value(1000000), Value(""),   Value(0.25),
                               Value("aa")};
  std::vector<ValueId> ids;
  for (const Value& v : values) ids.push_back(pool.Intern(v));

  // Rank comparisons must match Value comparisons pairwise.
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(pool.Rank(ids[i]) < pool.Rank(ids[j]),
                values[i] < values[j]);
    }
  }

  // SortedIds renders exactly std::sort of the values.
  std::vector<Value> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<ValueId>& by_order = pool.SortedIds();
  ASSERT_EQ(by_order.size(), values.size());
  for (size_t i = 0; i < by_order.size(); ++i) {
    EXPECT_EQ(pool.Get(by_order[i]), sorted[i]);
  }
}

TEST(ValuePoolOrderTest, NumericAliasesInternToOneId) {
  ValuePool pool;
  ValueId as_int = pool.Intern(Value(2));
  ValueId as_double = pool.Intern(Value(2.0));
  EXPECT_EQ(as_int, as_double);
  EXPECT_EQ(pool.size(), 1);
}

TEST(ValuePoolOrderTest, BoundRanksResolveComparisons) {
  ValuePool pool;
  for (int i = 0; i < 10; i += 2) pool.Intern(Value(i));  // 0 2 4 6 8
  // Interior, present, and out-of-range probes.
  EXPECT_EQ(pool.LowerBoundRank(Value(4)), 2);
  EXPECT_EQ(pool.UpperBoundRank(Value(4)), 3);
  EXPECT_EQ(pool.LowerBoundRank(Value(5)), 3);
  EXPECT_EQ(pool.UpperBoundRank(Value(5)), 3);
  EXPECT_EQ(pool.LowerBoundRank(Value(-1)), 0);
  EXPECT_EQ(pool.UpperBoundRank(Value(100)), 5);
  EXPECT_EQ(pool.LowerBoundRank(Value("zzz")), 5);  // strings after numbers

  // The order index survives further interning (lazy rebuild).
  pool.Intern(Value(3));
  EXPECT_EQ(pool.LowerBoundRank(Value(4)), 3);
}

TEST(ColumnarInstanceTest, ActiveDomainIsIncrementalAndExact) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  ASSERT_OK(instance.AddFact("R", {Value("b"), Value(3)}));
  ASSERT_OK(instance.AddFact("U", {Value("a")}));

  std::vector<Value> adom = instance.ActiveDomain();
  EXPECT_EQ(adom, (std::vector<Value>{Value(3), Value("a"), Value("b")}));

  // Ids mirror the values, ascending in Value order.
  const std::vector<ValueId>& ids = instance.ActiveDomainIds();
  ASSERT_EQ(ids.size(), adom.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(instance.pool().Get(ids[i]), adom[i]);
  }

  // Duplicate occurrences don't change the domain; clearing a relation
  // removes exactly the values that no longer occur anywhere.
  ASSERT_OK(instance.AddFact("U", {Value("b")}));
  EXPECT_EQ(instance.ActiveDomain().size(), 3u);
  instance.ClearRelation("R");
  EXPECT_EQ(instance.ActiveDomain(),
            (std::vector<Value>{Value("a"), Value("b")}));
  instance.ClearRelation("U");
  EXPECT_TRUE(instance.ActiveDomain().empty());
}

TEST(ColumnarInstanceTest, TupleViewMatchesColumns) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  ASSERT_OK(instance.AddFact("R", {Value(1), Value("x")}));
  ASSERT_OK(instance.AddFact("R", {Value(2.5), Value(1)}));
  ASSERT_OK(instance.AddFact("R", {Value(1), Value("x")}));  // dup

  const std::vector<Tuple>& view = instance.Relation("R");
  ASSERT_EQ(view.size(), 2u);
  const rel::StoredRelation* rel = instance.Find("R");
  ASSERT_NE(rel, nullptr);
  ASSERT_EQ(rel->num_rows(), 2u);
  for (size_t r = 0; r < rel->num_rows(); ++r) {
    for (size_t a = 0; a < rel->arity(); ++a) {
      EXPECT_EQ(instance.pool().Get(rel->At(r, a)), view[r][a]);
    }
  }

  // The view extends in place as rows are appended after a first read.
  ASSERT_OK(instance.AddFact("R", {Value("y"), Value("z")}));
  EXPECT_EQ(instance.Relation("R").size(), 3u);
  EXPECT_EQ(instance.Relation("R")[2], (Tuple{Value("y"), Value("z")}));
}

TEST(ColumnarInstanceTest, PostingListsAndBitmapsIndexEveryRow) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  ASSERT_OK(instance.AddFact("R", {Value(1), Value(2)}));
  ASSERT_OK(instance.AddFact("R", {Value(1), Value(3)}));
  ASSERT_OK(instance.AddFact("R", {Value(2), Value(3)}));

  const rel::StoredRelation* rel = instance.Find("R");
  ASSERT_NE(rel, nullptr);
  const rel::StoredRelation::ColumnIndex& ix = rel->Index(0);
  EXPECT_EQ(ix.keys.size(), 2u);
  EXPECT_EQ(ix.rows.size(), 3u);

  ValueId one = instance.LookupId(Value(1));
  auto [begin, end] = rel->RowsEqual(0, one);
  EXPECT_EQ(end - begin, 2);
  EXPECT_TRUE(ix.distinct.Test(one));
  EXPECT_FALSE(ix.distinct.Test(instance.LookupId(Value(3))));

  // Mutation invalidates: new value appears in the rebuilt index.
  ASSERT_OK(instance.AddFact("R", {Value(9), Value(9)}));
  EXPECT_TRUE(rel->Index(0).distinct.Test(instance.LookupId(Value(9))));
}

TEST(ColumnarInstanceTest, MergedIndexEqualsFreshBuild) {
  const char* env = std::getenv("WHYNOT_TEST_SEED");
  const uint64_t seed =
      env != nullptr ? std::strtoull(env, nullptr, 10) : 20261019;
  std::printf("MergedIndexEqualsFreshBuild seed %llu (set WHYNOT_TEST_SEED "
              "to vary)\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);
  rel::Schema schema = testutil::SimpleSchema();
  for (int trial = 0; trial < 8; ++trial) {
    rel::Instance instance(&schema);
    // Values interned through U first hold ids below later R keys, so a
    // key new to R's index can land between its old keys, not only last.
    for (int v = 0; v < 40; ++v) {
      ASSERT_OK(instance.AddFact("U", {Value("u" + std::to_string(v))}));
    }
    int fresh = 0;
    auto pick = [&]() -> Value {
      switch (rng.Below(3)) {
        case 0:  // a key R's index may hold already
          return Value("u" + std::to_string(rng.Below(8)));
        case 1:  // interned, likely new to R
          return Value("u" + std::to_string(rng.Below(40)));
        default:  // new to the pool: the largest id
          return Value("n" + std::to_string(fresh++));
      }
    };
    const size_t max_batch = 1 + static_cast<size_t>(trial);
    for (int round = 0; round < 12; ++round) {
      size_t batch = 1 + rng.Below(max_batch);
      for (size_t i = 0; i < batch; ++i) {
        ASSERT_OK(instance.AddFact("R", {pick(), pick()}));
      }
      const rel::StoredRelation* r = instance.Find("R");
      ASSERT_NE(r, nullptr);
      // The first access builds each index; later ones merge the batch.
      rel::Instance copy(instance);
      const rel::StoredRelation* cold = copy.Find("R");
      for (size_t a = 0; a < 2; ++a) {
        const rel::StoredRelation::ColumnIndex& merged = r->Index(a);
        const rel::StoredRelation::ColumnIndex& built = cold->Index(a);
        EXPECT_EQ(merged.keys, built.keys) << "trial " << trial;
        EXPECT_EQ(merged.offsets, built.offsets) << "trial " << trial;
        EXPECT_EQ(merged.rows, built.rows) << "trial " << trial;
        EXPECT_EQ(merged.distinct.ToIds(), built.distinct.ToIds())
            << "trial " << trial;
      }
    }
  }
}

TEST(ColumnarInstanceTest, AddFactIdsMatchesAddFact) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  ASSERT_OK(instance.AddFact("U", {Value("k")}));
  ValueId k = instance.LookupId(Value("k"));
  ASSERT_GE(k, 0);
  ASSERT_OK(instance.AddFactIds("R", {k, k}));
  EXPECT_TRUE(instance.Contains("R", {Value("k"), Value("k")}));
  ASSERT_OK(instance.AddFactIds("R", {k, k}));  // dup ignored
  EXPECT_EQ(instance.Relation("R").size(), 1u);
  EXPECT_FALSE(instance.AddFactIds("R", {k}).ok());         // arity
  EXPECT_FALSE(instance.AddFactIds("R", {k, 9999}).ok());   // bad id
  EXPECT_FALSE(instance.AddFactIds("Z", {k}).ok());         // unknown
}

TEST(ColumnarInstanceTest, CopySharesNothing) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance a(&schema);
  ASSERT_OK(a.AddFact("U", {Value(1)}));
  rel::Instance b = a;
  ASSERT_OK(b.AddFact("U", {Value(2)}));
  EXPECT_EQ(a.NumFacts(), 1u);
  EXPECT_EQ(b.NumFacts(), 2u);
  EXPECT_EQ(a.ActiveDomain(), (std::vector<Value>{Value(1)}));
  EXPECT_EQ(b.ActiveDomain(), (std::vector<Value>{Value(1), Value(2)}));
}

TEST(EvalCacheTest, ProjectionCacheAgreesWithDirectEval) {
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  ASSERT_OK(instance.AddFact("R", {Value(1), Value(2)}));
  ASSERT_OK(instance.AddFact("R", {Value(3), Value(2)}));
  ls::EvalCache cache(&instance);
  const ls::Extension& proj = cache.Projection("R", 0);
  EXPECT_EQ(proj.values(), (std::vector<Value>{Value(1), Value(3)}));
  // Selection-free projection conjuncts share the (relation, attr) entry.
  EXPECT_EQ(&cache.EvalConjunct(ls::Conjunct::Projection("R", 0)), &proj);
  // Concept-level memoization returns the identical extension object.
  ls::LsConcept c = ls::LsConcept::Projection("R", 0);
  EXPECT_EQ(&cache.Eval(c), &cache.Eval(c));
}

}  // namespace
}  // namespace whynot
