#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "test_util.h"
#include "whynot/common/algorithm.h"

namespace whynot {
namespace {

using ls::LsConcept;
using ls::LubContext;

class LubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = workload::CitiesDataSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::move(schema).value();
    auto instance = workload::CitiesInstance(&schema_);
    ASSERT_TRUE(instance.ok());
    instance_ = std::make_unique<rel::Instance>(std::move(instance).value());
    ctx_ = std::make_unique<LubContext>(instance_.get());
  }

  rel::Schema schema_;
  std::unique_ptr<rel::Instance> instance_;
  std::unique_ptr<LubContext> ctx_;
};

TEST_F(LubTest, SingletonLubIsNominalPinned) {
  LsConcept lub = ctx_->LubSelectionFree({Value("Amsterdam")});
  ls::Extension ext = ls::Eval(lub, *instance_);
  // The nominal conjunct pins the extension to exactly {Amsterdam}.
  EXPECT_EQ(ext.values(), std::vector<Value>{Value("Amsterdam")});
}

TEST_F(LubTest, LubContainsItsInput) {
  std::vector<Value> x = {Value("Amsterdam"), Value("Berlin"),
                          Value("Tokyo")};
  LsConcept lub = ctx_->LubSelectionFree(x);
  ls::Extension ext = ls::Eval(lub, *instance_);
  for (const Value& v : x) EXPECT_TRUE(ext.Contains(v));
}

TEST_F(LubTest, CityNamesLubIsNameColumnIntersection) {
  // {Amsterdam, Kyoto} appear in Cities.name and in TC columns partially;
  // the lub must be the intersection of all covering columns.
  LsConcept lub = ctx_->LubSelectionFree({Value("Amsterdam"), Value("Kyoto")});
  ls::Extension ext = ls::Eval(lub, *instance_);
  // Cities.name covers both; TC.city_to covers both (Berlin<-, Kyoto<-...):
  // Amsterdam and Kyoto are both train destinations. TC.city_from does not
  // cover Kyoto. So ext = name-column ∩ city_to-column.
  EXPECT_TRUE(ext.Contains(Value("Amsterdam")));
  EXPECT_TRUE(ext.Contains(Value("Kyoto")));
  EXPECT_FALSE(ext.Contains(Value("Tokyo")));  // Tokyo is never a city_to
  EXPECT_FALSE(ext.Contains(Value("New York")));
}

TEST_F(LubTest, OutOfDomainSetFallsBackToTop) {
  LsConcept lub =
      ctx_->LubSelectionFree({Value("Mars"), Value("Venus")});
  EXPECT_TRUE(lub.IsTop());
}

TEST_F(LubTest, MixedTypeSetFallsBackToTop) {
  // No column contains both a city name and a population number.
  LsConcept lub =
      ctx_->LubSelectionFree({Value("Amsterdam"), Value(779808)});
  EXPECT_TRUE(lub.IsTop());
}

/// Lemma 5.1 minimality: no selection-free concept has a strictly smaller
/// extension while still containing X. Verified by brute force over all
/// selection-free conjunct intersections (the extension lattice) on the
/// small Figure 2 instance.
TEST_F(LubTest, SelectionFreeMinimalityBruteForce) {
  std::vector<std::vector<Value>> inputs = {
      {Value("Amsterdam")},
      {Value("Amsterdam"), Value("Berlin")},
      {Value("New York"), Value("Tokyo")},
      {Value("USA"), Value("Japan")},
      {Value(779808), Value(59946)},
  };
  // All selection-free conjuncts.
  std::vector<LsConcept> conjuncts;
  for (const rel::RelationDef& def : schema_.relations()) {
    for (size_t a = 0; a < def.arity(); ++a) {
      conjuncts.push_back(
          LsConcept::Projection(def.name(), static_cast<int>(a)));
    }
  }
  for (const std::vector<Value>& x : inputs) {
    LsConcept lub = ctx_->LubSelectionFree(x);
    ls::Extension lub_ext = ls::Eval(lub, *instance_);
    for (const Value& v : x) ASSERT_TRUE(lub_ext.Contains(v));
    // The brute-force smallest extension: intersect every conjunct that
    // contains X (plus the nominal when |X| = 1).
    ls::Extension best = ls::Extension::All();
    for (const LsConcept& c : conjuncts) {
      ls::Extension e = ls::Eval(c, *instance_);
      bool covers = true;
      for (const Value& v : x) covers &= e.Contains(v);
      if (covers) best = best.Intersect(e);
    }
    if (x.size() == 1) {
      best = best.Intersect(ls::Eval(LsConcept::Nominal(x[0]), *instance_));
    }
    EXPECT_EQ(lub_ext, best) << "X = " << TupleToString(x);
  }
}

TEST_F(LubTest, LubWithSelectionsIsAtLeastAsSpecific) {
  std::vector<Value> x = {Value("Amsterdam"), Value("Berlin")};
  LsConcept free_lub = ctx_->LubSelectionFree(x);
  ASSERT_OK_AND_ASSIGN(LsConcept sel_lub, ctx_->LubWithSelections(x));
  ls::Extension free_ext = ls::Eval(free_lub, *instance_);
  ls::Extension sel_ext = ls::Eval(sel_lub, *instance_);
  EXPECT_TRUE(sel_ext.SubsetOf(free_ext));
  for (const Value& v : x) EXPECT_TRUE(sel_ext.Contains(v));
  // With selections, {Amsterdam, Berlin} is pinned exactly: the canonical
  // box name ∈ [Amsterdam..Berlin] selects precisely those rows.
  EXPECT_EQ(sel_ext.values(),
            (std::vector<Value>{Value("Amsterdam"), Value("Berlin")}));
}

/// Lemma 5.2 minimality against the canonical-box concept space.
TEST_F(LubTest, WithSelectionsMinimalityBruteForce) {
  std::vector<std::vector<Value>> inputs = {
      {Value("Amsterdam"), Value("Rome")},
      {Value("New York"), Value("San Francisco")},
      {Value(3502000), Value(2753000)},
  };
  // The full single-conjunct concept pool.
  std::vector<LsConcept> pool;
  for (const rel::RelationDef& def : schema_.relations()) {
    ASSERT_OK_AND_ASSIGN(std::vector<LsConcept> sel,
                         ctx_->CanonicalSelectionConcepts(def.name()));
    pool.insert(pool.end(), sel.begin(), sel.end());
  }
  for (const std::vector<Value>& x : inputs) {
    ASSERT_OK_AND_ASSIGN(LsConcept lub, ctx_->LubWithSelections(x));
    ls::Extension lub_ext = ls::Eval(lub, *instance_);
    ls::Extension best = ls::Extension::All();
    for (const LsConcept& c : pool) {
      ls::Extension e = ls::Eval(c, *instance_);
      bool covers = true;
      for (const Value& v : x) covers &= e.Contains(v);
      if (covers) best = best.Intersect(e);
    }
    EXPECT_EQ(lub_ext, best) << "X = " << TupleToString(x);
  }
}

TEST_F(LubTest, BoxCountsReported) {
  ASSERT_OK(ctx_->LubWithSelections({Value("Amsterdam")}).status().ok()
                ? Status::OK()
                : Status::OK());
  EXPECT_GT(ctx_->NumBoxes("Train-Connections"), 0u);
  EXPECT_GT(ctx_->NumBoxes("Cities"), ctx_->NumBoxes("Train-Connections"));
}

TEST_F(LubTest, BoxCapReportsResourceExhausted) {
  ls::LubOptions options;
  options.max_boxes_per_relation = 10;
  LubContext tight(instance_.get(), options);
  Result<LsConcept> lub = tight.LubWithSelections({Value("Amsterdam")});
  ASSERT_FALSE(lub.ok());
  EXPECT_EQ(lub.status().code(), StatusCode::kResourceExhausted);
}

// --- Run-length vs. per-tuple trace-walk oracle ----------------------------

/// The reference formulation of the canonical-box decomposition: the
/// per-tuple trace walk. `selected` is a sorted tuple-index vector,
/// narrowing to a run [a..b] copies the matching indices one by one, and
/// boxes canonicalize by their trace with the first enumeration winning
/// (fewest selections — the unconstrained option recurses first). The
/// production BuildBoxes computes the same enumeration columnar over
/// run-length bitmaps; box count, order, and selections must agree.
struct OracleBox {
  std::vector<ls::Selection> selections;
  std::vector<uint32_t> tuples;
};

std::vector<OracleBox> TraceWalkBoxes(const std::vector<Tuple>& rows,
                                      size_t arity) {
  size_t n = rows.size();
  std::vector<std::vector<Value>> distinct(arity);
  for (size_t j = 0; j < arity; ++j) {
    for (const Tuple& t : rows) distinct[j].push_back(t[j]);
    SortUnique(&distinct[j]);
  }
  std::vector<std::vector<int>> vi(arity, std::vector<int>(n, 0));
  for (size_t j = 0; j < arity; ++j) {
    for (size_t i = 0; i < n; ++i) {
      vi[j][i] = static_cast<int>(
          std::lower_bound(distinct[j].begin(), distinct[j].end(),
                           rows[i][j]) -
          distinct[j].begin());
    }
  }
  std::map<std::vector<uint32_t>, size_t> seen;
  std::vector<OracleBox> boxes;
  std::vector<ls::Selection> current;
  auto recurse = [&](auto&& self, size_t j,
                     const std::vector<uint32_t>& selected) -> void {
    if (selected.empty()) return;
    if (j == arity) {
      if (seen.emplace(selected, boxes.size()).second) {
        boxes.push_back(OracleBox{current, selected});
      }
      return;
    }
    self(self, j + 1, selected);
    int k = static_cast<int>(distinct[j].size());
    for (int a = 0; a < k; ++a) {
      for (int b = a; b < k; ++b) {
        if (a == 0 && b == k - 1) continue;
        std::vector<uint32_t> narrowed;
        for (uint32_t i : selected) {
          if (vi[j][i] >= a && vi[j][i] <= b) narrowed.push_back(i);
        }
        if (narrowed.empty()) continue;
        size_t mark = current.size();
        int ja = static_cast<int>(j);
        if (a == b) {
          current.push_back({ja, rel::CmpOp::kEq, distinct[j][a]});
        } else {
          if (a > 0) {
            current.push_back({ja, rel::CmpOp::kGe, distinct[j][a]});
          }
          if (b < k - 1) {
            current.push_back({ja, rel::CmpOp::kLe, distinct[j][b]});
          }
        }
        self(self, j + 1, narrowed);
        current.resize(mark);
      }
    }
  };
  std::vector<uint32_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
  recurse(recurse, 0, all);
  return boxes;
}

class RunLengthOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RunLengthOracleTest, BoxesMatchTraceWalkOnDuplicateHeavyColumns) {
  // Duplicate-heavy: 40 rows over a 4-value domain gives runs that cover
  // many tuples each — the regime the run-length formulation accelerates —
  // while the near-unique Cities columns below exercise the scalar
  // fallback.
  ASSERT_OK_AND_ASSIGN(rel::Schema schema,
                       workload::RandomSchema(2, {2, 3}));
  ASSERT_OK_AND_ASSIGN(
      rel::Instance instance,
      workload::RandomInstance(&schema, /*rows_per_relation=*/40,
                               /*domain=*/4, GetParam()));
  LubContext ctx(&instance);
  for (const rel::RelationDef& def : schema.relations()) {
    const std::vector<Tuple>& rows = instance.Relation(def.name());
    std::vector<OracleBox> oracle = TraceWalkBoxes(rows, def.arity());
    EXPECT_EQ(ctx.NumBoxes(def.name()), oracle.size()) << def.name();
    // Box order and selections must both match: CanonicalSelectionConcepts
    // emits one concept per (box, attribute) in first-enumeration order.
    ASSERT_OK_AND_ASSIGN(std::vector<LsConcept> got,
                         ctx.CanonicalSelectionConcepts(def.name()));
    std::vector<std::string> want;
    for (const OracleBox& box : oracle) {
      for (size_t a = 0; a < def.arity(); ++a) {
        want.push_back(LsConcept::Projection(def.name(), static_cast<int>(a),
                                             box.selections)
                           .ToString());
      }
    }
    ASSERT_EQ(got.size(), want.size()) << def.name();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ToString(), want[i]) << def.name() << " box " << i;
    }
  }
}

TEST_P(RunLengthOracleTest, LubWithSelectionsMatchesBruteForceMinimality) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema,
                       workload::RandomSchema(2, {2, 2}));
  ASSERT_OK_AND_ASSIGN(
      rel::Instance instance,
      workload::RandomInstance(&schema, /*rows_per_relation=*/40,
                               /*domain=*/4, GetParam() ^ 0xb0b0ull));
  LubContext ctx(&instance);
  std::vector<LsConcept> pool;
  for (const rel::RelationDef& def : schema.relations()) {
    ASSERT_OK_AND_ASSIGN(std::vector<LsConcept> sel,
                         ctx.CanonicalSelectionConcepts(def.name()));
    pool.insert(pool.end(), sel.begin(), sel.end());
  }
  const std::vector<Value>& adom = instance.ActiveDomain();
  ASSERT_GE(adom.size(), 2u);
  workload::Rng rng(GetParam() ^ 0xd1ceull);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<Value> x = {adom[rng.Below(adom.size())],
                            adom[rng.Below(adom.size())]};
    SortUnique(&x);
    ASSERT_OK_AND_ASSIGN(LsConcept lub, ctx.LubWithSelections(x));
    ls::Extension lub_ext = ls::Eval(lub, instance);
    ls::Extension best = ls::Extension::All();
    for (const LsConcept& c : pool) {
      ls::Extension e = ls::Eval(c, instance);
      bool covers = true;
      for (const Value& v : x) covers &= e.Contains(v);
      if (covers) best = best.Intersect(e);
    }
    if (x.size() == 1) {
      best = best.Intersect(ls::Eval(LsConcept::Nominal(x[0]), instance));
    }
    EXPECT_EQ(lub_ext, best) << "X = " << TupleToString(x);
  }
}

// --- Selection-free lub by column signature --------------------------------

/// Lemma 5.1 read literally off the facts: the nominal when |X| = 1, then
/// π_A(R) for every (relation, attribute) whose rows hold every value of X.
LsConcept LiteralLubSelectionFree(const rel::Instance& instance,
                                  std::vector<Value> x) {
  SortUnique(&x);
  std::vector<ls::Conjunct> conjuncts;
  if (x.size() == 1) conjuncts.push_back(ls::Conjunct::Nominal(x.front()));
  for (const rel::RelationDef& def : instance.schema().relations()) {
    const std::vector<Tuple>& rows = instance.Relation(def.name());
    for (size_t a = 0; a < def.arity(); ++a) {
      bool holds_all = true;
      for (const Value& v : x) {
        holds_all &= std::any_of(rows.begin(), rows.end(),
                                 [&](const Tuple& t) { return t[a] == v; });
      }
      if (holds_all) {
        conjuncts.push_back(
            ls::Conjunct::Projection(def.name(), static_cast<int>(a)));
      }
    }
  }
  return LsConcept(std::move(conjuncts));
}

/// The lub from the signature table: sig(X) = ∧ sig(x), the nominal while
/// |X| = 1.
LsConcept SignatureLub(const LubContext& ctx, std::vector<Value> x) {
  SortUnique(&x);
  std::vector<uint64_t> sig(ctx.SignatureWords(), ~uint64_t{0});
  for (const Value& v : x) {
    const uint64_t* sv = ctx.Signature(ctx.instance().pool().Lookup(v));
    for (size_t w = 0; w < sig.size(); ++w) sig[w] &= sv[w];
  }
  return ctx.LubOfSignature(sig.data(),
                            x.size() == 1 ? &x.front() : nullptr);
}

/// Random supports of 1-4 values drawn from adom(I) plus two values
/// outside the pool; checks the signature lub against LubSelectionFree and
/// the literal reading, concept and extension.
void ExpectSignatureLubsMatch(const rel::Instance& instance, uint64_t seed,
                              int trials) {
  LubContext ctx(&instance);
  std::vector<Value> draw = instance.ActiveDomain();
  draw.push_back(Value(100000));
  draw.push_back(Value("outside"));
  workload::Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<Value> x;
    size_t size = 1 + rng.Below(4);
    for (size_t i = 0; i < size; ++i) x.push_back(draw[rng.Below(draw.size())]);
    LsConcept want = LiteralLubSelectionFree(instance, x);
    LsConcept got = SignatureLub(ctx, x);
    EXPECT_EQ(got, want) << "X = " << TupleToString(x);
    EXPECT_EQ(ctx.LubSelectionFree(x), want) << "X = " << TupleToString(x);
    EXPECT_EQ(ls::Eval(got, instance), ls::Eval(want, instance))
        << "X = " << TupleToString(x);
  }
}

class SignatureLubTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SignatureLubTest, MatchesLiteralLubOnRandomInstances) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema,
                       workload::RandomSchema(3, {2, 3, 1}));
  ASSERT_OK_AND_ASSIGN(
      rel::Instance instance,
      workload::RandomInstance(&schema, /*rows_per_relation=*/12,
                               /*domain=*/10, GetParam()));
  ExpectSignatureLubsMatch(instance, GetParam() ^ 0x51600ull, 200);
}

TEST_P(SignatureLubTest, EmptyRelationsHoldNoColumn) {
  // R1 never gets a fact (no stored relation at all); R2 is cleared after
  // its facts went in (a stored relation with no rows).
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::RandomSchema(3, {2}));
  ASSERT_OK_AND_ASSIGN(
      rel::Instance filled,
      workload::RandomInstance(&schema, /*rows_per_relation=*/10,
                               /*domain=*/8, GetParam()));
  rel::Instance instance(&schema);
  for (const char* name : {"R0", "R2"}) {
    for (const Tuple& t : filled.Relation(name)) {
      ASSERT_OK(instance.AddFact(name, t));
    }
  }
  instance.ClearRelation("R2");
  ExpectSignatureLubsMatch(instance, GetParam() ^ 0xe3e3ull, 100);
}

TEST_P(SignatureLubTest, MoreThanSixtyFourColumns) {
  // 30 ternary relations: 90 columns, two signature words.
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::RandomSchema(30, {3}));
  ASSERT_OK_AND_ASSIGN(
      rel::Instance instance,
      workload::RandomInstance(&schema, /*rows_per_relation=*/4,
                               /*domain=*/12, GetParam()));
  LubContext ctx(&instance);
  EXPECT_EQ(ctx.SignatureWords(), 2u);
  ExpectSignatureLubsMatch(instance, GetParam() ^ 0x6464ull, 200);
}

TEST_P(SignatureLubTest, FreshContextSeesValuesAddedToAColumn) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::RandomSchema(2, {2}));
  ASSERT_OK_AND_ASSIGN(
      rel::Instance instance,
      workload::RandomInstance(&schema, /*rows_per_relation=*/8,
                               /*domain=*/6, GetParam()));
  const Value old_value = instance.ActiveDomain().front();
  const Value new_value(777);
  LubContext before(&instance);
  const std::vector<Value> pair = {old_value, new_value};
  EXPECT_TRUE(before.LubSelectionFree(pair).IsTop());
  // The write puts a new value into R1's first column and the old value
  // into R1's second: both signatures change.
  ASSERT_OK(instance.AddFact("R1", {new_value, old_value}));
  LubContext after(&instance);
  EXPECT_EQ(SignatureLub(after, pair),
            LiteralLubSelectionFree(instance, pair));
  EXPECT_FALSE(SignatureLub(after, {new_value}) ==
               LsConcept::Nominal(new_value));
  ExpectSignatureLubsMatch(instance, GetParam() ^ 0xadd0ull, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureLubTest,
                         ::testing::Values(1ull, 29ull, 404ull, 9001ull));

INSTANTIATE_TEST_SUITE_P(Seeds, RunLengthOracleTest,
                         ::testing::Values(3ull, 71ull, 512ull, 8191ull));

// The Cities instance has near-unique columns (every name distinct), which
// drives BuildBoxes into its scalar set-bit fallback; the oracle must
// still agree there.
TEST_F(LubTest, RunLengthMatchesTraceWalkOnNearUniqueColumns) {
  for (const rel::RelationDef& def : schema_.relations()) {
    const std::vector<Tuple>& rows = instance_->Relation(def.name());
    std::vector<OracleBox> oracle = TraceWalkBoxes(rows, def.arity());
    EXPECT_EQ(ctx_->NumBoxes(def.name()), oracle.size()) << def.name();
  }
}

}  // namespace
}  // namespace whynot
