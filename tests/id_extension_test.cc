// Property tests for the id-space ls::Extension and the answer-cover
// kernel (PR 3): the bitmap-backed Eval / Contains / SubsetOf / Intersect
// and both product-vs-answers forms must agree exactly with a boxed
// reference implementation on random instances, the SIMD word kernels must
// match the scalar definitions, and incremental column-index maintenance
// must produce the same index as a cold full rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"
#include "whynot/common/algorithm.h"

namespace whynot {
namespace {

using explain::LsAnswerCovers;
using ls::Conjunct;
using ls::LsConcept;
using testutil::ExtValues;
using workload::Rng;

// --- Boxed reference semantics (the pre-PR-3 representation). --------------

struct RefExtension {
  bool all = false;
  std::vector<Value> values;  // sorted, deduplicated
};

RefExtension RefEvalConjunct(const Conjunct& c, const rel::Instance& inst) {
  RefExtension out;
  switch (c.kind) {
    case Conjunct::Kind::kTop:
      out.all = true;
      return out;
    case Conjunct::Kind::kNominal:
      out.values = {c.nominal};
      return out;
    case Conjunct::Kind::kProjection: {
      for (const Tuple& t : inst.Relation(c.relation)) {
        bool pass = true;
        for (const ls::Selection& s : c.selections) {
          if (!rel::EvalCmp(t[static_cast<size_t>(s.attr)], s.op,
                            s.constant)) {
            pass = false;
            break;
          }
        }
        if (pass) out.values.push_back(t[static_cast<size_t>(c.attr)]);
      }
      std::sort(out.values.begin(), out.values.end());
      out.values.erase(std::unique(out.values.begin(), out.values.end()),
                       out.values.end());
      return out;
    }
  }
  return out;
}

RefExtension RefEval(const LsConcept& concept_expr,
                     const rel::Instance& inst) {
  RefExtension ext;
  ext.all = true;
  for (const Conjunct& c : concept_expr.conjuncts()) {
    RefExtension e = RefEvalConjunct(c, inst);
    if (e.all) continue;
    if (ext.all) {
      ext = std::move(e);
      continue;
    }
    std::vector<Value> both;
    std::set_intersection(ext.values.begin(), ext.values.end(),
                          e.values.begin(), e.values.end(),
                          std::back_inserter(both));
    ext.values = std::move(both);
  }
  return ext;
}

bool RefContains(const RefExtension& e, const Value& v) {
  if (e.all) return true;
  return std::binary_search(e.values.begin(), e.values.end(), v);
}

// --- Random instances and concepts. ----------------------------------------

Value RandomValue(Rng* rng, int domain) {
  uint64_t k = rng->Below(static_cast<uint64_t>(domain));
  switch (rng->Below(4)) {
    case 0:
      return Value(static_cast<int64_t>(k));
    case 1:
      return Value(static_cast<double>(k) + 0.5);
    case 2:
      return Value("s" + std::to_string(k));
    default:
      return Value(static_cast<double>(k));
  }
}

rel::Schema TwoRelationSchema() {
  rel::Schema schema;
  EXPECT_TRUE(schema.AddRelation("R", {"a", "b"}).ok());
  EXPECT_TRUE(schema.AddRelation("S", {"a", "b", "c"}).ok());
  return schema;
}

rel::Instance RandomInstance(const rel::Schema* schema, Rng* rng, int rows,
                             int domain) {
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

Conjunct RandomConjunct(Rng* rng, int domain) {
  switch (rng->Below(6)) {
    case 0:
      return Conjunct::Top();
    case 1:
      // Out-of-instance nominal with high probability: exercises the
      // extras (non-pool) representation.
      return Conjunct::Nominal(Value("extra" + std::to_string(rng->Below(4))));
    case 2:
      return Conjunct::Nominal(RandomValue(rng, domain));
    default: {
      bool ternary = rng->Chance(1, 3);
      std::string relation = ternary ? "S" : "R";
      int arity = ternary ? 3 : 2;
      int attr = static_cast<int>(rng->Below(static_cast<uint64_t>(arity)));
      std::vector<ls::Selection> sels;
      static const rel::CmpOp kOps[] = {rel::CmpOp::kEq, rel::CmpOp::kLt,
                                        rel::CmpOp::kGt, rel::CmpOp::kLe,
                                        rel::CmpOp::kGe};
      while (rng->Chance(1, 3) && sels.size() < 2) {
        sels.push_back(
            {static_cast<int>(rng->Below(static_cast<uint64_t>(arity))),
             kOps[rng->Below(5)], RandomValue(rng, domain)});
      }
      return Conjunct::Projection(relation, attr, std::move(sels));
    }
  }
}

LsConcept RandomConcept(Rng* rng, int domain) {
  std::vector<Conjunct> conjuncts;
  size_t n = 1 + rng->Below(3);
  for (size_t i = 0; i < n; ++i) {
    conjuncts.push_back(RandomConjunct(rng, domain));
  }
  return LsConcept(std::move(conjuncts));
}

// --- Eval / set-op agreement. ----------------------------------------------

class IdExtensionAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IdExtensionAgreementTest, EvalMatchesBoxedReference) {
  Rng rng(GetParam());
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance = RandomInstance(&schema, &rng, 20, 8);
  for (int i = 0; i < 40; ++i) {
    LsConcept c = RandomConcept(&rng, 8);
    ls::Extension got = ls::Eval(c, instance);
    RefExtension want = RefEval(c, instance);
    EXPECT_EQ(got.all, want.all) << c.ToString();
    if (!want.all) {
      EXPECT_EQ(got.values(), want.values) << c.ToString();
      EXPECT_EQ(got.CardinalityOrInfinite(), want.values.size());
    }
  }
}

TEST_P(IdExtensionAgreementTest, ContainsMatchesBoxedReference) {
  Rng rng(GetParam() ^ 0x11ull);
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance = RandomInstance(&schema, &rng, 15, 6);
  const ValuePool& pool = instance.pool();
  for (int i = 0; i < 20; ++i) {
    LsConcept c = RandomConcept(&rng, 6);
    ls::Extension got = ls::Eval(c, instance);
    RefExtension want = RefEval(c, instance);
    for (int p = 0; p < 20; ++p) {
      Value v = p % 3 == 0 ? Value("extra" + std::to_string(rng.Below(4)))
                           : RandomValue(&rng, 6);
      EXPECT_EQ(got.Contains(v), RefContains(want, v)) << c.ToString();
      EXPECT_EQ(got.ContainsInterned(pool.Lookup(v), v),
                RefContains(want, v))
          << c.ToString();
    }
    // Every id probe agrees with the boxed probe over the whole pool.
    for (ValueId id = 0; id < pool.size(); ++id) {
      EXPECT_EQ(got.ContainsId(id), RefContains(want, pool.Get(id)));
    }
  }
}

TEST_P(IdExtensionAgreementTest, SetOpsMatchBoxedReference) {
  Rng rng(GetParam() ^ 0x22ull);
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance = RandomInstance(&schema, &rng, 15, 6);
  for (int i = 0; i < 30; ++i) {
    LsConcept c1 = RandomConcept(&rng, 6);
    LsConcept c2 = RandomConcept(&rng, 6);
    ls::Extension e1 = ls::Eval(c1, instance);
    ls::Extension e2 = ls::Eval(c2, instance);
    RefExtension r1 = RefEval(c1, instance);
    RefExtension r2 = RefEval(c2, instance);

    bool want_subset =
        r2.all ||
        (!r1.all && std::includes(r2.values.begin(), r2.values.end(),
                                  r1.values.begin(), r1.values.end()));
    EXPECT_EQ(e1.SubsetOf(e2), want_subset)
        << c1.ToString() << " vs " << c2.ToString();
    // Exercise the word-parallel branch too (both bitmaps forced).
    if (!e1.all && !e2.all) {
      e1.bits();
      e2.bits();
      EXPECT_EQ(e1.SubsetOf(e2), want_subset);
    }

    ls::Extension meet = e1.Intersect(e2);
    if (r1.all && r2.all) {
      EXPECT_TRUE(meet.all);
    } else {
      std::vector<Value> want;
      if (r1.all) {
        want = r2.values;
      } else if (r2.all) {
        want = r1.values;
      } else {
        std::set_intersection(r1.values.begin(), r1.values.end(),
                              r2.values.begin(), r2.values.end(),
                              std::back_inserter(want));
      }
      EXPECT_EQ(meet.values(), want);
    }

    bool want_eq = r1.all == r2.all &&
                   (r1.all || r1.values == r2.values);
    EXPECT_EQ(e1 == e2, want_eq);
  }
}

TEST_P(IdExtensionAgreementTest, MixedPoolOpsFallBackToBoxed) {
  Rng rng(GetParam() ^ 0x33ull);
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance = RandomInstance(&schema, &rng, 10, 5);
  for (int i = 0; i < 20; ++i) {
    LsConcept c = RandomConcept(&rng, 5);
    ls::Extension pooled = ls::Eval(c, instance);
    if (pooled.all) continue;
    // A pool-less copy with the same members must behave identically.
    ls::Extension boxed = ls::Extension::Of(pooled.values());
    EXPECT_TRUE(pooled.SubsetOf(boxed));
    EXPECT_TRUE(boxed.SubsetOf(pooled));
    EXPECT_TRUE(pooled == boxed);
    EXPECT_EQ(pooled.Intersect(boxed).values(), pooled.values());
    for (const Value& v : pooled.values()) {
      EXPECT_TRUE(boxed.Contains(v));
    }
  }
}

// --- Product-vs-answers agreement (the answer-cover kernel). ---------------

/// Every row Cover(ext, pos) must be exactly the bitmap of the answers
/// whose pos-th value the reference extension holds.
void ExpectCoverRows(LsAnswerCovers* covers, const std::vector<Tuple>& answers,
                     const std::vector<const ls::Extension*>& exts,
                     const std::vector<const RefExtension*>& refs, size_t m,
                     const std::string& where) {
  const size_t words = (answers.size() + 63) / 64;
  for (size_t e = 0; e < exts.size(); ++e) {
    for (size_t pos = 0; pos < m; ++pos) {
      std::vector<uint64_t> want(words, 0);
      for (size_t a = 0; a < answers.size(); ++a) {
        if (RefContains(*refs[e], answers[a][pos])) {
          want[a / 64] |= uint64_t{1} << (a % 64);
        }
      }
      const uint64_t* row = covers->Cover(*exts[e], pos);
      EXPECT_EQ(std::vector<uint64_t>(row, row + words), want)
          << where << ": extension " << e << ", position " << pos;
    }
  }
}

TEST_P(IdExtensionAgreementTest, AnswerCoversMatchScalarReference) {
  Rng rng(GetParam() ^ 0x44ull);
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance = RandomInstance(&schema, &rng, 15, 6);
  // Both arities across the seeds.
  const size_t m = 2 + GetParam() % 2;

  // Random answer set over the active domain plus a few foreign values.
  std::vector<Tuple> answers;
  const std::vector<Value>& adom = instance.ActiveDomain();
  for (int a = 0; a < 12; ++a) {
    Tuple t;
    for (size_t j = 0; j < m; ++j) {
      t.push_back(rng.Chance(1, 8)
                      ? Value("extra" + std::to_string(rng.Below(4)))
                      : adom[rng.Below(adom.size())]);
    }
    answers.push_back(std::move(t));
  }
  SortUnique(&answers);

  LsAnswerCovers covers(&instance, &answers);
  // Stable storage for extensions (identity-keyed cover cache).
  std::deque<ls::Extension> store;
  std::deque<RefExtension> ref_store;
  auto check_products = [&](const std::string& where) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<const ls::Extension*> exts;
      std::vector<const RefExtension*> refs;
      for (size_t j = 0; j < m; ++j) {
        LsConcept c = RandomConcept(&rng, 6);
        store.push_back(ls::Eval(c, instance));
        ref_store.push_back(RefEval(c, instance));
        exts.push_back(&store.back());
        refs.push_back(&ref_store.back());
      }
      ExpectCoverRows(&covers, answers, exts, refs, m, where);
      bool want_intersects = false;
      size_t want_covered = 0;
      for (const Tuple& ans : answers) {
        bool inside = true;
        for (size_t j = 0; j < m && inside; ++j) {
          inside = RefContains(*refs[j], ans[j]);
        }
        if (inside) {
          want_intersects = true;
          ++want_covered;
        }
      }
      EXPECT_EQ(covers.ProductIntersects(exts), want_intersects) << where;
      EXPECT_EQ(covers.CountCovered(exts), want_covered) << where;
      // Swap form agrees with the copy-free probe convention.
      for (size_t j = 0; j < m; ++j) {
        std::vector<const ls::Extension*> swapped = exts;
        std::rotate(swapped.begin(), swapped.begin() + 1, swapped.end());
        EXPECT_EQ(covers.ProductIntersects(exts, j, swapped[j]),
                  [&] {
                    std::vector<const ls::Extension*> probe = exts;
                    probe[j] = swapped[j];
                    return covers.ProductIntersects(probe);
                  }())
            << where;
      }
    }
  };
  check_products("bind");

  // Rounds of session-style writes: intern new constants (a number below
  // every value and a string between existing ones shift the ranks),
  // merge Δ rows into Ans through the covers, merge the same Δ again (a
  // no-op), then compare every row — random, empty, ⊤, nominal and
  // pool-less extensions — with the reference. The foreign "extraN"
  // answer values stay un-interned; "late" is an extra of `late` until
  // round 0 interns it.
  const ls::Extension late = ls::Extension::Nominal(&instance.pool(),
                                                    Value("late"));
  ASSERT_EQ(late.extras().size(), 1u);
  const RefExtension late_ref{false, {Value("late")}};
  for (int round = 0; round < 4; ++round) {
    const std::string where = "round " + std::to_string(round);
    std::vector<Value> fresh = {Value(-1.5 - round),
                                Value("m" + std::to_string(round))};
    if (round == 0) fresh.push_back(Value("late"));
    for (const Value& v : fresh) ASSERT_OK(instance.AddFact("R", {v, v}));
    const std::vector<Value>& domain = instance.ActiveDomain();
    std::vector<Tuple> rows;
    for (int d = 0; d < 6; ++d) {
      Tuple t;
      for (size_t j = 0; j < m; ++j) {
        t.push_back(rng.Chance(1, 3) ? fresh[rng.Below(fresh.size())]
                                     : domain[rng.Below(domain.size())]);
      }
      rows.push_back(std::move(t));
    }
    // Answers already present come back in Δ (interned ones: Δ is ids).
    for (const Tuple& t : answers) {
      bool interned = std::all_of(t.begin(), t.end(), [&](const Value& v) {
        return instance.pool().Lookup(v) >= 0;
      });
      if (interned && rng.Chance(1, 3)) rows.push_back(t);
    }
    SortUnique(&rows);
    std::vector<std::vector<ValueId>> delta;
    for (const Tuple& t : rows) {
      std::vector<ValueId> ids;
      for (const Value& v : t) ids.push_back(instance.pool().Lookup(v));
      delta.push_back(std::move(ids));
    }
    std::vector<Tuple> want = answers;
    std::vector<Tuple> want_new;
    for (const Tuple& t : rows) {
      if (!std::binary_search(answers.begin(), answers.end(), t)) {
        want_new.push_back(t);
      }
    }
    want.insert(want.end(), rows.begin(), rows.end());
    SortUnique(&want);

    std::vector<size_t> added = covers.MergeAnswers(delta, &answers);
    EXPECT_EQ(answers, want) << where;
    std::vector<Tuple> got_new;
    for (size_t a : added) got_new.push_back(answers[a]);
    EXPECT_EQ(got_new, want_new) << where;
    EXPECT_TRUE(covers.MergeAnswers(delta, &answers).empty()) << where;
    EXPECT_EQ(answers, want) << where;
    EXPECT_EQ(covers.num_answers(), want.size()) << where;

    store.push_back(ls::Extension());
    ref_store.push_back(RefExtension{});
    store.push_back(ls::Extension::All());
    ref_store.push_back(RefExtension{true, {}});
    for (const Value& v :
         {fresh[0], fresh[1], domain[rng.Below(domain.size())],
          Value("extra" + std::to_string(rng.Below(4)))}) {
      store.push_back(ls::Extension::Nominal(&instance.pool(), v));
      ref_store.push_back(RefExtension{false, {v}});
    }
    std::vector<Value> boxed = {fresh[1], Value("extra0"),
                                domain[rng.Below(domain.size())]};
    store.push_back(ls::Extension::Of(boxed));
    SortUnique(&boxed);
    ref_store.push_back(RefExtension{false, boxed});
    std::vector<const ls::Extension*> exts = {&late};
    std::vector<const RefExtension*> refs = {&late_ref};
    for (size_t e = store.size() - 8; e < store.size(); ++e) {
      exts.push_back(&store[e]);
      refs.push_back(&ref_store[e]);
    }
    // Extensions evaluated before the write keep their members.
    for (size_t e = 0; e < 6; ++e) {
      exts.push_back(&store[e]);
      refs.push_back(&ref_store[e]);
    }
    ExpectCoverRows(&covers, answers, exts, refs, m, where);
    check_products(where);
  }
}

// Cached rows survive MergeAnswers with the new answers' bits inserted:
// over more than two words of answers, deltas of 1..40 rows land at
// random merged positions (word boundaries included), and every row
// built before the merges must equal the scalar reference afterwards.
TEST_P(IdExtensionAgreementTest, MergedRowsMatchScalarReference) {
  Rng rng(GetParam() ^ 0x66ull);
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance = RandomInstance(&schema, &rng, 40, 30);
  const std::vector<Value>& adom = instance.ActiveDomain();
  auto random_pair = [&] {
    return Tuple{adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
  };
  std::vector<Tuple> answers;
  for (int a = 0; a < 140; ++a) answers.push_back(random_pair());
  SortUnique(&answers);
  ASSERT_GT(answers.size(), 128u);

  LsAnswerCovers covers(&instance, &answers);
  std::deque<ls::Extension> store;
  std::deque<RefExtension> ref_store;
  for (int e = 0; e < 24; ++e) {
    LsConcept c = RandomConcept(&rng, 30);
    store.push_back(ls::Eval(c, instance));
    ref_store.push_back(RefEval(c, instance));
  }
  for (int e = 0; e < 4; ++e) {
    const Value& v = adom[rng.Below(adom.size())];
    store.push_back(ls::Extension::Nominal(&instance.pool(), v));
    ref_store.push_back(RefExtension{false, {v}});
  }
  std::vector<const ls::Extension*> exts;
  std::vector<const RefExtension*> refs;
  for (size_t e = 0; e < store.size(); ++e) {
    exts.push_back(&store[e]);
    refs.push_back(&ref_store[e]);
  }
  ExpectCoverRows(&covers, answers, exts, refs, 2, "bind");
  for (int round = 0; round < 6; ++round) {
    std::vector<Tuple> rows;
    const size_t n = 1 + rng.Below(40);
    for (size_t d = 0; d < n; ++d) rows.push_back(random_pair());
    SortUnique(&rows);
    std::vector<std::vector<ValueId>> delta;
    for (const Tuple& t : rows) {
      delta.push_back(
          {instance.pool().Lookup(t[0]), instance.pool().Lookup(t[1])});
    }
    covers.MergeAnswers(delta, &answers);
    ExpectCoverRows(&covers, answers, exts, refs, 2,
                    "round " + std::to_string(round));
  }
}

TEST_P(IdExtensionAgreementTest, IsLsExplanationMatchesScalarReference) {
  Rng rng(GetParam() ^ 0x55ull);
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance = RandomInstance(&schema, &rng, 12, 5);
  const std::vector<Value>& adom = instance.ActiveDomain();
  size_t m = 2;

  explain::WhyNotInstance wni;
  wni.instance = &instance;
  for (int a = 0; a < 10; ++a) {
    Tuple t;
    for (size_t j = 0; j < m; ++j) t.push_back(adom[rng.Below(adom.size())]);
    wni.answers.push_back(std::move(t));
  }
  SortUnique(&wni.answers);
  wni.missing = Tuple{Value("extra0"), adom[rng.Below(adom.size())]};
  // Keep missing ∉ Ans (first component is foreign).

  for (int trial = 0; trial < 25; ++trial) {
    explain::LsExplanation e;
    for (size_t j = 0; j < m; ++j) e.push_back(RandomConcept(&rng, 5));

    bool want = true;
    std::vector<RefExtension> refs;
    for (size_t j = 0; j < m; ++j) {
      refs.push_back(RefEval(e[j], instance));
      if (!RefContains(refs[j], wni.missing[j])) want = false;
    }
    if (want) {
      for (const Tuple& ans : wni.answers) {
        bool inside = true;
        for (size_t j = 0; j < m && inside; ++j) {
          inside = RefContains(refs[j], ans[j]);
        }
        if (inside) {
          want = false;
          break;
        }
      }
    }
    EXPECT_EQ(explain::IsLsExplanation(wni, e), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdExtensionAgreementTest,
                         ::testing::Values(7ull, 23ull, 101ull, 555ull,
                                           90210ull));

// --- SIMD word kernels vs scalar definitions. ------------------------------

class BitmapKernelTest : public ::testing::TestWithParam<uint64_t> {};

std::vector<ValueId> RandomIds(Rng* rng, int32_t universe, size_t count) {
  std::set<ValueId> ids;
  for (size_t i = 0; i < count; ++i) {
    ids.insert(static_cast<ValueId>(rng->Below(
        static_cast<uint64_t>(universe))));
  }
  return std::vector<ValueId>(ids.begin(), ids.end());
}

TEST_P(BitmapKernelTest, KernelsMatchScalarDefinitions) {
  Rng rng(GetParam());
  // Sizes straddling the SIMD minimum (8 words = 512 bits) exercise
  // whichever lane the runtime shim dispatches to — AVX2 on x86-64, NEON
  // on aarch64 — against the scalar definitions, including the scalar
  // fallback below the threshold. 640/704/770 give word counts of
  // 10/11/13, whose remainders mod the 4-word (AVX2) and 2-word (NEON
  // popcount) strides land in every tail class of both lanes.
  for (int32_t universe : {40, 130, 500, 513, 640, 704, 770, 2048, 4096}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<ValueId> a_ids =
          RandomIds(&rng, universe, static_cast<size_t>(universe) / 3 + 1);
      std::vector<ValueId> b_ids =
          RandomIds(&rng, universe, static_cast<size_t>(universe) / 3 + 1);
      DenseBitmap a(a_ids, universe);
      DenseBitmap b(b_ids, universe);

      bool want_subset = std::includes(b_ids.begin(), b_ids.end(),
                                       a_ids.begin(), a_ids.end());
      EXPECT_EQ(a.SubsetOf(b), want_subset);
      EXPECT_TRUE(a.SubsetOf(a));

      // A genuine subset must pass (random pairs almost never do).
      std::vector<ValueId> half;
      for (size_t i = 0; i < a_ids.size(); i += 2) half.push_back(a_ids[i]);
      EXPECT_TRUE(DenseBitmap(half, universe).SubsetOf(a));

      std::vector<ValueId> want_meet;
      std::set_intersection(a_ids.begin(), a_ids.end(), b_ids.begin(),
                            b_ids.end(), std::back_inserter(want_meet));
      EXPECT_EQ(DenseBitmap::Intersect(a, b).ToIds(), want_meet);

      EXPECT_EQ(a.Count(), a_ids.size());
      EXPECT_EQ(b.Count(), b_ids.size());
    }
  }
}

TEST_P(BitmapKernelTest, FusedAndCountMatchesScalarReference) {
  Rng rng(GetParam() ^ 0xabcdull);
  // Word counts straddling the 8-word SIMD threshold plus every remainder
  // class of the 4-word (AVX2) and 2-word (NEON) strides: below 8 the
  // dispatch takes the scalar loop, above it the SIMD lane with each
  // possible scalar tail length.
  for (size_t nwords : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                        size_t{8}, size_t{9}, size_t{10}, size_t{11},
                        size_t{12}, size_t{13}, size_t{31}, size_t{64}}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint64_t> a(nwords), b(nwords);
      for (size_t w = 0; w < nwords; ++w) {
        a[w] = rng.Below(~uint64_t{0});
        b[w] = rng.Below(~uint64_t{0});
      }
      size_t want = 0;
      for (size_t w = 0; w < nwords; ++w) {
        want += static_cast<size_t>(__builtin_popcountll(a[w] & b[w]));
      }
      EXPECT_EQ(DenseBitmap::AndCountWords(a.data(), b.data(), nwords), want)
          << "nwords=" << nwords;
      size_t want_pop = 0;
      for (size_t w = 0; w < nwords; ++w) {
        want_pop += static_cast<size_t>(__builtin_popcountll(a[w]));
      }
      EXPECT_EQ(DenseBitmap::PopcountWords(a.data(), nwords), want_pop);
    }
  }
}

TEST_P(BitmapKernelTest, AllSetAndSetBehave) {
  Rng rng(GetParam() ^ 0x77ull);
  for (int32_t n : {0, 1, 63, 64, 65, 600}) {
    DenseBitmap full = DenseBitmap::AllSet(n);
    EXPECT_EQ(full.Count(), static_cast<size_t>(n));
    EXPECT_EQ(full.Any(), n > 0);
    if (n > 0) {
      EXPECT_TRUE(full.Test(0));
      EXPECT_TRUE(full.Test(n - 1));
      EXPECT_FALSE(full.Test(n));
    }
  }
  DenseBitmap grow;
  std::set<ValueId> want;
  for (int i = 0; i < 100; ++i) {
    ValueId id = static_cast<ValueId>(rng.Below(1000));
    grow.Set(id);
    want.insert(id);
  }
  EXPECT_EQ(grow.ToIds(), std::vector<ValueId>(want.begin(), want.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapKernelTest,
                         ::testing::Values(3ull, 17ull, 4242ull));

// --- Incremental column-index maintenance. ---------------------------------

class IncrementalIndexTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalIndexTest, MergedIndexMatchesColdRebuild) {
  Rng rng(GetParam());
  rel::Schema schema = TwoRelationSchema();
  rel::Instance instance = RandomInstance(&schema, &rng, 40, 10);

  // Warm every index, then interleave appends with accesses.
  for (const rel::RelationDef& def : schema.relations()) {
    const rel::StoredRelation* rel = instance.Find(def.name());
    ASSERT_NE(rel, nullptr);
    for (size_t a = 0; a < def.arity(); ++a) rel->Index(a);
  }
  for (int round = 0; round < 5; ++round) {
    for (const rel::RelationDef& def : schema.relations()) {
      for (int i = 0; i < 7; ++i) {
        Tuple t;
        for (size_t a = 0; a < def.arity(); ++a) {
          t.push_back(RandomValue(&rng, 10 + round));
        }
        ASSERT_OK(instance.AddFact(def.name(), std::move(t)));
      }
    }
    // A copy restarts its lazy caches cold: its Index() is a full rebuild
    // over identical rows, so merged and rebuilt indexes must agree.
    rel::Instance cold(instance);
    for (const rel::RelationDef& def : schema.relations()) {
      const rel::StoredRelation* warm_rel = instance.Find(def.name());
      const rel::StoredRelation* cold_rel = cold.Find(def.name());
      for (size_t a = 0; a < def.arity(); ++a) {
        const auto& warm = warm_rel->Index(a);
        const auto& rebuilt = cold_rel->Index(a);
        EXPECT_EQ(warm.keys, rebuilt.keys);
        EXPECT_EQ(warm.offsets, rebuilt.offsets);
        EXPECT_EQ(warm.rows, rebuilt.rows);
        EXPECT_EQ(warm.distinct.ToIds(), rebuilt.distinct.ToIds());
        // RowsEqual probes agree for every key (and a miss).
        for (ValueId key : warm.keys) {
          auto [wb, we] = warm_rel->RowsEqual(a, key);
          auto [cb, ce] = cold_rel->RowsEqual(a, key);
          EXPECT_EQ(std::vector<uint32_t>(wb, we),
                    std::vector<uint32_t>(cb, ce));
        }
        EXPECT_EQ(warm_rel->RowsEqual(a, instance.pool().size() + 5).first,
                  nullptr);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalIndexTest,
                         ::testing::Values(11ull, 77ull, 1234ull));

}  // namespace
}  // namespace whynot
