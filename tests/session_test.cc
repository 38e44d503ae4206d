// ExplainSession equivalence gate: every session-served request must be
// bit-identical — results, enumeration order, and stats — to the
// standalone one-shot entry point, at WHYNOT_THREADS ∈ {1, 2, 8}, across
// repeated requests over the same warm state, and after interleaved
// AddFact invalidation (the version counter must rebuild the warm caches
// deterministically rather than serve stale extensions).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "test_util.h"
#include "whynot/common/algorithm.h"

namespace whynot {
namespace {

using workload::Rng;

constexpr int kThreadCounts[] = {1, 2, 8};

// --- External-ontology equivalence ----------------------------------------

struct ExternalFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  std::vector<Tuple> answers;
  std::vector<Tuple> missing;  // request tuples, all ∉ answers
  Tuple present;               // ∈ answers, with why-explanations
};

ExternalFixture MakeExternalFixture(uint64_t seed) {
  ExternalFixture f;
  auto schema = workload::RandomSchema(2, {2, 2});
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::RandomInstance(&f.schema, /*rows_per_relation=*/30,
                                           /*domain=*/12, seed);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());

  const std::vector<Value>& adom = f.instance->ActiveDomain();
  auto ontology = workload::RandomTreeOntology(adom, /*num_concepts=*/40,
                                               seed ^ 0x9e3779b9ull);
  EXPECT_TRUE(ontology.ok());
  f.ontology = std::move(ontology).value();

  Rng rng(seed ^ 0x51ull);
  for (int a = 0; a < 14; ++a) {
    Tuple t = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
    f.answers.push_back(std::move(t));
  }
  // Ans also holds the full product of the two smallest non-empty finite
  // concept extensions, so any tuple of that product has a why-explanation.
  onto::BoundOntology bound(f.ontology.get(), f.instance.get());
  std::vector<std::pair<size_t, onto::ConceptId>> finite;
  for (onto::ConceptId c = 0; c < bound.NumConcepts(); ++c) {
    const onto::ExtSet& ext = bound.Ext(c);
    if (!ext.is_all() && !ext.empty()) finite.push_back({ext.size(), c});
  }
  EXPECT_GE(finite.size(), 2u);
  std::sort(finite.begin(), finite.end());
  const onto::ExtSet& first = bound.Ext(finite[0].second);
  const onto::ExtSet& second = bound.Ext(finite[1].second);
  for (ValueId a : first.ids()) {
    for (ValueId b : second.ids()) {
      f.answers.push_back({bound.pool().Get(a), bound.pool().Get(b)});
    }
  }
  f.present = {bound.pool().Get(first.ids().front()),
               bound.pool().Get(second.ids().front())};
  SortUnique(&f.answers);
  while (f.missing.size() < 4) {
    Tuple t = {adom[rng.Below(adom.size())], adom[rng.Below(adom.size())]};
    if (!std::binary_search(f.answers.begin(), f.answers.end(), t)) {
      f.missing.push_back(std::move(t));
    }
  }
  return f;
}

explain::WhyNotInstance OneShotWni(const ExternalFixture& f,
                                   const Tuple& missing) {
  auto wni = explain::MakeWhyNotInstanceFromAnswers(f.instance.get(),
                                                    f.answers, missing);
  EXPECT_TRUE(wni.ok());
  return std::move(wni).value();
}

TEST(SessionExternalTest, RepeatedRequestsMatchOneShot) {
  ExternalFixture f = MakeExternalFixture(7);
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    ASSERT_OK_AND_ASSIGN(
        explain::ExplainSession session,
        explain::ExplainSession::BindWithAnswers(f.instance.get(), f.answers,
                                                 f.ontology.get()));
    // Several requests against the same warm state: the session's shared
    // covers must never change a result relative to cold one-shot calls.
    for (const Tuple& missing : f.missing) {
      explain::WhyNotInstance wni = OneShotWni(f, missing);
      onto::BoundOntology bound(f.ontology.get(), f.instance.get());

      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> want_all,
                           explain::PrunedSearchAllMge(&bound, wni));
      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got_all,
                           session.ExhaustiveMges(missing));
      EXPECT_EQ(got_all, want_all);

      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> want_pruned,
                           explain::PrunedSearchAllMge(&bound, wni));
      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got_pruned,
                           session.PrunedMges(missing));
      EXPECT_EQ(got_pruned, want_pruned);

      explain::Explanation want_witness, got_witness;
      ASSERT_OK_AND_ASSIGN(bool want_exists,
                           explain::ExistsExplanation(&bound, wni,
                                                      &want_witness));
      ASSERT_OK_AND_ASSIGN(bool got_exists,
                           session.Exists(missing, &got_witness));
      EXPECT_EQ(got_exists, want_exists);
      EXPECT_EQ(got_witness, want_witness);

      ASSERT_OK_AND_ASSIGN(auto want_card,
                           explain::ExactCardMaximal(&bound, wni));
      ASSERT_OK_AND_ASSIGN(auto got_card, session.CardMaximal(missing));
      ASSERT_EQ(got_card.has_value(), want_card.has_value());
      if (want_card.has_value()) {
        EXPECT_EQ(got_card->explanation, want_card->explanation);
        EXPECT_TRUE(got_card->degree == want_card->degree);
      }

      ASSERT_OK_AND_ASSIGN(auto want_greedy,
                           explain::GreedyCardinalityClimb(&bound, wni));
      ASSERT_OK_AND_ASSIGN(auto got_greedy, session.GreedyCard(missing));
      ASSERT_EQ(got_greedy.has_value(), want_greedy.has_value());
      if (want_greedy.has_value()) {
        EXPECT_EQ(got_greedy->explanation, want_greedy->explanation);
        EXPECT_TRUE(got_greedy->degree == want_greedy->degree);
      }

      if (!want_all.empty()) {
        ASSERT_OK_AND_ASSIGN(
            bool want_mge,
            explain::CheckMgeExternal(&bound, wni, want_all.front()));
        ASSERT_OK_AND_ASSIGN(bool got_mge,
                             session.CheckMge(missing, want_all.front()));
        EXPECT_EQ(got_mge, want_mge);
        EXPECT_TRUE(want_mge);
      }
    }

    // The external why dual against a present tuple that has
    // why-explanations, so the comparison is between non-empty antichains.
    {
      const Tuple& present = f.present;
      explain::WhyInstance wi;
      wi.instance = f.instance.get();
      wi.answers = f.answers;
      wi.present = present;
      onto::BoundOntology bound(f.ontology.get(), f.instance.get());
      ASSERT_OK_AND_ASSIGN(
          std::vector<explain::Explanation> want_why,
          explain::AllMostGeneralWhyExplanations(&bound, wi));
      ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> got_why,
                           session.WhyMges(present));
      EXPECT_FALSE(want_why.empty());
      EXPECT_EQ(got_why, want_why);
    }
  }
  par::SetNumThreads(0);
}

TEST(SessionExternalTest, RequestValidationMatchesOneShotContracts) {
  ExternalFixture f = MakeExternalFixture(11);
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::BindWithAnswers(f.instance.get(), f.answers,
                                               f.ontology.get()));
  // A tuple inside Ans cannot be a why-not question, and vice versa.
  EXPECT_FALSE(session.ExhaustiveMges(f.answers.front()).ok());
  EXPECT_FALSE(session.WhyMges(f.missing.front()).ok());
  // Derived requests work without an ontology; external ones refuse.
  ASSERT_OK_AND_ASSIGN(explain::ExplainSession derived_only,
                       explain::ExplainSession::BindWithAnswers(
                           f.instance.get(), f.answers, nullptr));
  EXPECT_FALSE(derived_only.ExhaustiveMges(f.missing.front()).ok());
  EXPECT_TRUE(derived_only.WhyNot(f.missing.front()).ok());
}

// --- Derived-ontology (OI) equivalence over a real query --------------------

struct DerivedFixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  rel::UnionQuery query;
};

DerivedFixture MakeCitiesFixture() {
  DerivedFixture f;
  auto schema = workload::CitiesDataSchema();
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::CitiesInstance(&f.schema);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());
  f.query = workload::ConnectedViaQuery();
  return f;
}

TEST(SessionDerivedTest, RepeatedRequestsMatchOneShot) {
  DerivedFixture f = MakeCitiesFixture();
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> answers,
                       rel::Evaluate(f.query, *f.instance));
  ASSERT_FALSE(answers.empty());
  const std::vector<Value>& adom = f.instance->ActiveDomain();
  std::vector<Tuple> missing;
  for (const Value& a : adom) {
    for (const Value& b : adom) {
      Tuple t = {a, b};
      if (!std::binary_search(answers.begin(), answers.end(), t)) {
        missing.push_back(std::move(t));
      }
      if (missing.size() >= 3) break;
    }
    if (missing.size() >= 3) break;
  }
  ASSERT_EQ(missing.size(), 3u);

  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    ASSERT_OK_AND_ASSIGN(
        explain::ExplainSession session,
        explain::ExplainSession::Bind(f.instance.get(), f.query));
    EXPECT_EQ(session.answers(), answers);

    for (const Tuple& m : missing) {
      ASSERT_OK_AND_ASSIGN(
          explain::WhyNotInstance wni,
          explain::MakeWhyNotInstance(f.instance.get(), f.query, m));

      ASSERT_OK_AND_ASSIGN(explain::LsExplanation want_inc,
                           explain::IncrementalSearch(wni, {}));
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation got_inc, session.WhyNot(m));
      EXPECT_EQ(got_inc, want_inc);

      explain::EnumerateStats want_stats, got_stats;
      ASSERT_OK_AND_ASSIGN(
          std::vector<explain::LsExplanation> want_enum,
          explain::EnumerateAllMges(wni, {}, &want_stats));
      ASSERT_OK_AND_ASSIGN(std::vector<explain::LsExplanation> got_enum,
                           session.EnumerateMges(m, &got_stats));
      EXPECT_EQ(got_enum, want_enum);
      EXPECT_EQ(got_stats.nodes_expanded, want_stats.nodes_expanded);
      EXPECT_EQ(got_stats.duplicate_outputs, want_stats.duplicate_outputs);
      EXPECT_EQ(got_stats.visited_hits, want_stats.visited_hits);
      EXPECT_EQ(got_stats.max_delay, want_stats.max_delay);

      ls::LubContext lub(f.instance.get());
      ASSERT_OK_AND_ASSIGN(
          bool want_mge,
          explain::CheckMgeDerived(wni, want_inc, /*with_selections=*/false,
                                   &lub));
      ASSERT_OK_AND_ASSIGN(bool got_mge,
                           session.CheckMgeDerived(m, want_inc));
      EXPECT_EQ(got_mge, want_mge);
      EXPECT_TRUE(want_mge);
    }

    // The dual question over every answer tuple.
    for (const Tuple& present : answers) {
      ASSERT_OK_AND_ASSIGN(
          explain::WhyInstance wi,
          explain::MakeWhyInstance(f.instance.get(), f.query, present));
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation want_why,
                           explain::IncrementalWhySearch(wi));
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation got_why,
                           session.Why(present));
      EXPECT_EQ(got_why, want_why);
    }
  }
  par::SetNumThreads(0);
}

// The concept cache owns the session's one ⟦C⟧ᴵ memo, so checking an
// enumerated MGE evaluates its concepts to the extension objects the
// enumeration built, and the cover rows keyed by their addresses serve
// the check: it builds no second row for one concept.
TEST(SessionDerivedTest, ChecksOfEnumeratedMgesReuseCoverRows) {
  ASSERT_OK_AND_ASSIGN(workload::RetailScenario s,
                       workload::MakeRetailScenario(24, 9));
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(s.instance.get(), s.stock_query));
  ASSERT_OK_AND_ASSIGN(std::vector<explain::LsExplanation> mges,
                       session.EnumerateMges(s.missing));
  ASSERT_FALSE(mges.empty());
  const size_t cover_bytes = session.MemoryUsage().cover_bytes;
  for (const explain::LsExplanation& e : mges) {
    ASSERT_OK_AND_ASSIGN(bool mge, session.CheckMgeDerived(s.missing, e));
    EXPECT_TRUE(mge);
  }
  EXPECT_EQ(session.MemoryUsage().cover_bytes, cover_bytes);
}

// The session's one `lub` limit and one `with_selections` flag reach every
// derived request: with selections, one canonical box per relation is too
// few for the retail stock query, so each request stops on the budget.
TEST(SessionDerivedTest, SessionLubLimitReachesEveryDerivedRequest) {
  ASSERT_OK_AND_ASSIGN(workload::RetailScenario s,
                       workload::MakeRetailScenario(4, 3));
  explain::ExplainSessionOptions options;
  options.with_selections = true;
  options.lub.max_boxes_per_relation = 1;
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(s.instance.get(), s.stock_query,
                                    /*ontology=*/nullptr, options));
  ASSERT_FALSE(session.answers().empty());
  const Tuple present = session.answers().front();
  explain::LsExplanation nominals;
  for (const Value& v : s.missing) {
    nominals.push_back(ls::LsConcept::Nominal(v));
  }
  EXPECT_EQ(session.WhyNot(s.missing).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(session.Why(present).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(session.EnumerateMges(s.missing).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(session.CheckMgeDerived(s.missing, nominals).status().code(),
            StatusCode::kResourceExhausted);
}

// --- Invalidation ----------------------------------------------------------

TEST(SessionInvalidationTest, AddFactRebuildsDeterministically) {
  DerivedFixture f = MakeCitiesFixture();
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    // Fresh per-thread-count copy so the mutation sequence is identical.
    rel::Instance instance(*f.instance);
    ASSERT_OK_AND_ASSIGN(explain::ExplainSession session,
                         explain::ExplainSession::Bind(&instance, f.query));
    uint64_t v0 = session.warmed_version();
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation before, session.WhyNot(missing));
    (void)before;

    // Mutate: a new city and new connections change both adom(I) and q(I).
    ASSERT_OK(instance.AddFact(
        "Cities",
        {Value("Utrecht"), Value(358454), Value("Netherlands"),
         Value("Europe")}));
    ASSERT_OK(instance.AddFact("Train-Connections",
                               {Value("Utrecht"), Value("Amsterdam")}));
    ASSERT_OK(instance.AddFact("Train-Connections",
                               {Value("Amsterdam"), Value("Berlin")}));
    uint64_t mutated_version = instance.version();
    ASSERT_NE(mutated_version, v0);

    // The next request must serve against the mutated instance, exactly
    // like a cold one-shot call on it.
    ASSERT_OK_AND_ASSIGN(
        explain::WhyNotInstance wni,
        explain::MakeWhyNotInstance(&instance, f.query, missing));
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation want,
                         explain::IncrementalSearch(wni, {}));
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation got, session.WhyNot(missing));
    EXPECT_EQ(got, want);
    EXPECT_NE(session.warmed_version(), v0);
    EXPECT_EQ(session.answers(), wni.answers);

    // A duplicate AddFact is a no-op: the version must not move, so the
    // warm state survives the next request untouched.
    EXPECT_EQ(session.warmed_version(), mutated_version);
    ASSERT_OK(instance.AddFact("Train-Connections",
                               {Value("Amsterdam"), Value("Berlin")}));
    EXPECT_EQ(instance.version(), mutated_version);
    ASSERT_OK_AND_ASSIGN(explain::LsExplanation again, session.WhyNot(missing));
    EXPECT_EQ(again, want);
    EXPECT_EQ(session.warmed_version(), mutated_version);
  }
  par::SetNumThreads(0);
}

std::string Serialize(const explain::LsExplanation& e) {
  std::string s;
  for (const ls::LsConcept& c : e) s += c.ToString() + "|";
  return s;
}

/// Every derived request type against `session`, serialized: WhyNot, the
/// MGE antichain with its deterministic stats, CHECK-MGE of each MGE, and
/// Why of the first answer.
std::string DerivedRequestMix(explain::ExplainSession* session,
                              const Tuple& missing) {
  std::string out;
  auto incr = session->WhyNot(missing);
  EXPECT_TRUE(incr.ok()) << incr.status().ToString();
  if (incr.ok()) out += "I:" + Serialize(incr.value()) + ";";
  explain::EnumerateStats stats;
  auto mges = session->EnumerateMges(missing, &stats);
  EXPECT_TRUE(mges.ok()) << mges.status().ToString();
  if (!mges.ok()) return out + "enumerate failed";
  for (const explain::LsExplanation& e : mges.value()) {
    out += "E:" + Serialize(e) + ";";
    auto chk = session->CheckMgeDerived(missing, e);
    EXPECT_TRUE(chk.ok()) << chk.status().ToString();
    out += chk.ok() && chk.value() ? "1;" : "0;";
  }
  out += "#" + std::to_string(stats.nodes_expanded) + "/" +
         std::to_string(stats.duplicate_outputs) + "/" +
         std::to_string(stats.visited_hits) + "/" +
         std::to_string(stats.max_delay) + ";";
  auto why = session->Why(session->answers().front());
  EXPECT_TRUE(why.ok()) << why.status().ToString();
  if (why.ok()) out += "W:" + Serialize(why.value()) + ";";
  return out;
}

TEST(SessionInvalidationTest, SignatureChangingWritesMatchFreshBinding) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::RandomSchema(2, {2}));
  ASSERT_OK_AND_ASSIGN(
      rel::Instance base,
      workload::RandomInstance(&schema, /*rows_per_relation=*/8,
                               /*domain=*/6, /*seed=*/17));
  const std::vector<Value>& adom = base.ActiveDomain();
  std::vector<Tuple> answers = {{adom[0], adom[1]}, {adom[1], adom[2]},
                                {adom[2], adom[2]}};
  const Tuple missing = {adom[0], adom[2]};
  // Writes that put values into columns that did not hold them, so the
  // column signatures the selection-free lub keys by change under a warm
  // session: new constants 40 and 41, and each active-domain value
  // entering both columns of R0 and R1. One write is a no-op duplicate.
  std::vector<std::pair<std::string, Tuple>> writes = {
      {"R0", {Value(40), adom[0]}},
      {"R1", {adom[2], Value(41)}},
      {"R1", {adom[2], Value(41)}},
  };
  for (const Value& v : adom) writes.push_back({"R0", {v, v}});
  for (const Value& v : adom) writes.push_back({"R1", {v, v}});
  for (int threads : {1, 8}) {
    par::SetNumThreads(threads);
    for (bool with_selections : {false, true}) {
      explain::ExplainSessionOptions options;
      options.with_selections = with_selections;
      rel::Instance instance(base);
      ASSERT_OK_AND_ASSIGN(explain::ExplainSession session,
                           explain::ExplainSession::BindWithAnswers(
                               &instance, answers, nullptr, options));
      DerivedRequestMix(&session, missing);  // warm every cache tier
      for (const auto& [relation, fact] : writes) {
        ASSERT_OK(instance.AddFact(relation, fact));
        ASSERT_OK_AND_ASSIGN(explain::ExplainSession fresh,
                             explain::ExplainSession::BindWithAnswers(
                                 &instance, answers, nullptr, options));
        std::string want = DerivedRequestMix(&fresh, missing);
        EXPECT_NE(want.find("E:"), std::string::npos);  // MGEs to compare
        EXPECT_EQ(DerivedRequestMix(&session, missing), want)
            << relation << TupleToString(fact) << " with_selections="
            << with_selections << " threads=" << threads;
      }
    }
  }
  par::SetNumThreads(0);
}

/// The first pair over values 0..9 that is not an answer (the request
/// tuple for a session over `answers`); empty if every pair is one.
Tuple FirstNonAnswer(const std::vector<Tuple>& answers) {
  for (int64_t x = 0; x < 10; ++x) {
    for (int64_t y = 0; y < 10; ++y) {
      Tuple t = {Value(x), Value(y)};
      if (!std::binary_search(answers.begin(), answers.end(), t)) return t;
    }
  }
  return {};
}

/// R0(a, b), R1(a, b) and Log(a), which no query below reads.
rel::Schema PathOrEdgeSchema() {
  rel::Schema schema;
  EXPECT_OK(schema.AddRelation("R0", {"a", "b"}));
  EXPECT_OK(schema.AddRelation("R1", {"a", "b"}));
  EXPECT_OK(schema.AddRelation("Log", {"a"}));
  return schema;
}

/// q(x, y) :- R0(x, z), R0(z, y)  ∪  q(x, y) :- R1(x, y). The tests never
/// clear R1, so Ans stays non-empty for the Why request.
rel::UnionQuery PathOrEdgeQuery() {
  rel::ConjunctiveQuery path;
  path.head = {"x", "y"};
  path.atoms = {testutil::A("R0", {testutil::V("x"), testutil::V("z")}),
                testutil::A("R0", {testutil::V("z"), testutil::V("y")})};
  rel::ConjunctiveQuery edge;
  edge.head = {"x", "y"};
  edge.atoms = {testutil::A("R1", {testutil::V("x"), testutil::V("y")})};
  rel::UnionQuery query;
  query.disjuncts = {path, edge};
  return query;
}

TEST(SessionInvalidationTest, RandomWritesMatchFreshBinding) {
  const rel::Schema schema = PathOrEdgeSchema();
  const rel::UnionQuery query = PathOrEdgeQuery();

  enum Write { kAppendR0, kAppendR1, kAppendLog, kDuplicate, kClear, kAssign };
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    auto value = [&] { return Value(static_cast<int64_t>(rng.Below(8))); };
    rel::Instance base(&schema);
    for (int r = 0; r < 10; ++r) ASSERT_OK(base.AddFact("R0", {value(), value()}));
    for (int r = 0; r < 4; ++r) ASSERT_OK(base.AddFact("R1", {value(), value()}));
    // k writes: every kind once, then random kinds, in a seeded order.
    std::vector<Write> writes = {kAppendR0, kAppendR1, kAppendLog,
                                 kDuplicate, kClear, kAssign};
    while (writes.size() < 16) writes.push_back(static_cast<Write>(rng.Below(6)));
    for (size_t i = writes.size() - 1; i > 0; --i) {
      std::swap(writes[i], writes[rng.Below(i + 1)]);
    }
    // Appends draw values 0..9 from here on: 8 and 9 are new constants
    // that shift the pool ranks of the stored ones.
    std::vector<std::pair<Tuple, Tuple>> facts;
    for (size_t w = 0; w < writes.size(); ++w) {
      auto v = [&] { return Value(static_cast<int64_t>(rng.Below(10))); };
      facts.push_back({{v(), v()}, {v()}});
    }
    for (int threads : {1, 8}) {
      par::SetNumThreads(threads);
      rel::Instance instance(base);
      rel::Instance snapshot(base);  // the contents an assignment restores
      ASSERT_OK_AND_ASSIGN(explain::ExplainSession session,
                           explain::ExplainSession::Bind(&instance, query));
      EXPECT_EQ(session.rewarm_counts().full, 1u);
      for (size_t w = 0; w < writes.size(); ++w) {
        const auto& [pair, single] = facts[w];
        bool append = false;
        switch (writes[w]) {
          case kAppendR0:
            ASSERT_OK(instance.AddFact("R0", pair));
            append = true;
            break;
          case kAppendR1:
            ASSERT_OK(instance.AddFact("R1", pair));
            append = true;
            break;
          case kAppendLog:
            ASSERT_OK(instance.AddFact("Log", single));
            append = true;
            break;
          case kDuplicate:
            ASSERT_OK(instance.AddFact("R1", instance.Relation("R1").front()));
            break;
          case kClear:
            instance.ClearRelation("R0");
            break;
          case kAssign:
            ASSERT_OK(snapshot.AddFact("R0", pair));
            instance = snapshot;
            break;
        }
        const bool rewarms = instance.version() != session.warmed_version();
        const explain::ExplainSession::RewarmCounts before =
            session.rewarm_counts();
        ASSERT_OK_AND_ASSIGN(explain::ExplainSession fresh,
                             explain::ExplainSession::Bind(&instance, query));
        const Tuple missing = FirstNonAnswer(fresh.answers());
        ASSERT_FALSE(missing.empty());
        std::string want = DerivedRequestMix(&fresh, missing);
        std::string got = DerivedRequestMix(&session, missing);
        const std::string where = "seed " + std::to_string(seed) + " write " +
                                  std::to_string(w) + " kind " +
                                  std::to_string(writes[w]) + " threads " +
                                  std::to_string(threads);
        EXPECT_EQ(session.answers(), fresh.answers()) << where;
        EXPECT_EQ(got, want) << where;
        // An append re-warms by delta; a clear or an assignment in full;
        // a duplicate not at all.
        explain::ExplainSession::RewarmCounts after = session.rewarm_counts();
        EXPECT_EQ(after.delta, before.delta + (rewarms && append ? 1 : 0))
            << where;
        EXPECT_EQ(after.full, before.full + (rewarms && !append ? 1 : 0))
            << where;
        if (writes[w] == kDuplicate) EXPECT_FALSE(rewarms) << where;
      }
    }
  }
  par::SetNumThreads(0);
}

/// Whether every value of `fact` is already in its column of `relation`,
/// so appending it leaves every distinct column as it was.
bool ColumnStable(const rel::Instance& instance, const std::string& relation,
                  const Tuple& fact) {
  const rel::StoredRelation* rel = instance.Find(relation);
  if (rel == nullptr || rel->empty()) return false;
  for (size_t a = 0; a < fact.size(); ++a) {
    const ValueId id = instance.LookupId(fact[a]);
    const std::vector<ValueId>& keys = rel->Index(a).keys;
    if (id < 0 || !std::binary_search(keys.begin(), keys.end(), id)) {
      return false;
    }
  }
  return true;
}

/// The values of column `attr` of `relation` (empty when it has no rows).
std::vector<Value> ColumnValues(const rel::Instance& instance,
                                const std::string& relation, size_t attr) {
  std::vector<Value> out;
  const rel::StoredRelation* rel = instance.Find(relation);
  if (rel == nullptr || rel->empty()) return out;
  for (ValueId id : rel->Index(attr).keys) {
    out.push_back(instance.pool().Get(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// (π_0(σ_{1 = c}(relation)), ⊤): its first position reads rows, not only
/// a distinct column.
explain::LsExplanation SelectionCandidate(const std::string& relation,
                                          const Value& c) {
  return {ls::LsConcept::Projection(relation, 0,
                                    {ls::Selection{1, rel::CmpOp::kEq, c}}),
          ls::LsConcept::Top()};
}

std::string CheckResult(const Result<bool>& r) {
  return r.ok() ? (r.value() ? "1" : "0") : r.status().ToString();
}

// Appends that fill a hole between values the columns already hold keep the
// derived O_I state; appends that bring a value new to a column, a CHECK-MGE
// candidate with a selection conjunct, a clear, and the with-selections
// flavor rebuild it. After every write both bindings match a fresh one bit
// for bit, and the `kept` counter says which path each re-warm took.
TEST(SessionInvalidationTest, ColumnStableAppendsKeepDerivedState) {
  const rel::Schema schema = PathOrEdgeSchema();
  const rel::UnionQuery query = PathOrEdgeQuery();
  enum Write { kFill, kNewValue, kLog, kDuplicate, kSelection, kClear };
  for (uint64_t seed : {1, 2, 3}) {
    rel::Instance base(&schema);
    {
      Rng rng(seed);
      auto v = [&] { return Value(static_cast<int64_t>(rng.Below(6))); };
      for (int r = 0; r < 12; ++r) ASSERT_OK(base.AddFact("R0", {v(), v()}));
      for (int r = 0; r < 6; ++r) ASSERT_OK(base.AddFact("R1", {v(), v()}));
    }
    // Fixed answers; 9 is foreign until a write brings it in.
    const std::vector<Tuple> fixed = {{Value(0), Value(1)},
                                      {Value(1), Value(2)},
                                      {Value(2), Value(2)},
                                      {Value(9), Value(1)}};
    for (int threads : {1, 8}) {
      par::SetNumThreads(threads);
      for (bool with_selections : {false, true}) {
        for (bool query_bound : {true, false}) {
          explain::ExplainSessionOptions options;
          options.with_selections = with_selections;
          rel::Instance instance(base);
          auto bind = [&]() {
            return query_bound
                       ? explain::ExplainSession::Bind(&instance, query,
                                                       nullptr, options)
                       : explain::ExplainSession::BindWithAnswers(
                             &instance, fixed, nullptr, options);
          };
          ASSERT_OK_AND_ASSIGN(explain::ExplainSession session, bind());
          DerivedRequestMix(&session, FirstNonAnswer(session.answers()));
          // The same seeded writes in every configuration: each draws from
          // the instance, which evolves the same way in all of them.
          Rng rng(seed ^ 0x7ull);
          std::vector<Write> writes = {kFill,      kNewValue, kLog,
                                       kDuplicate, kSelection, kClear};
          while (writes.size() < 20) {
            writes.push_back(static_cast<Write>(rng.Below(6)));
          }
          for (size_t i = writes.size() - 1; i > 0; --i) {
            std::swap(writes[i], writes[rng.Below(i + 1)]);
          }
          size_t want_kept = 0;
          bool selection_read = false;  // since the last rebuild
          for (size_t w = 0; w < writes.size(); ++w) {
            const std::string where =
                "seed " + std::to_string(seed) + " write " +
                std::to_string(w) + " kind " + std::to_string(writes[w]) +
                " threads " + std::to_string(threads) + " selections " +
                std::to_string(with_selections) + " query " +
                std::to_string(query_bound);
            std::string relation = rng.Chance(1, 2) ? "R0" : "R1";
            if ((writes[w] == kFill || writes[w] == kSelection) &&
                ColumnValues(instance, relation, 0).empty()) {
              relation = "R1";  // R0 was cleared: no hole to fill
            }
            Tuple fact;
            switch (writes[w]) {
              case kFill:
              case kSelection: {
                // A hole between values both columns already hold (a
                // duplicate when the columns' product is full).
                const std::vector<Value> xs =
                    ColumnValues(instance, relation, 0);
                const std::vector<Value> ys =
                    ColumnValues(instance, relation, 1);
                fact = {xs[rng.Below(xs.size())], ys[rng.Below(ys.size())]};
                for (int t = 0; t < 20 && instance.Contains(relation, fact);
                     ++t) {
                  fact = {xs[rng.Below(xs.size())], ys[rng.Below(ys.size())]};
                }
                break;
              }
              case kNewValue: {
                // A value 0..9 the column lacks at one position.
                const size_t pos = rng.Below(2);
                const std::vector<Value> col =
                    ColumnValues(instance, relation, pos);
                auto held = [&](const Value& x) {
                  return std::binary_search(col.begin(), col.end(), x);
                };
                Value fresh_value(static_cast<int64_t>(rng.Below(10)));
                for (int t = 0; t < 20 && held(fresh_value); ++t) {
                  fresh_value = Value(static_cast<int64_t>(rng.Below(10)));
                }
                if (held(fresh_value)) {
                  fresh_value = Value(static_cast<int64_t>(100 + w));
                }
                fact = {Value(static_cast<int64_t>(rng.Below(6))),
                        Value(static_cast<int64_t>(rng.Below(6)))};
                fact[pos] = fresh_value;
                break;
              }
              case kLog:
                relation = "Log";
                fact = {Value(static_cast<int64_t>(rng.Below(10)))};
                break;
              case kDuplicate:
                relation = "R1";
                fact = instance.Relation("R1").front();
                break;
              case kClear:
                relation = "R0";
                break;
            }
            if (writes[w] == kSelection) {
              // A candidate whose first position reads rows of `relation`:
              // the eval cache now holds a row-dependent extension, so the
              // next re-warm must rebuild. The check itself must agree with
              // a fresh binding, before and after the write.
              ASSERT_OK_AND_ASSIGN(explain::ExplainSession before, bind());
              const Tuple missing = FirstNonAnswer(before.answers());
              const explain::LsExplanation candidate =
                  SelectionCandidate(relation, fact[1]);
              EXPECT_EQ(
                  CheckResult(session.CheckMgeDerived(missing, candidate)),
                  CheckResult(before.CheckMgeDerived(missing, candidate)))
                  << where;
              selection_read = true;
            }
            const bool stable =
                writes[w] != kClear && ColumnStable(instance, relation, fact);
            if (writes[w] == kClear) {
              instance.ClearRelation(relation);
            } else {
              ASSERT_OK(instance.AddFact(relation, fact));
            }
            const bool rewarms = instance.version() != session.warmed_version();
            ASSERT_OK_AND_ASSIGN(explain::ExplainSession fresh, bind());
            const Tuple missing = FirstNonAnswer(fresh.answers());
            ASSERT_FALSE(missing.empty());
            const std::string want = DerivedRequestMix(&fresh, missing);
            EXPECT_EQ(DerivedRequestMix(&session, missing), want) << where;
            EXPECT_EQ(session.answers(), fresh.answers()) << where;
            // The why dual counts covered answers, so it reads every bit of
            // the kept cover rows, the new answers' included.
            for (const Tuple& present : fresh.answers()) {
              auto want_why = fresh.Why(present);
              auto got_why = session.Why(present);
              ASSERT_EQ(got_why.ok(), want_why.ok()) << where;
              if (want_why.ok()) {
                EXPECT_EQ(Serialize(got_why.value()),
                          Serialize(want_why.value()))
                    << where << " present " << TupleToString(present);
              }
            }
            if (writes[w] == kSelection) {
              const explain::LsExplanation candidate =
                  SelectionCandidate(relation, fact[1]);
              EXPECT_EQ(
                  CheckResult(session.CheckMgeDerived(missing, candidate)),
                  CheckResult(fresh.CheckMgeDerived(missing, candidate)))
                  << where;
            }
            if (rewarms) {
              if (stable && !with_selections && !selection_read) ++want_kept;
              selection_read = false;
            }
            // The check after the write read the selection into whichever
            // eval cache the re-warm left.
            if (writes[w] == kSelection) selection_read = true;
            EXPECT_EQ(session.rewarm_counts().kept, want_kept) << where;
          }
          // The seeded mix must exercise the keep path.
          if (!with_selections) EXPECT_GT(want_kept, 0u) << seed;
        }
      }
    }
  }
  par::SetNumThreads(0);
}

// A CHECK-MGE candidate with a selection conjunct brings a row-dependent
// extension into the eval cache; an append that leaves every column as it
// was but adds a row the selection passes must not serve it stale.
TEST(SessionInvalidationTest, SelectionCandidateForcesRebuild) {
  rel::Schema schema;
  ASSERT_OK(schema.AddRelation("R0", {"a", "b"}));
  ASSERT_OK(schema.AddRelation("R1", {"a", "b"}));
  rel::ConjunctiveQuery edge;
  edge.head = {"x", "y"};
  edge.atoms = {testutil::A("R1", {testutil::V("x"), testutil::V("y")})};
  rel::UnionQuery query;
  query.disjuncts = {edge};
  const std::vector<Tuple> answers = {{Value(2), Value(5)},
                                      {Value(3), Value(7)}};
  // (π_a(σ_{b=10}(R0)), {5}) explains (1, 5) most generally while R0 has
  // 1 and 3 but not 2 under b = 10: π_a(R0) and ⊤ would cover (2, 5), and
  // every generalization of {5} covers (3, 7).
  const Tuple missing = {Value(1), Value(5)};
  const explain::LsExplanation candidate = {
      ls::LsConcept::Projection("R0", 0,
                                {ls::Selection{1, rel::CmpOp::kEq, Value(10)}}),
      ls::LsConcept::Nominal(Value(5))};
  for (bool query_bound : {true, false}) {
    rel::Instance instance(&schema);
    for (const Tuple& t : std::vector<Tuple>{{Value(1), Value(10)},
                                             {Value(2), Value(20)},
                                             {Value(3), Value(10)}}) {
      ASSERT_OK(instance.AddFact("R0", t));
    }
    for (const Tuple& t : answers) ASSERT_OK(instance.AddFact("R1", t));
    auto bind = [&]() {
      return query_bound
                 ? explain::ExplainSession::Bind(&instance, query)
                 : explain::ExplainSession::BindWithAnswers(&instance, answers);
    };
    ASSERT_OK_AND_ASSIGN(explain::ExplainSession session, bind());
    ASSERT_OK_AND_ASSIGN(bool before,
                         session.CheckMgeDerived(missing, candidate));
    EXPECT_TRUE(before);

    // R0(2, 10): both values already in their columns; σ_{b=10} now passes
    // 2, so the candidate's product covers (2, 5).
    ASSERT_OK(instance.AddFact("R0", {Value(2), Value(10)}));
    ASSERT_OK_AND_ASSIGN(explain::ExplainSession fresh, bind());
    ASSERT_OK_AND_ASSIGN(bool want, fresh.CheckMgeDerived(missing, candidate));
    EXPECT_FALSE(want);
    ASSERT_OK_AND_ASSIGN(bool got, session.CheckMgeDerived(missing, candidate));
    EXPECT_EQ(got, want);
    EXPECT_EQ(session.rewarm_counts().kept, 0u);

    // The check above read the selection again, so the next column-stable
    // append rebuilds too; after a write with no selection read since, the
    // state is kept again.
    const std::vector<std::pair<std::string, Tuple>> writes = {
        {"R1", {Value(3), Value(5)}}, {"R0", {Value(1), Value(20)}}};
    for (size_t w = 0; w < writes.size(); ++w) {
      ASSERT_OK(instance.AddFact(writes[w].first, writes[w].second));
      ASSERT_OK_AND_ASSIGN(explain::ExplainSession again, bind());
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation want_one,
                           again.WhyNot(missing));
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation got_one,
                           session.WhyNot(missing));
      EXPECT_EQ(got_one, want_one);
      EXPECT_EQ(session.answers(), again.answers());
      EXPECT_EQ(session.rewarm_counts().kept, w);
    }
  }
}

}  // namespace
}  // namespace whynot
