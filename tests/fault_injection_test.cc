// Fault-injection matrix for engine-wide execution control (PR 8): every
// explanation search must honor deadlines, cooperative cancellation, and
// budgets *identically at every thread count*. A test::FaultInjector rides
// in the ExecContext and fires at a configured probe ordinal; because all
// searches observe their context only at serial merge points with
// thread-invariant probe ordinals, the interrupted run's partial prefix and
// quality certificate must be bit-identical at WHYNOT_THREADS ∈ {1, 2, 8}
// for every injection point — the PR 4 determinism gate extended to
// interrupted executions.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

using explain::Explanation;

constexpr int kThreadCounts[] = {1, 2, 8};
// Injection points per search per stop reason (ISSUE 8 demands >= 20).
constexpr size_t kInjectionPoints = 24;

struct Fixture {
  rel::Schema schema;
  std::unique_ptr<rel::Instance> instance;
  std::unique_ptr<onto::ExplicitOntology> ontology;
  std::unique_ptr<onto::BoundOntology> bound;
  std::unique_ptr<explain::WhyNotInstance> wni;
  std::unique_ptr<explain::WhyInstance> wi;
};

Fixture MakeFixture() {
  Fixture f;
  auto schema = workload::CitiesDataSchema();
  EXPECT_TRUE(schema.ok());
  f.schema = std::move(schema).value();
  auto instance = workload::CitiesInstance(&f.schema);
  EXPECT_TRUE(instance.ok());
  f.instance = std::make_unique<rel::Instance>(std::move(instance).value());
  auto ontology = workload::CitiesOntology();
  EXPECT_TRUE(ontology.ok());
  f.ontology = std::move(ontology).value();
  f.bound =
      std::make_unique<onto::BoundOntology>(f.ontology.get(), f.instance.get());
  auto wni = explain::MakeWhyNotInstance(f.instance.get(),
                                         workload::ConnectedViaQuery(),
                                         {"Amsterdam", "New York"});
  EXPECT_TRUE(wni.ok()) << wni.status().ToString();
  f.wni = std::make_unique<explain::WhyNotInstance>(std::move(wni).value());
  auto wi = explain::MakeWhyInstance(f.instance.get(),
                                     workload::ConnectedViaQuery(),
                                     {Value("New York"), Value("Santa Cruz")});
  EXPECT_TRUE(wi.ok()) << wi.status().ToString();
  f.wi = std::make_unique<explain::WhyInstance>(std::move(wi).value());
  return f;
}

/// One run's full observable outcome: status code, rendered partial
/// results, and the certificate. Two runs are "bit-identical" iff all of
/// it matches.
struct Outcome {
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> items;
  exec::Quality quality = exec::Quality::kExact;
  exec::StopReason stop = exec::StopReason::kNone;
  exec::Progress progress;

  bool operator==(const Outcome& o) const {
    return code == o.code && items == o.items && quality == o.quality &&
           stop == o.stop && progress.tested == o.progress.tested &&
           progress.remaining == o.progress.remaining &&
           progress.best_so_far == o.progress.best_so_far;
  }

  std::string ToString() const {
    std::string out = std::string(StatusCodeName(code)) + " " +
                      exec::QualityName(quality) + "/" +
                      exec::StopReasonName(stop) + " tested=" +
                      std::to_string(progress.tested) + " remaining=" +
                      std::to_string(progress.remaining) + " best=" +
                      std::to_string(progress.best_so_far) + " [";
    for (const std::string& s : items) out += s + "; ";
    return out + "]";
  }
};

void TakeCert(Outcome* out, const exec::Certificate& cert) {
  out->quality = cert.quality;
  out->stop = cert.stop;
  out->progress = cert.progress;
}

using Runner = std::function<Outcome(Fixture&, const exec::ExecContext*,
                                     exec::Certificate*)>;

struct SearchCase {
  const char* name;
  Runner run;
};

/// The eight searches of the matrix. Algorithm 1 runs once pinned to the
/// odometer and once to the lattice frontier so both probe schemes
/// (per-candidate ordinals, per-wave product counts) are exercised;
/// CardMaximal, Exists, WhyMges, and Enumerate cover the branch-and-bound,
/// backtracking, dual-antichain, and branch-tree families; the two
/// incremental searches (Algorithm 2 and its why dual) cover the greedy
/// lub-generalization sweep over adom(I), one probe per (position,
/// constant).
std::vector<SearchCase> AllSearches() {
  std::vector<SearchCase> cases;
  cases.push_back(
      {"mges-odometer",
       [](Fixture& f, const exec::ExecContext* exec, exec::Certificate* cert) {
         explain::ExhaustiveOptions o;
         o.strategy = explain::SearchStrategy::kOdometer;
         o.exec = exec;
         o.cert = cert;
         Outcome out;
         auto r = explain::PrunedSearchAllMge(f.bound.get(), *f.wni, o);
         out.code = r.status().code();
         if (r.ok()) {
           for (const Explanation& e : r.value()) {
             out.items.push_back(explain::ExplanationToString(*f.bound, e));
           }
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"mges-lattice",
       [](Fixture& f, const exec::ExecContext* exec, exec::Certificate* cert) {
         explain::ExhaustiveOptions o;
         o.strategy = explain::SearchStrategy::kLattice;
         o.exec = exec;
         o.cert = cert;
         Outcome out;
         auto r = explain::PrunedSearchAllMge(f.bound.get(), *f.wni, o);
         out.code = r.status().code();
         if (r.ok()) {
           for (const Explanation& e : r.value()) {
             out.items.push_back(explain::ExplanationToString(*f.bound, e));
           }
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"card-maximal",
       [](Fixture& f, const exec::ExecContext* exec, exec::Certificate* cert) {
         explain::ExhaustiveOptions o;
         o.strategy = explain::SearchStrategy::kOdometer;
         o.exec = exec;
         o.cert = cert;
         Outcome out;
         auto r = explain::ExactCardMaximal(f.bound.get(), *f.wni, o);
         out.code = r.status().code();
         if (r.ok() && r.value().has_value()) {
           out.items.push_back(
               explain::ExplanationToString(*f.bound, r.value()->explanation) +
               " degree=" + r.value()->degree.ToString());
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"exists",
       [](Fixture& f, const exec::ExecContext* exec, exec::Certificate* cert) {
         explain::ExistenceOptions o;
         o.exec = exec;
         o.cert = cert;
         Explanation witness;
         Outcome out;
         auto r = explain::ExistsExplanation(f.bound.get(), *f.wni, &witness, o);
         out.code = r.status().code();
         if (r.ok()) {
           out.items.push_back(
               r.value()
                   ? "yes: " + explain::ExplanationToString(*f.bound, witness)
                   : "no");
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"why-mges",
       [](Fixture& f, const exec::ExecContext* exec, exec::Certificate* cert) {
         explain::ExhaustiveOptions o;
         o.strategy = explain::SearchStrategy::kOdometer;
         o.exec = exec;
         o.cert = cert;
         Outcome out;
         auto r =
             explain::AllMostGeneralWhyExplanations(f.bound.get(), *f.wi, o);
         out.code = r.status().code();
         if (r.ok()) {
           for (const Explanation& e : r.value()) {
             out.items.push_back(explain::ExplanationToString(*f.bound, e));
           }
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"enumerate",
       [](Fixture& f, const exec::ExecContext* exec, exec::Certificate* cert) {
         explain::EnumerateOptions o;
         o.exec = exec;
         o.cert = cert;
         explain::EnumerateStats stats;
         Outcome out;
         auto r = explain::EnumerateAllMges(*f.wni, o, &stats);
         out.code = r.status().code();
         if (r.ok()) {
           for (const explain::LsExplanation& e : r.value()) {
             out.items.push_back(
                 explain::LsExplanationToString(f.schema, e));
           }
           out.items.push_back("nodes=" + std::to_string(stats.nodes_expanded));
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"incremental",
       [](Fixture& f, const exec::ExecContext* exec, exec::Certificate* cert) {
         explain::IncrementalOptions o;
         o.exec = exec;
         o.cert = cert;
         Outcome out;
         auto r = explain::IncrementalSearch(*f.wni, o);
         out.code = r.status().code();
         if (r.ok()) {
           out.items.push_back(
               explain::LsExplanationToString(f.schema, r.value()));
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  cases.push_back(
      {"incremental-why",
       [](Fixture& f, const exec::ExecContext* exec, exec::Certificate* cert) {
         Outcome out;
         auto r = explain::IncrementalWhySearch(
             *f.wi, /*with_selections=*/false, nullptr, nullptr, nullptr,
             nullptr, exec, cert);
         out.code = r.status().code();
         if (r.ok()) {
           out.items.push_back(
               explain::LsExplanationToString(f.schema, r.value()));
         }
         if (cert != nullptr) TakeCert(&out, *cert);
         return out;
       }});
  return cases;
}

test::FaultInjector MakeInjector(exec::StopReason reason, size_t trigger) {
  return reason == exec::StopReason::kCancelled
             ? test::FaultInjector::CancelAt(trigger)
             : test::FaultInjector::DeadlineAt(trigger);
}

// --- The matrix ------------------------------------------------------------

// Certified interruption at every injection point: the partial prefix and
// certificate of each search must be bit-identical at every thread count.
TEST(FaultInjectionMatrix, CertifiedPartialsAreBitIdenticalAcrossThreads) {
  for (const SearchCase& sc : AllSearches()) {
    for (exec::StopReason reason :
         {exec::StopReason::kCancelled, exec::StopReason::kDeadline}) {
      for (size_t trigger = 0; trigger < kInjectionPoints; ++trigger) {
        std::optional<Outcome> reference;
        for (int threads : kThreadCounts) {
          par::SetNumThreads(threads);
          Fixture f = MakeFixture();
          test::FaultInjector inj = MakeInjector(reason, trigger);
          exec::ExecContext ctx;
          ctx.fault = &inj;
          exec::Certificate cert;
          Outcome got = sc.run(f, &ctx, &cert);
          // Certified stops never surface as errors.
          ASSERT_EQ(got.code, StatusCode::kOk)
              << sc.name << " trigger=" << trigger
              << " threads=" << threads << ": " << got.ToString();
          if (got.stop != exec::StopReason::kNone) {
            EXPECT_EQ(got.stop, reason)
                << sc.name << " trigger=" << trigger;
          }
          if (!reference.has_value()) {
            reference = std::move(got);
          } else {
            EXPECT_TRUE(got == *reference)
                << sc.name << " (" << exec::StopReasonName(reason)
                << " at " << trigger << ") diverged at WHYNOT_THREADS="
                << threads << "\n  threads=1: " << reference->ToString()
                << "\n  threads=" << threads << ": " << got.ToString();
          }
        }
      }
    }
  }
  par::SetNumThreads(0);
}

// An immediate injected stop (trigger 0) fires for every search, so small
// triggers genuinely interrupt: the certificate must record the stop and
// downgrade the quality.
TEST(FaultInjectionMatrix, EarlyTriggersActuallyInterrupt) {
  par::SetNumThreads(1);
  for (const SearchCase& sc : AllSearches()) {
    Fixture f = MakeFixture();
    test::FaultInjector inj = test::FaultInjector::CancelAt(0);
    exec::ExecContext ctx;
    ctx.fault = &inj;
    exec::Certificate cert;
    Outcome got = sc.run(f, &ctx, &cert);
    ASSERT_EQ(got.code, StatusCode::kOk) << sc.name;
    EXPECT_EQ(got.stop, exec::StopReason::kCancelled) << sc.name;
    EXPECT_NE(got.quality, exec::Quality::kExact) << sc.name;
    EXPECT_GT(inj.observations(), 0u) << sc.name;
  }
  par::SetNumThreads(0);
}

// Without a certificate, stops surface as the matching error status — at
// every thread count.
TEST(FaultInjectionMatrix, UncertifiedStopsAreErrors) {
  for (const SearchCase& sc : AllSearches()) {
    for (int threads : kThreadCounts) {
      par::SetNumThreads(threads);
      Fixture f = MakeFixture();
      {
        test::FaultInjector inj = test::FaultInjector::CancelAt(0);
        exec::ExecContext ctx;
        ctx.fault = &inj;
        Outcome got = sc.run(f, &ctx, nullptr);
        EXPECT_EQ(got.code, StatusCode::kCancelled)
            << sc.name << " threads=" << threads;
      }
      {
        test::FaultInjector inj = test::FaultInjector::DeadlineAt(0);
        exec::ExecContext ctx;
        ctx.fault = &inj;
        Outcome got = sc.run(f, &ctx, nullptr);
        EXPECT_EQ(got.code, StatusCode::kDeadlineExceeded)
            << sc.name << " threads=" << threads;
      }
    }
  }
  par::SetNumThreads(0);
}

// A real (wall-clock) expired deadline stops every search with the right
// code; the stop ordinal is timing-dependent, so only the code is checked.
TEST(FaultInjectionMatrix, RealExpiredDeadlineStopsEverySearch) {
  par::SetNumThreads(2);
  for (const SearchCase& sc : AllSearches()) {
    Fixture f = MakeFixture();
    exec::ExecContext ctx;
    ctx.deadline = exec::Deadline::After(0);
    Outcome got = sc.run(f, &ctx, nullptr);
    EXPECT_EQ(got.code, StatusCode::kDeadlineExceeded) << sc.name;
  }
  par::SetNumThreads(0);
}

// The derived-ontology CHECK-MGEs observe their context once per candidate
// position (probe ordinal = position) and, being boolean checks, report
// every stop as an error: a trigger at position k < arity stops with the
// matching status at every thread count, and a trigger past the arity
// lets the check run to its normal verdict.
TEST(FaultInjectionMatrix, DerivedCheckMgeStopsPerPosition) {
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    Fixture f = MakeFixture();
    explain::LsExplanation nominals = {
        ls::LsConcept::Nominal(f.wni->missing[0]),
        ls::LsConcept::Nominal(f.wni->missing[1])};
    explain::LsExplanation why_nominals = {
        ls::LsConcept::Nominal(f.wi->present[0]),
        ls::LsConcept::Nominal(f.wi->present[1])};
    struct CheckCase {
      std::string name;
      size_t arity;
      std::function<Result<bool>(const exec::ExecContext*)> run;
    };
    std::vector<CheckCase> checks;
    for (bool with_selections : {false, true}) {
      std::string flavor = with_selections ? " (selections)" : "";
      explain::IncrementalOptions o;
      o.with_selections = with_selections;
      ASSERT_OK_AND_ASSIGN(explain::LsExplanation mge,
                           explain::IncrementalSearch(*f.wni, o));
      ASSERT_OK_AND_ASSIGN(
          explain::LsExplanation why_mge,
          explain::IncrementalWhySearch(*f.wi, with_selections));
      checks.push_back(
          {"CheckMgeDerived" + flavor, f.wni->arity(),
           [&f, mge, with_selections](const exec::ExecContext* exec) {
             ls::LubContext ctx(f.instance.get());
             return explain::CheckMgeDerived(*f.wni, mge, with_selections,
                                             &ctx, nullptr, nullptr, nullptr,
                                             exec);
           }});
      checks.push_back(
          {"CheckWhyMgeDerived" + flavor, f.wi->arity(),
           [&f, why_mge, with_selections](const exec::ExecContext* exec) {
             ls::LubContext ctx(f.instance.get());
             return explain::CheckWhyMgeDerived(*f.wi, why_mge,
                                                with_selections, &ctx, nullptr,
                                                nullptr, nullptr, exec);
           }});
    }
    // Nominal-pinned candidates: only the past-the-arity triggers apply
    // (a non-maximal candidate settles before it reaches a later position).
    checks.push_back({"CheckMgeDerived nominals", 0,
                      [&](const exec::ExecContext* exec) {
                        ls::LubContext ctx(f.instance.get());
                        return explain::CheckMgeDerived(
                            *f.wni, nominals, false, &ctx, nullptr, nullptr,
                            nullptr, exec);
                      }});
    checks.push_back({"CheckWhyMgeDerived nominals", 0,
                      [&](const exec::ExecContext* exec) {
                        ls::LubContext ctx(f.instance.get());
                        return explain::CheckWhyMgeDerived(
                            *f.wi, why_nominals, false, &ctx, nullptr,
                            nullptr, nullptr, exec);
                      }});
    for (const CheckCase& c : checks) {
      // The uninterrupted verdict; an MGE candidate must pass.
      ASSERT_OK_AND_ASSIGN(bool verdict, c.run(nullptr));
      if (c.arity > 0) {
        EXPECT_TRUE(verdict) << c.name;
      }
      for (exec::StopReason reason :
           {exec::StopReason::kCancelled, exec::StopReason::kDeadline}) {
        StatusCode want = reason == exec::StopReason::kCancelled
                              ? StatusCode::kCancelled
                              : StatusCode::kDeadlineExceeded;
        for (size_t k = 0; k < c.arity; ++k) {
          test::FaultInjector inj = MakeInjector(reason, k);
          exec::ExecContext ctx;
          ctx.fault = &inj;
          Result<bool> r = c.run(&ctx);
          EXPECT_EQ(r.status().code(), want)
              << c.name << " trigger=" << k << " threads=" << threads;
          EXPECT_EQ(inj.observations(), k + 1)
              << c.name << " trigger=" << k << " threads=" << threads;
        }
        size_t past = std::max<size_t>(c.arity, 2);
        for (size_t k = past; k < past + 3; ++k) {
          test::FaultInjector inj = MakeInjector(reason, k);
          exec::ExecContext ctx;
          ctx.fault = &inj;
          Result<bool> r = c.run(&ctx);
          ASSERT_TRUE(r.ok()) << c.name << " trigger=" << k
                              << " threads=" << threads << ": "
                              << r.status().ToString();
          EXPECT_EQ(r.value(), verdict)
              << c.name << " trigger=" << k << " threads=" << threads;
          if (c.arity > 0) {
            EXPECT_EQ(inj.observations(), c.arity)
                << c.name << " trigger=" << k << " threads=" << threads;
          }
        }
      }
    }
  }
  par::SetNumThreads(0);
}

// Budgets through the certificate path become kBudget stops with
// bit-identical truncated prefixes; without a certificate they keep the
// historical ResourceExhausted error.
TEST(FaultInjectionMatrix, BudgetStopsCertifyIdenticallyAcrossThreads) {
  std::optional<Outcome> ex_ref;
  std::optional<Outcome> en_ref;
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    Fixture f = MakeFixture();
    {
      explain::ExhaustiveOptions o;
      o.strategy = explain::SearchStrategy::kOdometer;
      o.max_candidates = 3;
      exec::Certificate cert;
      o.cert = &cert;
      Outcome out;
      auto r = explain::PrunedSearchAllMge(f.bound.get(), *f.wni, o);
      out.code = r.status().code();
      ASSERT_EQ(out.code, StatusCode::kOk) << "threads=" << threads;
      for (const Explanation& e : r.value()) {
        out.items.push_back(explain::ExplanationToString(*f.bound, e));
      }
      TakeCert(&out, cert);
      EXPECT_EQ(out.stop, exec::StopReason::kBudget);
      EXPECT_EQ(out.progress.tested, 3u);
      if (!ex_ref.has_value()) {
        ex_ref = out;
      } else {
        EXPECT_TRUE(out == *ex_ref)
            << "mges budget diverged at WHYNOT_THREADS=" << threads
            << "\n  " << ex_ref->ToString() << "\n  " << out.ToString();
      }
    }
    {
      explain::EnumerateOptions o;
      o.max_nodes = 2;
      exec::Certificate cert;
      o.cert = &cert;
      Outcome out;
      auto r = explain::EnumerateAllMges(*f.wni, o);
      out.code = r.status().code();
      ASSERT_EQ(out.code, StatusCode::kOk) << "threads=" << threads;
      for (const explain::LsExplanation& e : r.value()) {
        out.items.push_back(explain::LsExplanationToString(f.schema, e));
      }
      TakeCert(&out, cert);
      EXPECT_EQ(out.stop, exec::StopReason::kBudget);
      if (!en_ref.has_value()) {
        en_ref = out;
      } else {
        EXPECT_TRUE(out == *en_ref)
            << "enumerate budget diverged at WHYNOT_THREADS=" << threads
            << "\n  " << en_ref->ToString() << "\n  " << out.ToString();
      }
    }
    {
      // Historical (uncertified) budget report is untouched.
      explain::EnumerateOptions o;
      o.max_nodes = 2;
      auto r = explain::EnumerateAllMges(*f.wni, o);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    }
  }
  par::SetNumThreads(0);
}

// A budget stop on an odometer space whose product (16^16 = 2^64) overflows
// a word: all three candidate-product searches certify the same prefix
// count and the same saturated remaining work at every thread count.
TEST(FaultInjectionMatrix, OverflowingOdometerBudgetSaturatesRemaining) {
  constexpr size_t kArity = 16;
  constexpr size_t kBudget = 100;
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  onto::ExplicitOntology ontology;
  for (size_t c = 0; c < kArity; ++c) {
    ontology.SetExtension("C" + std::to_string(c), {Value("a")});
  }
  ASSERT_OK(ontology.Finalize());
  Tuple a(kArity, Value("a"));
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstanceFromAnswers(
          &instance, {Tuple(kArity, Value("b"))}, a));
  explain::WhyInstance wi;
  wi.instance = &instance;
  wi.answers = {a};
  wi.present = a;

  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    onto::BoundOntology bound(&ontology, &instance);
    exec::Certificate cert;
    explain::ExhaustiveOptions o;
    o.strategy = explain::SearchStrategy::kOdometer;
    o.max_candidates = kBudget;
    o.cert = &cert;
    auto expect_budget_cert = [&](const char* search) {
      EXPECT_EQ(cert.stop, exec::StopReason::kBudget) << search;
      EXPECT_EQ(cert.quality, exec::Quality::kLowerBound) << search;
      EXPECT_EQ(cert.progress.tested, kBudget) << search;
      EXPECT_EQ(cert.progress.remaining, SIZE_MAX)
          << search << " at WHYNOT_THREADS=" << threads;
    };
    ASSERT_OK(explain::PrunedSearchAllMge(&bound, wni, o).status());
    expect_budget_cert("PrunedSearchAllMge");
    cert = {};
    ASSERT_OK(explain::ExactCardMaximal(&bound, wni, o).status());
    expect_budget_cert("ExactCardMaximal");
    cert = {};
    ASSERT_OK(explain::AllMostGeneralWhyExplanations(&bound, wi, o).status());
    expect_budget_cert("AllMostGeneralWhyExplanations");
  }
  par::SetNumThreads(0);
}

// A 17th position whose value no concept contains empties the product even
// though the first 16 positions already overflow a word: every search
// returns an empty result, under kAuto and kOdometer, with and without a
// certificate, and never reads a candidate of the empty list.
TEST(FaultInjectionMatrix, EmptyListAfterOverflowingPrefixEmptiesTheSpace) {
  constexpr size_t kArity = 16;
  rel::Schema schema = testutil::SimpleSchema();
  rel::Instance instance(&schema);
  onto::ExplicitOntology ontology;
  for (size_t c = 0; c < kArity; ++c) {
    ontology.SetExtension("C" + std::to_string(c), {Value("a")});
  }
  ASSERT_OK(ontology.Finalize());
  Tuple t(kArity, Value("a"));
  t.push_back(Value("z"));  // in no concept
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstanceFromAnswers(
          &instance, {Tuple(kArity + 1, Value("b"))}, t));
  explain::WhyInstance wi;
  wi.instance = &instance;
  wi.answers = {t};
  wi.present = t;

  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    for (explain::SearchStrategy strategy :
         {explain::SearchStrategy::kAuto, explain::SearchStrategy::kOdometer}) {
      for (bool certified : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "strategy=" << static_cast<int>(strategy)
                     << " certified=" << certified
                     << " WHYNOT_THREADS=" << threads);
        onto::BoundOntology bound(&ontology, &instance);
        exec::Certificate cert;
        explain::ExhaustiveOptions o;
        o.strategy = strategy;
        o.max_candidates = 100;
        if (certified) o.cert = &cert;
        ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> mges,
                             explain::PrunedSearchAllMge(&bound, wni, o));
        EXPECT_TRUE(mges.empty());
        ASSERT_OK_AND_ASSIGN(auto best,
                             explain::ExactCardMaximal(&bound, wni, o));
        EXPECT_FALSE(best.has_value());
        ASSERT_OK_AND_ASSIGN(
            std::vector<explain::Explanation> whys,
            explain::AllMostGeneralWhyExplanations(&bound, wi, o));
        EXPECT_TRUE(whys.empty());
        if (certified) {
          EXPECT_EQ(cert.stop, exec::StopReason::kNone);
          EXPECT_EQ(cert.progress.tested, 0u);
          EXPECT_EQ(cert.progress.remaining, 0u);
        }
      }
    }
  }
  par::SetNumThreads(0);
}

// --- Warm-up faults --------------------------------------------------------

TEST(WarmFaultTest, InjectedWarmFailureIsRetryable) {
  Fixture f = MakeFixture();
  test::FaultInjector inj;
  inj.fail_warm = true;
  exec::ExecContext ctx;
  ctx.fault = &inj;
  Status failed = f.bound->WarmExtensions(&ctx);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
  // The injected fault fired before any mutation: a retry without the
  // fault warms everything.
  ASSERT_OK(f.bound->WarmExtensions());
  ASSERT_OK(f.bound->WarmExtensions(&ctx));  // fully warm: nothing to fail
}

TEST(WarmFaultTest, CancelledWarmUpResumesFromCachedConcepts) {
  for (int threads : kThreadCounts) {
    par::SetNumThreads(threads);
    Fixture f = MakeFixture();
    exec::ExecContext ctx;
    ctx.cancel.Cancel();
    Status stopped = f.bound->WarmExtensions(&ctx);
    ASSERT_FALSE(stopped.ok());
    EXPECT_EQ(stopped.code(), StatusCode::kCancelled);
    // Already-warmed concepts stay cached; a later uncancelled call
    // finishes the job.
    ASSERT_OK(f.bound->WarmExtensions());
  }
  par::SetNumThreads(0);
}

// --- Session-level control -------------------------------------------------

TEST(SessionExecTest, CancelFailsRequestsUntilReset) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  ASSERT_TRUE(session.ExhaustiveMges(missing).ok());
  session.Cancel();
  Result<std::vector<Explanation>> cancelled = session.ExhaustiveMges(missing);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  Result<explain::LsExplanation> derived = session.WhyNot(missing);
  ASSERT_FALSE(derived.ok());
  EXPECT_EQ(derived.status().code(), StatusCode::kCancelled);
  session.ResetCancel();
  EXPECT_TRUE(session.ExhaustiveMges(missing).ok());
  EXPECT_TRUE(session.WhyNot(missing).ok());
}

TEST(SessionExecTest, ExplicitContextControlsOneRequest) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  test::FaultInjector inj = test::FaultInjector::DeadlineAt(1);
  exec::ExecContext ctx;
  ctx.fault = &inj;
  Result<std::vector<Explanation>> r = session.PrunedMges(missing, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The explicit context died with its request; the session is fine.
  EXPECT_TRUE(session.PrunedMges(missing).ok());
}

TEST(SessionExecTest, RewarmUnderInjectedWarmFaultFailsThenRecovers) {
  Fixture f = MakeFixture();
  rel::Instance instance(*f.instance);
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(&instance, workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  // Invalidate the warm state with a genuinely new fact (duplicates are
  // version no-ops), then ask the next request to rewarm under an
  // injected warm failure. Rome→Kyoto keeps {Amsterdam, New York} missing.
  ASSERT_OK(instance.AddFact("Train-Connections",
                             {Value("Rome"), Value("Kyoto")}));
  test::FaultInjector inj;
  inj.fail_warm = true;
  exec::ExecContext ctx;
  ctx.fault = &inj;
  Result<std::vector<Explanation>> r = session.ExhaustiveMges(missing, &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // More writes land before the retry; the failed rewarm had already
  // merged the first write's answers. Kyoto→Berlin with Rome→Kyoto adds
  // (Rome, Berlin), a path through two new rows. Amsterdam→Amsterdam
  // adds (Amsterdam, Berlin), which completes Dutch-City ×
  // European-City ⊆ Ans: a why-explanation only the updated Ans has.
  ASSERT_OK(instance.AddFact("Train-Connections",
                             {Value("Kyoto"), Value("Berlin")}));
  ASSERT_OK(instance.AddFact("Train-Connections",
                             {Value("Amsterdam"), Value("Amsterdam")}));
  // Without the fault the rewarm completes and the request serves the
  // mutated instance exactly as a fresh binding does.
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> recovered,
                       session.ExhaustiveMges(missing));
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession fresh,
      explain::ExplainSession::Bind(&instance, workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> want,
                       fresh.ExhaustiveMges(missing));
  EXPECT_EQ(session.answers(), fresh.answers());
  const Tuple through_both = {Value("Rome"), Value("Berlin")};
  EXPECT_TRUE(std::binary_search(session.answers().begin(),
                                 session.answers().end(), through_both));
  EXPECT_EQ(recovered, want);
  // The dual reads its own copy of Ans, which must have taken the new
  // answers too.
  const Tuple present = {Value("Amsterdam"), Value("Berlin")};
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> why, session.WhyMges(present));
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> want_why,
                       fresh.WhyMges(present));
  EXPECT_FALSE(want_why.empty());
  EXPECT_EQ(why, want_why);
}

TEST(SessionExecTest, DegradationLadderExactWhenUninterrupted) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  ASSERT_OK_AND_ASSIGN(explain::GradedMges graded,
                       session.MgesWithDegradation(missing));
  EXPECT_EQ(graded.certificate.quality, exec::Quality::kExact);
  EXPECT_TRUE(graded.certificate.complete());
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> want,
                       session.PrunedMges(missing));
  EXPECT_EQ(graded.explanations, want);
}

TEST(SessionExecTest, DegradationLadderFallsBackToGreedyOnDeadline) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  // A deadline at probe 0 leaves the exact search empty-handed; the
  // ladder's last rung still produces one sound greedy explanation.
  test::FaultInjector inj = test::FaultInjector::DeadlineAt(0);
  exec::ExecContext ctx;
  ctx.fault = &inj;
  ASSERT_OK_AND_ASSIGN(explain::GradedMges graded,
                       session.MgesWithDegradation(missing, &ctx));
  EXPECT_EQ(graded.certificate.stop, exec::StopReason::kDeadline);
  EXPECT_EQ(graded.certificate.quality, exec::Quality::kHeuristic);
  ASSERT_EQ(graded.explanations.size(), 1u);
  ASSERT_OK_AND_ASSIGN(
      bool sound, explain::IsExplanation(f.bound.get(), *f.wni,
                                         graded.explanations.front()));
  EXPECT_TRUE(sound);
}

TEST(SessionExecTest, DegradationLadderRespectsCancellation) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  // A cancelled caller asked for no further work: no greedy rung.
  test::FaultInjector inj = test::FaultInjector::CancelAt(0);
  exec::ExecContext ctx;
  ctx.fault = &inj;
  ASSERT_OK_AND_ASSIGN(explain::GradedMges graded,
                       session.MgesWithDegradation(missing, &ctx));
  EXPECT_EQ(graded.certificate.stop, exec::StopReason::kCancelled);
  EXPECT_TRUE(graded.explanations.empty());
  EXPECT_NE(graded.certificate.quality, exec::Quality::kExact);
}

TEST(SessionExecTest, TruncatedPrefixKeepsLowerBoundQuality) {
  Fixture f = MakeFixture();
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  // Find a trigger where the interrupted exact search already holds part
  // of the antichain: that prefix must come back as kLowerBound, each
  // entry a genuine explanation.
  for (size_t trigger = 1; trigger < kInjectionPoints; ++trigger) {
    test::FaultInjector inj = test::FaultInjector::DeadlineAt(trigger);
    exec::ExecContext ctx;
    ctx.fault = &inj;
    ASSERT_OK_AND_ASSIGN(explain::GradedMges graded,
                         session.MgesWithDegradation(missing, &ctx));
    if (graded.certificate.complete() ||
        graded.certificate.quality != exec::Quality::kLowerBound) {
      continue;
    }
    ASSERT_FALSE(graded.explanations.empty());
    for (const Explanation& e : graded.explanations) {
      ASSERT_OK_AND_ASSIGN(bool sound,
                           explain::IsExplanation(f.bound.get(), *f.wni, e));
      EXPECT_TRUE(sound);
    }
    return;  // found and verified a kLowerBound rung
  }
  GTEST_SKIP() << "no trigger produced a non-empty truncated prefix";
}

/// What a session's derived requests serve, rendered with their
/// deterministic stats: WhyNot, Why, EnumerateMges (outputs and the
/// EnumerateStats the determinism contract covers) and CheckMgeDerived of
/// every enumerated MGE.
std::string DerivedOutcome(const Fixture& f, explain::ExplainSession* s) {
  std::string out;
  auto render = [&](const Result<explain::LsExplanation>& r) {
    out += r.ok() ? explain::LsExplanationToString(f.schema, r.value())
                  : r.status().ToString();
    out += "\n";
  };
  render(s->WhyNot(f.wni->missing));
  render(s->Why(f.wi->present));
  explain::EnumerateStats stats;
  Result<std::vector<explain::LsExplanation>> mges =
      s->EnumerateMges(f.wni->missing, &stats);
  if (!mges.ok()) return out + mges.status().ToString();
  for (const explain::LsExplanation& e : mges.value()) {
    out += explain::LsExplanationToString(f.schema, e) + ";";
    Result<bool> check = s->CheckMgeDerived(f.wni->missing, e);
    out += check.ok() ? (check.value() ? "mge\n" : "not\n")
                      : check.status().ToString() + "\n";
  }
  out += std::to_string(stats.nodes_expanded) + "/" +
         std::to_string(stats.duplicate_outputs) + "/" +
         std::to_string(stats.visited_hits) + "/" +
         std::to_string(stats.max_delay);
  return out;
}

// A derived request records each lub in the session's concept cache as it
// computes it, so a stopped request leaves a partial memo behind. Every
// entry is a pure function of its key, so the session's next requests must
// serve exactly what a freshly bound session serves — for both lub
// flavors and wherever the stops cut, on one session per cut point and on
// one session that takes every cut in turn.
TEST(SessionExecTest, InterruptedDerivedRequestsLeaveTheMemoSound) {
  Fixture f = MakeFixture();
  const Tuple& missing = f.wni->missing;
  const Tuple& present = f.wi->present;
  for (bool with_selections : {false, true}) {
    SCOPED_TRACE(with_selections ? "with selections" : "selection-free");
    explain::ExplainSessionOptions options;
    options.with_selections = with_selections;
    auto bind = [&] {
      return explain::ExplainSession::Bind(
          f.instance.get(), workload::ConnectedViaQuery(), nullptr, options);
    };
    ASSERT_OK_AND_ASSIGN(explain::ExplainSession reference, bind());
    const std::string want = DerivedOutcome(f, &reference);
    ASSERT_OK_AND_ASSIGN(std::vector<explain::LsExplanation> mges,
                         reference.EnumerateMges(missing));
    ASSERT_FALSE(mges.empty());

    size_t stopped = 0;
    auto interrupt_all = [&](explain::ExplainSession* s, size_t k) {
      auto stop_at = [&](const std::function<Status(
                             const exec::ExecContext*)>& request) {
        test::FaultInjector inj = test::FaultInjector::DeadlineAt(k);
        exec::ExecContext ctx;
        ctx.fault = &inj;
        Status st = request(&ctx);
        if (st.ok()) return;
        EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
        ++stopped;
      };
      stop_at([&](const exec::ExecContext* ctx) {
        return s->WhyNot(missing, ctx).status();
      });
      stop_at([&](const exec::ExecContext* ctx) {
        return s->Why(present, ctx).status();
      });
      stop_at([&](const exec::ExecContext* ctx) {
        return s->EnumerateMges(missing, nullptr, ctx).status();
      });
      stop_at([&](const exec::ExecContext* ctx) {
        return s->CheckMgeDerived(missing, mges.front(), ctx).status();
      });
    };

    ASSERT_OK_AND_ASSIGN(explain::ExplainSession every_cut, bind());
    for (size_t k : {0, 1, 2, 3, 5, 8, 13, 21, 34, 55}) {
      SCOPED_TRACE("stop at probe " + std::to_string(k));
      ASSERT_OK_AND_ASSIGN(explain::ExplainSession session, bind());
      interrupt_all(&session, k);
      EXPECT_EQ(DerivedOutcome(f, &session), want);
      interrupt_all(&every_cut, k);
    }
    EXPECT_EQ(DerivedOutcome(f, &every_cut), want);
    // Probe 0 stops all four requests of both sessions.
    EXPECT_GE(stopped, 8u);
  }
}

TEST(SessionExecTest, RequestDeadlineOptionIsHarmlessWhenGenerous) {
  Fixture f = MakeFixture();
  explain::ExplainSessionOptions options;
  options.request_deadline_ms = 60000;
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession session,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get(), options));
  Tuple missing = {Value("Amsterdam"), Value("New York")};
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> with_deadline,
                       session.ExhaustiveMges(missing));
  ASSERT_OK_AND_ASSIGN(
      explain::ExplainSession plain,
      explain::ExplainSession::Bind(f.instance.get(),
                                    workload::ConnectedViaQuery(),
                                    f.ontology.get()));
  ASSERT_OK_AND_ASSIGN(std::vector<Explanation> without,
                       plain.ExhaustiveMges(missing));
  EXPECT_EQ(with_deadline, without);
}

}  // namespace
}  // namespace whynot
