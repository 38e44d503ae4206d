#ifndef WHYNOT_EXPLAIN_SESSION_H_
#define WHYNOT_EXPLAIN_SESSION_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/cardinality.h"
#include "whynot/explain/check_mge.h"
#include "whynot/explain/enumerate.h"
#include "whynot/explain/exhaustive.h"
#include "whynot/explain/existence.h"
#include "whynot/explain/incremental.h"
#include "whynot/explain/why_explanation.h"
#include "whynot/explain/whynot_instance.h"
#include "whynot/ontology/ontology.h"

namespace whynot::explain {

/// Session-wide knobs, fixed at Bind time. `exhaustive` and `existence`
/// keep their one-shot meanings (the session sets their `exec`); the
/// derived-ontology (O_I) requests read only `with_selections` and `lub`.
struct ExplainSessionOptions {
  ExhaustiveOptions exhaustive;  // Exhaustive/Pruned/CardMaximal/WhyMges
  ExistenceOptions existence;
  /// Every O_I request — WhyNot, EnumerateMges, CheckMgeDerived, Why —
  /// searches selection-free LS when false (Lemma 5.1) and full LS via
  /// lubσ when true (Lemma 5.2).
  bool with_selections = false;
  /// The limits of the session's one LubContext, which serves every O_I
  /// request.
  ls::LubOptions lub;

  /// Default per-request deadline in milliseconds (0 = none). Every
  /// request that is not handed an explicit ExecContext runs under a
  /// fresh deadline of this length plus the session's cancel token; an
  /// explicit context overrides both.
  int64_t request_deadline_ms = 0;
};

/// An MGE answer graded by the degradation ladder (MgesWithDegradation):
/// the certificate says what the explanation list is worth — kExact (the
/// full antichain), kLowerBound (a deterministic prefix of it, cut by the
/// stop the certificate records), or kHeuristic (the greedy fallback's
/// single sound explanation).
struct GradedMges {
  std::vector<Explanation> explanations;
  exec::Certificate certificate;
};

/// Prepared serving facade for repeated explanation traffic over one
/// (ontology, instance, query, answers) binding.
///
/// The one-shot entry points re-derive the same warm state on every call:
/// query answers, extension warm-up, answer-cover bitmaps, lub canonical
/// boxes, eval memos. A session binds that state once — Bind evaluates
/// the query, constructs the answer-cover tables and, with an external
/// ontology, warms every bound-ontology extension — and then serves
/// repeated WhyNot / Why / EnumerateMges / Cardinality / Existence
/// requests that only vary the asked-about tuple. Results, enumeration
/// order, and stats are bit-identical to the standalone entry points at
/// every thread count: all shared caches memoize pure functions of the
/// fixed (instance, answers) binding, so warm-vs-cold only changes time.
///
/// Invalidation: the session records rel::Instance::version() at warm
/// time, and the next request after any mutation re-warms before it
/// serves. A session bound from a query also records the instance's
/// non-append generation() and the row count of each relation the query
/// reads. While the generation stays put the instance has only grown, and
/// CQs are monotone, so the re-warm evaluates q(I) semi-naively over the
/// appended rows alone (rel::EvaluateIds with RowMarks) and merges that
/// delta into Ans and the LS answer covers; a write to a relation the
/// query does not read adds nothing. ClearRelation and instance
/// assignment move the generation, and the re-warm evaluates q(I) in
/// full, as Bind does.
///
/// The derived-ontology state — the lub context and the concept cache,
/// whose one eval memo (ConceptCache::evals()) holds every extension the
/// derived requests evaluate — is *kept* across a write when nothing it
/// reads has moved: the generation is unchanged, every schema column
/// holds as many distinct values as at the last warm (appends are
/// monotone, so the columns are equal), `with_selections` is false, and
/// the eval memo has never evaluated a selection conjunct (a
/// CheckMgeDerived candidate can bring one in; its extension reads rows).
/// Over selection-free LS, signatures, lubs and extensions depend only on
/// the distinct columns (Lemma 5.1), so they are still exact. The LS
/// cover rows keyed by the kept extensions then stay too, with the new
/// answers' bits inserted. Otherwise that state is rebuilt and the cover
/// rows are dropped (they are keyed by the addresses of the extensions
/// the rebuild frees); a request rebuilds each row it needs from the
/// covers' posting index. Fixed-answer sessions follow the same rule. The
/// external ontology's extensions, covers and lattice are rebuilt on
/// every re-warm. Either way the session then matches a fresh Bind bit
/// for bit: answers, outputs, their order, stats and errors. Mutating the
/// instance *during* a request is not supported (same contract as the
/// one-shot searches).
///
/// Threading: requests dispatch into the same searches as the one-shot
/// calls (only the odometer walk uses the pool). The session itself is
/// single-threaded — serve
/// concurrent callers from one session with external serialization, or
/// give each its own session.
class ExplainSession {
 public:
  /// Binds and warms a session; evaluates `query` over `instance` for the
  /// answer set. `ontology` is optional — without it only the derived-
  /// ontology (OI) requests are served.
  static Result<ExplainSession> Bind(const rel::Instance* instance,
                                     rel::UnionQuery query,
                                     const onto::FiniteOntology* ontology =
                                         nullptr,
                                     ExplainSessionOptions options = {});

  /// As Bind, from a precomputed answer set (sort-deduplicated here; the
  /// paper treats Ans as part of the input). Version invalidation then
  /// rebuilds caches against the mutated instance but keeps this answer
  /// set — matching one-shot calls built from the same answers.
  static Result<ExplainSession> BindWithAnswers(
      const rel::Instance* instance, std::vector<Tuple> answers,
      const onto::FiniteOntology* ontology = nullptr,
      ExplainSessionOptions options = {});

  /// Ans = q(I), sorted and duplicate-free.
  const std::vector<Tuple>& answers() const;
  bool has_ontology() const;
  /// The instance version the warm state was built against (tests).
  uint64_t warmed_version() const;
  /// What the re-warms did (tests). For a query-bound session, `full`
  /// counts evaluations of q(I) from scratch (Bind, and the first request
  /// after a non-append write) and `delta` those over only the rows
  /// appended since the previous warm; sessions bound with fixed answers
  /// count neither. For every session, `kept` counts the re-warms that
  /// kept the derived-ontology state (see Invalidation above).
  struct RewarmCounts {
    size_t full = 0;
    size_t delta = 0;
    size_t kept = 0;
  };
  RewarmCounts rewarm_counts() const;
  /// The warm bound ontology (null without an external ontology). Exposed
  /// for rendering — concept names, DOT export; invalidated by the next
  /// request after an instance mutation.
  onto::BoundOntology* bound_ontology();

  /// Definition 3.1 consistency of the bound instance with the external
  /// ontology. Requires an ontology.
  Status CheckConsistent();

  /// Per-session memory accounting over the warm state (the BENCH memory
  /// column's source).
  struct MemoryStats {
    size_t instance_bytes = 0;    // columns, fact index, column indexes
    size_t ext_bytes = 0;         // warm extension table (external ontology)
    size_t cover_bytes = 0;       // answer-cover rows, both ontologies
    size_t eval_cache_bytes = 0;  // the concept cache's extension memo
    size_t shared_cache_bytes = 0;  // the concept cache's support maps
    size_t total_bytes = 0;
    size_t dense_ext_sets = 0;    // extensions carrying a dense mirror
  };
  MemoryStats MemoryUsage() const;

  /// Cumulative traffic counters of the session's concept cache across
  /// every derived request served so far. Observability only: the values
  /// served are identical whether a lookup hits or misses. Counters
  /// survive every re-warm; entries survive only one that keeps the
  /// derived state.
  ls::ConceptCacheStats CacheStats() const;

  // --- Execution control ---------------------------------------------------
  //
  // Every request below takes an optional ExecContext. When `exec` is
  // null the session builds one per request from
  // ExplainSessionOptions::request_deadline_ms and the session's cancel
  // token; an explicit context is used verbatim (its own deadline, token,
  // and fault injector), so Cancel() only reaches requests that let the
  // session build their context. Stops surface as DeadlineExceeded /
  // Cancelled errors except through MgesWithDegradation, which converts
  // them into graded partial answers.

  /// Cooperatively cancels the in-flight request (callable from another
  /// thread) and fails every later one until ResetCancel(). Only requests
  /// running under a session-built context (exec == nullptr) observe it.
  void Cancel();
  /// Re-arms the session after Cancel() by installing a fresh token.
  void ResetCancel();

  // --- Derived-ontology (OI) requests ------------------------------------

  /// Algorithm 2 (INCREMENTAL SEARCH): one most-general explanation for
  /// the missing tuple w.r.t. OI.
  Result<LsExplanation> WhyNot(const Tuple& missing,
                               const exec::ExecContext* exec = nullptr);

  /// All most-general explanations w.r.t. OI (EnumerateAllMges).
  Result<std::vector<LsExplanation>> EnumerateMges(
      const Tuple& missing, EnumerateStats* stats = nullptr,
      const exec::ExecContext* exec = nullptr);

  /// CHECK-MGE w.r.t. OI for a candidate LS explanation.
  Result<bool> CheckMgeDerived(const Tuple& missing,
                               const LsExplanation& candidate,
                               const exec::ExecContext* exec = nullptr);

  /// The dual question: a most-general why-explanation for a tuple that
  /// IS an answer, w.r.t. OI.
  Result<LsExplanation> Why(const Tuple& present,
                            const exec::ExecContext* exec = nullptr);

  // --- External-ontology requests (require an ontology) -------------------

  /// Algorithm 1 (EXHAUSTIVE SEARCH): all most-general explanations
  /// (PrunedSearchAllMge). ExhaustiveMges and PrunedMges are two names
  /// for the same request.
  Result<std::vector<Explanation>> ExhaustiveMges(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);
  Result<std::vector<Explanation>> PrunedMges(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// The degradation ladder over PrunedMges: a stop no longer aborts the
  /// request but walks down one rung at a time — (1) the exact antichain
  /// (Quality::kExact), (2) the deterministic partial prefix the
  /// interrupted search had confirmed (kLowerBound), (3) when the stop
  /// left nothing, one greedy hill-climbing explanation computed under a
  /// cancel-only grace context (kHeuristic). The certificate keeps the
  /// original stop reason; a cancelled request never takes rung 3 (the
  /// caller asked for no further work).
  Result<GradedMges> MgesWithDegradation(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// EXISTENCE-OF-EXPLANATION; stores a witness when one exists.
  Result<bool> Exists(const Tuple& missing, Explanation* witness = nullptr,
                      const exec::ExecContext* exec = nullptr);

  /// Exact >card-maximal explanation (Section 6).
  Result<std::optional<CardinalityResult>> CardMaximal(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// The greedy hill-climbing heuristic for the same preference.
  Result<std::optional<CardinalityResult>> GreedyCard(
      const Tuple& missing, const exec::ExecContext* exec = nullptr);

  /// CHECK-MGE w.r.t. the external ontology.
  Result<bool> CheckMge(const Tuple& missing, const Explanation& candidate,
                        const exec::ExecContext* exec = nullptr);

  /// All most-general *why*-explanations w.r.t. the external ontology.
  Result<std::vector<Explanation>> WhyMges(
      const Tuple& present, const exec::ExecContext* exec = nullptr);

  // Out-of-line: State is incomplete here (pimpl).
  ExplainSession(ExplainSession&&) noexcept;
  ExplainSession& operator=(ExplainSession&&) noexcept;
  ~ExplainSession();

 private:
  struct State;
  explicit ExplainSession(std::unique_ptr<State> state);

  /// Rebuilds all warm state against the current instance contents;
  /// re-evaluates the query when the session owns one. `exec` is observed
  /// by the extension warm-up (WarmExtensions), so a request's deadline
  /// covers the rewarm it triggers.
  Status Rewarm(const exec::ExecContext* exec = nullptr);
  /// Brings Ans (the answer vector and the LS covers' posting index) up to
  /// date for a query-bound session: the delta since the recorded row
  /// marks, or the full answer set when the generation moved.
  Status UpdateAnswers();
  /// What a request asks about: a missing tuple (∉ Ans) or a present one
  /// (∈ Ans), and against which ontology.
  enum Question { kWhyNot, kWhy };
  enum Ontology { kDerived, kExternal };
  /// Rewarms iff the instance version moved since the last warm-up, then
  /// validates the request tuple for `question` and, for kWhyNot, installs
  /// it as the missing tuple.
  Status Prepare(const Tuple& tuple, Question question,
                 const exec::ExecContext* exec);
  Status RequireOntology() const;
  /// The one request path: the ontology check (kExternal), the request
  /// context (see Execution control), Prepare, then `fn(state, ctx)` — the
  /// request's one search call.
  template <typename Fn>
  auto Serve(const Tuple& tuple, Question question, Ontology ontology,
             const exec::ExecContext* exec, Fn fn)
      -> decltype(fn(std::declval<State&>(),
                     std::declval<const exec::ExecContext&>()));

  std::unique_ptr<State> state_;
};

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_SESSION_H_
