#include "whynot/explain/session.h"

#include <algorithm>
#include <utility>

#include "whynot/common/algorithm.h"
#include "whynot/relational/cq_eval.h"

namespace whynot::explain {

/// All warm state lives behind one heap allocation so the session is
/// cheaply movable while internal pointers (covers → answer vector,
/// covers → bound ontology) stay stable.
struct ExplainSession::State {
  const rel::Instance* instance = nullptr;
  const onto::FiniteOntology* ontology = nullptr;
  ExplainSessionOptions options;
  rel::UnionQuery query;
  bool has_query = false;
  uint64_t version = 0;

  /// The canonical answer vector lives in wni.answers; requests only swap
  /// the asked-about tuple, so Ans is never copied per request. wi keeps
  /// its own (equal) copy because the dual's instance struct owns one.
  WhyNotInstance wni;
  WhyInstance wi;

  // External-ontology warm state (null without an ontology).
  std::unique_ptr<onto::BoundOntology> bound;
  std::unique_ptr<ConceptAnswerCovers> covers;      // avoidance form
  std::unique_ptr<ConceptAnswerCovers> why_covers;  // counting (why dual)
  // Shared Hasse/downset state for the dominance-pruned searches. The
  // handle is lazy: Bind stays O(covers) and the O(|concepts|²) lattice
  // build runs only the first time a request actually escalates to the
  // frontier, after which every search on this binding reuses it.
  std::unique_ptr<LatticeHandle> lattice;

  // Derived-ontology (OI) warm state, shared across every request: the
  // lub context's canonical boxes, the eval cache's extension memo (whose
  // stable identities key the cover bitmaps), and the LS answer covers
  // over wni.answers.
  std::unique_ptr<ls::LubContext> lub;
  std::unique_ptr<ls::EvalCache> cache;
  std::unique_ptr<LsAnswerCovers> ls_covers;
  // The shared concept cache: every derived request publishes its lub+eval
  // results here and later requests start from the published tier. Entries
  // are dropped on rewarm (pure functions of the instance contents);
  // traffic counters survive.
  std::unique_ptr<ls::ConceptCache> concept_cache;
  // Persistent overlay for the *serial* searches (WhyNot / Why run on the
  // session thread): its private maps stay warm across requests, so a
  // repeated request's probes are raw local-map hits instead of
  // published-tier lookups that re-copy every concept into a fresh
  // overlay. Rebuilt on rewarm together with lub/cache it is bound to.
  // The parallel searches keep their own per-worker overlays.
  std::unique_ptr<ls::ConceptCacheOverlay> serial_overlay;

  /// Session-wide cancel flag, copied into every session-built request
  /// context so Cancel() from another thread reaches the request that is
  /// currently inside a search. Replaced wholesale by ResetCancel().
  exec::CancelToken cancel;
};

namespace {

/// The effective execution context of one request: an explicit caller
/// context wins verbatim (its own deadline, token, injector); otherwise
/// the session builds one from its default request deadline and its
/// cancel token. Always materialized — the per-probe cost of a default
/// context is one strided counter test.
exec::ExecContext MakeRequestExec(int64_t request_deadline_ms,
                                  const exec::CancelToken& cancel,
                                  const exec::ExecContext* exec) {
  if (exec != nullptr) return *exec;
  exec::ExecContext ctx;
  if (request_deadline_ms > 0) {
    ctx.deadline = exec::Deadline::After(request_deadline_ms);
  }
  ctx.cancel = cancel;
  return ctx;
}

}  // namespace

ExplainSession::ExplainSession(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

ExplainSession::ExplainSession(ExplainSession&&) noexcept = default;
ExplainSession& ExplainSession::operator=(ExplainSession&&) noexcept = default;
ExplainSession::~ExplainSession() = default;

std::unique_ptr<ExplainSession::State> ExplainSession::MakeState(
    const rel::Instance* instance, const onto::FiniteOntology* ontology,
    ExplainSessionOptions options) {
  auto state = std::make_unique<State>();
  state->instance = instance;
  state->ontology = ontology;
  // One shared LubContext serves every derived request, so both searches
  // must agree on its limits.
  options.incremental.lub = options.lub;
  options.enumerate.lub = options.lub;
  state->options = std::move(options);
  return state;
}

Result<ExplainSession> ExplainSession::Bind(const rel::Instance* instance,
                                            rel::UnionQuery query,
                                            const onto::FiniteOntology* ontology,
                                            ExplainSessionOptions options) {
  std::unique_ptr<State> state =
      MakeState(instance, ontology, std::move(options));
  state->query = std::move(query);
  state->has_query = true;
  state->wni.query = state->query;  // informational, as in the one-shot path
  ExplainSession session(std::move(state));
  WHYNOT_RETURN_IF_ERROR(session.Rewarm());
  return session;
}

Result<ExplainSession> ExplainSession::BindWithAnswers(
    const rel::Instance* instance, std::vector<Tuple> answers,
    const onto::FiniteOntology* ontology, ExplainSessionOptions options) {
  SortUnique(&answers);
  for (const Tuple& t : answers) {
    if (t.size() != answers.front().size()) {
      return Status::InvalidArgument("answer tuples have mixed arities");
    }
  }
  std::unique_ptr<State> state =
      MakeState(instance, ontology, std::move(options));
  state->has_query = false;
  state->wni.answers = std::move(answers);
  ExplainSession session(std::move(state));
  WHYNOT_RETURN_IF_ERROR(session.Rewarm());
  return session;
}

Status ExplainSession::Rewarm(const exec::ExecContext* exec) {
  State& s = *state_;
  if (s.has_query) {
    WHYNOT_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                            rel::Evaluate(s.query, *s.instance));
    s.wni.answers = std::move(answers);  // sorted, duplicate-free
  }
  s.wni.instance = s.instance;
  s.wi.instance = s.instance;
  s.wi.answers = s.wni.answers;

  // Force every lazy instance cache so request-time access — including
  // pool-worker reads inside the parallel searches — is read-only.
  s.instance->WarmForConcurrentReads();

  // Derived-ontology state. Build order matters: the covers index the
  // answer vector assigned above (its address inside this State is
  // stable; contents were just refreshed).
  s.lub = std::make_unique<ls::LubContext>(s.instance, s.options.lub);
  s.cache = std::make_unique<ls::EvalCache>(s.instance);
  s.ls_covers = std::make_unique<LsAnswerCovers>(s.instance, &s.wni.answers);
  if (s.concept_cache == nullptr) {
    s.concept_cache = std::make_unique<ls::ConceptCache>(
        s.instance, s.options.concept_cache);
  } else {
    s.concept_cache->Clear();
  }
  // After the Clear: stale overlay memos would otherwise outlive the
  // instance contents they were computed from.
  s.serial_overlay = std::make_unique<ls::ConceptCacheOverlay>(
      s.concept_cache.get(), s.options.incremental.with_selections,
      s.lub.get(), s.cache.get());

  s.covers.reset();
  s.why_covers.reset();
  s.lattice.reset();
  s.bound.reset();
  if (s.ontology != nullptr) {
    s.bound = std::make_unique<onto::BoundOntology>(s.ontology, s.instance);
    // A stop (or injected warm fault) aborts the rewarm before the covers
    // are rebuilt; s.version stays behind, so the next request retries the
    // warm-up from the concepts already cached.
    WHYNOT_RETURN_IF_ERROR(s.bound->WarmExtensions(exec));
    s.covers = std::make_unique<ConceptAnswerCovers>(
        s.bound.get(), InternAnswers(s.bound.get(), s.wni));
    s.why_covers = std::make_unique<ConceptAnswerCovers>(
        s.bound.get(), InternedUniqueAnswers(s.bound.get(), s.wi));
    s.lattice = std::make_unique<LatticeHandle>(s.bound.get());
  }
  s.version = s.instance->version();
  return Status::OK();
}

Status ExplainSession::RewarmIfStale(const exec::ExecContext* exec) {
  if (state_->version != state_->instance->version()) {
    WHYNOT_RETURN_IF_ERROR(Rewarm(exec));
  }
  return Status::OK();
}

Status ExplainSession::Prepare(const Tuple& tuple, bool expect_answer,
                               const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RewarmIfStale(exec));
  State& s = *state_;
  if (s.has_query && s.query.arity() != tuple.size()) {
    return Status::InvalidArgument(
        expect_answer ? "tuple arity does not match query arity"
                      : "missing tuple arity does not match query arity");
  }
  if (!s.has_query && !s.wni.answers.empty() &&
      s.wni.answers.front().size() != tuple.size()) {
    return Status::InvalidArgument(
        "answer arity does not match missing tuple arity");
  }
  bool in_answers = std::binary_search(s.wni.answers.begin(),
                                       s.wni.answers.end(), tuple);
  if (expect_answer) {
    if (!in_answers) {
      return Status::InvalidArgument(
          "tuple " + TupleToString(tuple) +
          " is not in the answer set; ask a why-not question instead");
    }
    s.wi.present = tuple;
  } else {
    if (in_answers) {
      return Status::InvalidArgument("tuple " + TupleToString(tuple) +
                                     " is in the answer set; nothing to "
                                     "explain");
    }
    s.wni.missing = tuple;
  }
  return Status::OK();
}

Status ExplainSession::RequireOntology() const {
  if (state_->ontology == nullptr) {
    return Status::Unsupported(
        "session was bound without an external ontology; only derived-"
        "ontology (OI) requests are available");
  }
  return Status::OK();
}

const std::vector<Tuple>& ExplainSession::answers() const {
  return state_->wni.answers;
}

bool ExplainSession::has_ontology() const {
  return state_->ontology != nullptr;
}

uint64_t ExplainSession::warmed_version() const { return state_->version; }

onto::BoundOntology* ExplainSession::bound_ontology() {
  return state_->bound.get();
}

void ExplainSession::Cancel() { state_->cancel.Cancel(); }

void ExplainSession::ResetCancel() { state_->cancel = exec::CancelToken(); }

Status ExplainSession::CheckConsistent() {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  WHYNOT_RETURN_IF_ERROR(RewarmIfStale());
  return state_->bound->CheckConsistent();
}

ExplainSession::MemoryStats ExplainSession::MemoryUsage() const {
  const State& s = *state_;
  MemoryStats m;
  m.instance_bytes = s.instance->MemoryBytes();
  if (s.bound != nullptr) {
    onto::BoundOntology::MemoryStats es = s.bound->ExtMemoryStats();
    m.ext_bytes = es.ext_bytes;
    m.dense_ext_sets = es.dense_sets;
  }
  if (s.covers != nullptr) m.cover_bytes += s.covers->MemoryBytes();
  if (s.why_covers != nullptr) m.cover_bytes += s.why_covers->MemoryBytes();
  if (s.ls_covers != nullptr) m.cover_bytes += s.ls_covers->MemoryBytes();
  if (s.cache != nullptr) m.eval_cache_bytes = s.cache->MemoryBytes();
  if (s.concept_cache != nullptr) {
    m.shared_cache_bytes = s.concept_cache->MemoryBytes();
  }
  m.total_bytes = m.instance_bytes + m.ext_bytes + m.cover_bytes +
                  m.eval_cache_bytes + m.shared_cache_bytes;
  return m;
}

ls::ConceptCacheStats ExplainSession::CacheStats() const {
  if (state_->concept_cache == nullptr) return {};
  return state_->concept_cache->stats();
}

// --- Derived-ontology (OI) requests ---------------------------------------

Result<LsExplanation> ExplainSession::WhyNot(const Tuple& missing,
                                             const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  IncrementalOptions opts = s.options.incremental;
  opts.exec = &ctx;
  return IncrementalSearch(s.wni, opts, s.lub.get(), s.cache.get(),
                           s.ls_covers.get(), s.concept_cache.get(),
                           s.serial_overlay.get());
}

Result<std::vector<LsExplanation>> ExplainSession::EnumerateMges(
    const Tuple& missing, EnumerateStats* stats,
    const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  EnumerateOptions opts = s.options.enumerate;
  opts.exec = &ctx;
  return EnumerateAllMges(s.wni, opts, stats, s.lub.get(),
                          s.concept_cache.get(), s.cache.get(),
                          s.ls_covers.get());
}

Result<bool> ExplainSession::CheckMgeDerived(const Tuple& missing,
                                             const LsExplanation& candidate,
                                             const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  return explain::CheckMgeDerived(s.wni, candidate,
                                  s.options.incremental.with_selections,
                                  s.lub.get(), s.cache.get(),
                                  s.ls_covers.get(), s.concept_cache.get(),
                                  &ctx);
}

Result<LsExplanation> ExplainSession::Why(const Tuple& present,
                                          const exec::ExecContext* exec) {
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(present, /*expect_answer=*/true, &ctx));
  // ls_covers indexes wni.answers, which equals the sort-deduped answer
  // vector of wi (both come from the same evaluation).
  return IncrementalWhySearch(s.wi, s.options.incremental.with_selections,
                              s.lub.get(), s.cache.get(), s.ls_covers.get(),
                              s.concept_cache.get(), &ctx,
                              /*cert=*/nullptr, s.serial_overlay.get());
}

// --- External-ontology requests -------------------------------------------

Result<std::vector<Explanation>> ExplainSession::ExhaustiveMges(
    const Tuple& missing, const exec::ExecContext* exec) {
  return PrunedMges(missing, exec);
}

Result<std::vector<Explanation>> ExplainSession::PrunedMges(
    const Tuple& missing, const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  return PrunedSearchAllMge(s.bound.get(), s.wni, opts, s.covers.get(),
                            s.lattice.get());
}

Result<GradedMges> ExplainSession::MgesWithDegradation(
    const Tuple& missing, const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  GradedMges graded;
  // Rung 1/2: the pruned exact search under the request context. With a
  // certificate attached a stop is not an error — the search returns the
  // deterministic prefix it had confirmed and records the cut.
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  opts.cert = &graded.certificate;
  WHYNOT_ASSIGN_OR_RETURN(
      graded.explanations,
      PrunedSearchAllMge(s.bound.get(), s.wni, opts, s.covers.get(),
                         s.lattice.get()));
  if (graded.certificate.complete() || !graded.explanations.empty()) {
    return graded;  // kExact, or a non-empty kLowerBound prefix
  }
  // Rung 3: the stop left nothing confirmed. A cancelled caller asked for
  // no further work; a deadline/budget stop buys one greedy explanation
  // under a cancel-only grace context (no deadline, no injector — the
  // original deadline is already spent).
  if (graded.certificate.stop == exec::StopReason::kCancelled) return graded;
  exec::ExecContext grace;
  grace.cancel = ctx.cancel;
  exec::Certificate greedy_cert;
  WHYNOT_ASSIGN_OR_RETURN(
      std::optional<CardinalityResult> one,
      GreedyCardinalityClimb(s.bound.get(), s.wni, s.covers.get(), &grace,
                             &greedy_cert));
  if (one.has_value()) {
    graded.explanations.push_back(std::move(one->explanation));
    graded.certificate.quality = exec::Quality::kHeuristic;
    graded.certificate.progress.best_so_far = 1;
  }
  // The certificate keeps the original stop reason: it explains why the
  // answer is not exact, not how the fallback itself ended.
  return graded;
}

Result<bool> ExplainSession::Exists(const Tuple& missing, Explanation* witness,
                                    const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExistenceOptions opts = s.options.existence;
  opts.exec = &ctx;
  return ExistsExplanation(s.bound.get(), s.wni, witness, opts, s.covers.get(),
                           s.lattice.get());
}

Result<std::optional<CardinalityResult>> ExplainSession::CardMaximal(
    const Tuple& missing, const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  return ExactCardMaximal(s.bound.get(), s.wni, opts, s.covers.get(),
                          s.lattice.get());
}

Result<std::optional<CardinalityResult>> ExplainSession::GreedyCard(
    const Tuple& missing, const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  return GreedyCardinalityClimb(s.bound.get(), s.wni, s.covers.get(), &ctx);
}

Result<bool> ExplainSession::CheckMge(const Tuple& missing,
                                      const Explanation& candidate,
                                      const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(missing, /*expect_answer=*/false, &ctx));
  return CheckMgeExternal(s.bound.get(), s.wni, candidate, s.covers.get(),
                          &ctx);
}

Result<std::vector<Explanation>> ExplainSession::WhyMges(
    const Tuple& present, const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(present, /*expect_answer=*/true, &ctx));
  ExhaustiveOptions opts = s.options.exhaustive;
  opts.exec = &ctx;
  return AllMostGeneralWhyExplanations(s.bound.get(), s.wi, opts,
                                       s.why_covers.get(), s.lattice.get());
}

}  // namespace whynot::explain
