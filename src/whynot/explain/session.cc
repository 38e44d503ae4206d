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
  State(const rel::Instance* instance, const onto::FiniteOntology* ontology,
        ExplainSessionOptions options)
      : instance(instance), ontology(ontology), options(std::move(options)) {}

  const rel::Instance* instance;
  const onto::FiniteOntology* ontology;
  ExplainSessionOptions options;
  bool has_query = false;  // bound from wni.query, not from fixed answers
  uint64_t version = 0;
  // What the last warm was brought up to date against: the instance's
  // non-append generation, the distinct count of every schema column
  // (ColumnCounts) and, for a query-bound session, the row counts of the
  // query's relations. A re-warm at the same generation evaluates only
  // the rows past `marks`, and keeps the derived O_I state while no
  // distinct count moved.
  uint64_t generation = 0;
  std::vector<size_t> distinct;
  rel::RowMarks marks;
  RewarmCounts rewarms;

  /// The one answer vector lives in wni.answers; requests only swap the
  /// missing tuple, so Ans is never copied per request. The why requests
  /// read Ans only through the session's covers (ls_covers over
  /// wni.answers, covers interned from it), so their WhyInstance carries
  /// empty answers.
  WhyNotInstance wni;

  // External-ontology warm state (null without an ontology).
  std::unique_ptr<onto::BoundOntology> bound;
  // Over wni.answers, which is sort-unique, so the interned rows are
  // duplicate-free: the avoidance tests and the why dual's counting
  // containment test both read these.
  std::unique_ptr<ConceptAnswerCovers> covers;
  // Shared Hasse/downset state for the dominance-pruned searches. The
  // handle is lazy: Bind stays O(covers) and the O(|concepts|²) lattice
  // build runs only the first time a request actually escalates to the
  // frontier, after which every search on this binding reuses it.
  std::unique_ptr<LatticeHandle> lattice;

  // Derived-ontology (OI) warm state, shared across every request: the
  // lub context's canonical boxes, the LS answer covers over wni.answers,
  // and the concept cache. Every derived request records its lub+eval
  // results in the concept cache, whose one extension memo (evals()) also
  // serves every other ⟦C⟧ᴵ the requests evaluate; the memo's stable
  // identities key the cover rows. Entries survive a re-warm that keeps
  // the derived state and are dropped on one that rebuilds it; traffic
  // counters survive both.
  std::unique_ptr<ls::LubContext> lub;
  std::unique_ptr<LsAnswerCovers> ls_covers;
  std::unique_ptr<ls::ConceptCache> concept_cache;

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

/// The distinct count of every schema column, relation by relation in
/// schema order. Appends are monotone, so while the generation stays put
/// an equal count means an equal distinct column.
std::vector<size_t> ColumnCounts(const rel::Instance& instance) {
  std::vector<size_t> counts;
  for (const rel::RelationDef& def : instance.schema().relations()) {
    const rel::StoredRelation* rel = instance.Find(def.name());
    for (size_t a = 0; a < def.arity(); ++a) {
      counts.push_back(rel == nullptr ? 0 : rel->Index(a).keys.size());
    }
  }
  return counts;
}

/// `options` with the request context installed.
template <typename Options>
Options WithExec(Options options, const exec::ExecContext& ctx) {
  options.exec = &ctx;
  return options;
}

/// The options of an O_I search: the session's two derived knobs and the
/// request context.
template <typename Options>
Options DerivedOptions(const ExplainSessionOptions& session,
                       const exec::ExecContext& ctx) {
  Options options;
  options.with_selections = session.with_selections;
  options.lub = session.lub;
  return WithExec(options, ctx);
}

}  // namespace

ExplainSession::ExplainSession(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

ExplainSession::ExplainSession(ExplainSession&&) noexcept = default;
ExplainSession& ExplainSession::operator=(ExplainSession&&) noexcept = default;
ExplainSession::~ExplainSession() = default;

Result<ExplainSession> ExplainSession::Bind(const rel::Instance* instance,
                                            rel::UnionQuery query,
                                            const onto::FiniteOntology* ontology,
                                            ExplainSessionOptions options) {
  auto state = std::make_unique<State>(instance, ontology, std::move(options));
  state->wni.query = std::move(query);
  state->has_query = true;
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
  auto state = std::make_unique<State>(instance, ontology, std::move(options));
  state->wni.answers = std::move(answers);
  ExplainSession session(std::move(state));
  WHYNOT_RETURN_IF_ERROR(session.Rewarm());
  return session;
}

Status ExplainSession::UpdateAnswers() {
  State& s = *state_;
  // A non-append write (or the first warm) restarts from empty marks: the
  // delta since nothing is the full answer set.
  if (s.ls_covers == nullptr || s.generation != s.instance->generation()) {
    s.wni.answers.clear();
    s.marks.clear();
    s.ls_covers = std::make_unique<LsAnswerCovers>(s.instance, &s.wni.answers);
    ++s.rewarms.full;
  } else {
    ++s.rewarms.delta;
  }
  WHYNOT_ASSIGN_OR_RETURN(std::vector<std::vector<ValueId>> delta,
                          rel::EvaluateIds(s.wni.query, *s.instance, s.marks));
  // The merge skips answers already present, so a retry after a re-warm
  // that failed past this point (the marks stay behind) is a no-op here.
  s.ls_covers->MergeAnswers(delta, &s.wni.answers);
  return Status::OK();
}

Status ExplainSession::Rewarm(const exec::ExecContext* exec) {
  State& s = *state_;
  s.wni.instance = s.instance;

  // Over selection-free LS every signature, lub and extension the derived
  // state caches depends only on the distinct columns (Lemma 5.1), so it
  // survives an append that left every column as it was — unless a caller
  // candidate brought a selection conjunct, whose extension reads rows,
  // into the eval memo.
  std::vector<size_t> distinct = ColumnCounts(*s.instance);
  const bool keep = s.lub != nullptr &&
                    s.generation == s.instance->generation() &&
                    distinct == s.distinct &&
                    !s.options.with_selections &&
                    !s.concept_cache->evals().read_rows();
  // Cover rows are keyed by the addresses of the extensions a rebuild
  // frees; kept extensions keep their rows, which the merge below extends.
  if (!keep && s.ls_covers != nullptr) s.ls_covers->ClearRows();
  if (s.has_query) {
    WHYNOT_RETURN_IF_ERROR(UpdateAnswers());
  } else if (!keep) {
    // Fixed answers, but values the instance did not hold may have been
    // interned since: the covers re-resolve their ids. (A kept state saw
    // no value new to a column, hence none new to the pool.)
    s.ls_covers = std::make_unique<LsAnswerCovers>(s.instance, &s.wni.answers);
  }

  if (keep) {
    ++s.rewarms.kept;
  } else {
    s.lub = std::make_unique<ls::LubContext>(s.instance, s.options.lub);
    if (s.concept_cache == nullptr) {
      s.concept_cache = std::make_unique<ls::ConceptCache>(s.instance);
    } else {
      s.concept_cache->Clear();
    }
  }

  s.covers.reset();
  s.lattice.reset();
  s.bound.reset();
  if (s.ontology != nullptr) {
    // The extensions are warmed here, serially; the one pooled search
    // (the odometer walk) then reads only pre-resolved cover rows, so no
    // pool worker reads the instance or calls an ExtFn.
    s.bound = std::make_unique<onto::BoundOntology>(s.ontology, s.instance);
    // A stop (or injected warm fault) aborts the rewarm before the covers
    // are rebuilt; s.version stays behind, so the next request retries the
    // warm-up from the concepts already cached.
    WHYNOT_RETURN_IF_ERROR(s.bound->WarmExtensions(exec));
    s.covers = std::make_unique<ConceptAnswerCovers>(
        s.bound.get(), InternAnswers(s.bound.get(), s.wni));
    s.lattice = std::make_unique<LatticeHandle>(s.bound.get());
  }
  s.version = s.instance->version();
  s.generation = s.instance->generation();
  s.distinct = std::move(distinct);
  if (s.has_query) s.marks = rel::MarkRows(s.wni.query, *s.instance);
  return Status::OK();
}

Status ExplainSession::Prepare(const Tuple& tuple, Question question,
                               const exec::ExecContext* exec) {
  State& s = *state_;
  if (s.version != s.instance->version()) WHYNOT_RETURN_IF_ERROR(Rewarm(exec));
  if (s.has_query && s.wni.query.arity() != tuple.size()) {
    return Status::InvalidArgument(
        question == kWhy ? "tuple arity does not match query arity"
                         : "missing tuple arity does not match query arity");
  }
  if (!s.has_query && !s.wni.answers.empty() &&
      s.wni.answers.front().size() != tuple.size()) {
    return Status::InvalidArgument(
        "answer arity does not match missing tuple arity");
  }
  bool in_answers = std::binary_search(s.wni.answers.begin(),
                                       s.wni.answers.end(), tuple);
  if (question == kWhy) {
    if (in_answers) return Status::OK();
    return Status::InvalidArgument(
        "tuple " + TupleToString(tuple) +
        " is not in the answer set; ask a why-not question instead");
  }
  if (in_answers) {
    return Status::InvalidArgument("tuple " + TupleToString(tuple) +
                                   " is in the answer set; nothing to "
                                   "explain");
  }
  s.wni.missing = tuple;
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

template <typename Fn>
auto ExplainSession::Serve(const Tuple& tuple, Question question,
                           Ontology ontology, const exec::ExecContext* exec,
                           Fn fn)
    -> decltype(fn(std::declval<State&>(),
                   std::declval<const exec::ExecContext&>())) {
  if (ontology == kExternal) WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  const exec::ExecContext ctx =
      MakeRequestExec(s.options.request_deadline_ms, s.cancel, exec);
  WHYNOT_RETURN_IF_ERROR(Prepare(tuple, question, &ctx));
  return fn(s, ctx);
}

const std::vector<Tuple>& ExplainSession::answers() const {
  return state_->wni.answers;
}

bool ExplainSession::has_ontology() const {
  return state_->ontology != nullptr;
}

uint64_t ExplainSession::warmed_version() const { return state_->version; }

ExplainSession::RewarmCounts ExplainSession::rewarm_counts() const {
  return state_->rewarms;
}

onto::BoundOntology* ExplainSession::bound_ontology() {
  return state_->bound.get();
}

void ExplainSession::Cancel() { state_->cancel.Cancel(); }

void ExplainSession::ResetCancel() { state_->cancel = exec::CancelToken(); }

Status ExplainSession::CheckConsistent() {
  WHYNOT_RETURN_IF_ERROR(RequireOntology());
  State& s = *state_;
  if (s.version != s.instance->version()) WHYNOT_RETURN_IF_ERROR(Rewarm());
  return s.bound->CheckConsistent();
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
  if (s.ls_covers != nullptr) m.cover_bytes += s.ls_covers->MemoryBytes();
  if (s.concept_cache != nullptr) {
    m.eval_cache_bytes = s.concept_cache->evals().MemoryBytes();
    m.shared_cache_bytes = s.concept_cache->SupportBytes();
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
  return Serve(missing, kWhyNot, kDerived, exec, [](State& s, auto& ctx) {
    return IncrementalSearch(
        s.wni, DerivedOptions<IncrementalOptions>(s.options, ctx), s.lub.get(),
        &s.concept_cache->evals(), s.ls_covers.get(), s.concept_cache.get());
  });
}

Result<std::vector<LsExplanation>> ExplainSession::EnumerateMges(
    const Tuple& missing, EnumerateStats* stats,
    const exec::ExecContext* exec) {
  return Serve(missing, kWhyNot, kDerived, exec, [&](State& s, auto& ctx) {
    return EnumerateAllMges(
        s.wni, DerivedOptions<EnumerateOptions>(s.options, ctx), stats,
        s.lub.get(), s.concept_cache.get(), &s.concept_cache->evals(),
        s.ls_covers.get());
  });
}

Result<bool> ExplainSession::CheckMgeDerived(const Tuple& missing,
                                             const LsExplanation& candidate,
                                             const exec::ExecContext* exec) {
  return Serve(missing, kWhyNot, kDerived, exec, [&](State& s, auto& ctx) {
    return explain::CheckMgeDerived(
        s.wni, candidate, s.options.with_selections, s.lub.get(),
        &s.concept_cache->evals(), s.ls_covers.get(), s.concept_cache.get(),
        &ctx);
  });
}

Result<LsExplanation> ExplainSession::Why(const Tuple& present,
                                          const exec::ExecContext* exec) {
  return Serve(present, kWhy, kDerived, exec, [&](State& s, auto& ctx) {
    // ls_covers indexes wni.answers, which is sorted and duplicate-free, as
    // the counting form needs.
    return IncrementalWhySearch(
        WhyInstance{s.instance, {}, present}, s.options.with_selections,
        s.lub.get(), &s.concept_cache->evals(), s.ls_covers.get(),
        s.concept_cache.get(), &ctx);
  });
}

// --- External-ontology requests -------------------------------------------

Result<std::vector<Explanation>> ExplainSession::ExhaustiveMges(
    const Tuple& missing, const exec::ExecContext* exec) {
  return PrunedMges(missing, exec);
}

Result<std::vector<Explanation>> ExplainSession::PrunedMges(
    const Tuple& missing, const exec::ExecContext* exec) {
  return Serve(missing, kWhyNot, kExternal, exec, [](State& s, auto& ctx) {
    return PrunedSearchAllMge(s.bound.get(), s.wni,
                              WithExec(s.options.exhaustive, ctx),
                              s.covers.get(), s.lattice.get());
  });
}

Result<GradedMges> ExplainSession::MgesWithDegradation(
    const Tuple& missing, const exec::ExecContext* exec) {
  return Serve(missing, kWhyNot, kExternal, exec,
               [](State& s, auto& ctx) -> Result<GradedMges> {
    GradedMges graded;
    // Rung 1/2: the pruned exact search under the request context. With a
    // certificate attached a stop is not an error — the search returns the
    // deterministic prefix it had confirmed and records the cut.
    ExhaustiveOptions opts = WithExec(s.options.exhaustive, ctx);
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
  });
}

Result<bool> ExplainSession::Exists(const Tuple& missing, Explanation* witness,
                                    const exec::ExecContext* exec) {
  return Serve(missing, kWhyNot, kExternal, exec, [&](State& s, auto& ctx) {
    return ExistsExplanation(s.bound.get(), s.wni, witness,
                             WithExec(s.options.existence, ctx),
                             s.covers.get(), s.lattice.get());
  });
}

Result<std::optional<CardinalityResult>> ExplainSession::CardMaximal(
    const Tuple& missing, const exec::ExecContext* exec) {
  return Serve(missing, kWhyNot, kExternal, exec, [](State& s, auto& ctx) {
    return ExactCardMaximal(s.bound.get(), s.wni,
                            WithExec(s.options.exhaustive, ctx),
                            s.covers.get(), s.lattice.get());
  });
}

Result<std::optional<CardinalityResult>> ExplainSession::GreedyCard(
    const Tuple& missing, const exec::ExecContext* exec) {
  return Serve(missing, kWhyNot, kExternal, exec, [](State& s, auto& ctx) {
    return GreedyCardinalityClimb(s.bound.get(), s.wni, s.covers.get(), &ctx);
  });
}

Result<bool> ExplainSession::CheckMge(const Tuple& missing,
                                      const Explanation& candidate,
                                      const exec::ExecContext* exec) {
  return Serve(missing, kWhyNot, kExternal, exec, [&](State& s, auto& ctx) {
    return CheckMgeExternal(s.bound.get(), s.wni, candidate, s.covers.get(),
                            &ctx);
  });
}

Result<std::vector<Explanation>> ExplainSession::WhyMges(
    const Tuple& present, const exec::ExecContext* exec) {
  return Serve(present, kWhy, kExternal, exec, [&](State& s, auto& ctx) {
    return AllMostGeneralWhyExplanations(
        s.bound.get(), WhyInstance{s.instance, {}, present},
        WithExec(s.options.exhaustive, ctx), s.covers.get(), s.lattice.get());
  });
}

}  // namespace whynot::explain
