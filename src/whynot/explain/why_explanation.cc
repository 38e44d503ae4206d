#include "whynot/explain/why_explanation.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "whynot/common/algorithm.h"
#include "whynot/concepts/ls_eval.h"
#include "whynot/explain/search_core.h"
#include "whynot/relational/cq_eval.h"

namespace whynot::explain {

Result<WhyInstance> MakeWhyInstance(const rel::Instance* instance,
                                    const rel::UnionQuery& query,
                                    Tuple present) {
  WHYNOT_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                          rel::Evaluate(query, *instance));
  if (query.arity() != present.size()) {
    return Status::InvalidArgument("tuple arity does not match query arity");
  }
  if (!std::binary_search(answers.begin(), answers.end(), present)) {
    return Status::InvalidArgument(
        "tuple " + TupleToString(present) +
        " is not in the answer set; ask a why-not question instead");
  }
  WhyInstance wi;
  wi.instance = instance;
  wi.answers = std::move(answers);
  wi.present = std::move(present);
  return wi;
}

namespace {

/// The counting formulations below require Ans to be duplicate-free.
/// MakeWhyInstance guarantees that (rel::Evaluate sort-dedups), but
/// WhyInstance is a plain struct that callers may fill by hand, so the
/// answer vectors are defensively sort-deduped where they are built.
std::vector<Tuple> SortedUniqueAnswers(const WhyInstance& wi) {
  std::vector<Tuple> answers = wi.answers;
  SortUnique(&answers);
  return answers;
}

/// "product ⊆ Ans" in counting form over the answer-cover kernel: the
/// product tuples are pairwise distinct and Ans is duplicate-free, so the
/// product is inside Ans iff |product| equals the number of answers whose
/// every component lies in the corresponding extension — and that number
/// is popcount(⋀_i Cover(e_i, i)), one word-parallel AND instead of a
/// scalar membership pass per (answer, position). An All extension at any
/// position makes the product infinite, hence never ⊆ the finite answer
/// set — unless some other position is empty, making the product empty
/// and vacuously inside.
///
/// ext(C1) × ... × ext(Cm) ⊆ Ans over a bound finite ontology.
bool ProductInsideAnswers(onto::BoundOntology* bound,
                          const std::vector<onto::ConceptId>& concepts,
                          ConceptAnswerCovers* covers) {
  for (onto::ConceptId c : concepts) {
    const onto::ExtSet& e = bound->Ext(c);
    if (!e.is_all() && e.size() == 0) return true;  // vacuously inside
  }
  size_t product_size = 1;
  for (onto::ConceptId c : concepts) {
    const onto::ExtSet& e = bound->Ext(c);
    if (e.is_all()) return false;
    // |product| > |Ans| can never be covered; bail before overflow.
    if (product_size > covers->num_answers() / e.size()) return false;
    product_size *= e.size();
  }
  return covers->CountCovered(concepts) == product_size;
}

}  // namespace

std::vector<std::vector<ValueId>> InternedUniqueAnswers(
    onto::BoundOntology* bound, const WhyInstance& wi) {
  std::vector<std::vector<ValueId>> answers;
  answers.reserve(wi.answers.size());
  for (const Tuple& t : wi.answers) {
    std::vector<ValueId> ids;
    ids.reserve(t.size());
    for (const Value& v : t) ids.push_back(bound->pool().Intern(v));
    answers.push_back(std::move(ids));
  }
  SortUnique(&answers);
  return answers;
}

Result<bool> IsWhyExplanation(onto::BoundOntology* bound,
                              const WhyInstance& wi, const Explanation& e,
                              ConceptAnswerCovers* covers) {
  if (e.size() != wi.arity()) {
    return Status::InvalidArgument(
        "explanation arity does not match the tuple");
  }
  for (size_t i = 0; i < e.size(); ++i) {
    ValueId id = bound->pool().Intern(wi.present[i]);
    if (!bound->Ext(e[i]).Contains(id)) return false;
  }
  std::optional<ConceptAnswerCovers> local;
  if (covers == nullptr) {
    local.emplace(bound, InternedUniqueAnswers(bound, wi));
    covers = &*local;
  }
  return ProductInsideAnswers(bound, e, covers);
}

Result<std::vector<Explanation>> AllMostGeneralWhyExplanations(
    onto::BoundOntology* bound, const WhyInstance& wi,
    const ExhaustiveOptions& options, ConceptAnswerCovers* covers,
    LatticeHandle* lattice) {
  // "product ⊆ Ans" is ≼-downward closed just like avoidance (a smaller
  // product stays inside Ans), so the walk is the exhaustive search's.
  std::vector<std::vector<onto::ConceptId>> lists =
      CandidateLists(bound, wi.present);
  ProductSearch search(lists, options, bound, lattice);
  std::vector<Explanation> antichain;
  if (!search.empty()) {
    std::optional<ConceptAnswerCovers> local;
    if (covers == nullptr) {
      local.emplace(bound, InternedUniqueAnswers(bound, wi));
      covers = &*local;
    }
    // The product-containment test — the counting AND with its
    // finite-size pre-checks, by far the dominant cost — is a pure
    // function of the candidate, so it shards through the shared
    // candidate filter against a pre-resolved cover table; the antichain
    // pass replays serially over the survivors in candidate order. A
    // candidate the filter admits but a kept explanation dominates is
    // dropped at the replay (domination is checked before insertion), so
    // the antichain is exactly the serial reference's. The table resolves
    // covers for *every* list concept up front — worth it only when
    // workers will hammer it; the serial odometer path keeps the lazy
    // per-probe covers (most candidates never get probed past the
    // domination prefilter below). The frontier path always resolves the
    // table: its predicate shards per wave regardless of thread count.
    std::optional<CoverTable> table;
    if (search.frontier() || par::NumThreads() > 1) {
      table.emplace(covers, lists);
      table->ResolveSizes(bound, lists);
    }
    size_t m = wi.arity();
    Explanation current(m);
    WHYNOT_RETURN_IF_ERROR(search.Run(
        "why-explanation enumeration exceeded max_candidates",
        [&](const std::vector<size_t>& idx) {
          if (table.has_value()) return table->ProductInsideAt(idx);
          for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
          return ProductInsideAnswers(bound, current, covers);
        },
        [&](const std::vector<size_t>& idx) {
          for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
          KeepMaximal(*bound, current, &antichain);
          return true;
        },
        // Serial prefilter: the domination check is two subsumption
        // matrix probes against a short antichain — far cheaper than the
        // counting containment test it saves (the parallel path filters
        // first and re-checks domination at the replay above, same
        // output).
        [&](const std::vector<size_t>& idx) {
          for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
          return DominatedByAny(*bound, current, antichain);
        }));
    std::sort(antichain.begin(), antichain.end());
  }
  search.Certify(antichain.size());
  return antichain;
}

// --- Why-explanations w.r.t. the derived ontology OI ----------------------

namespace {

/// ext(C1) × ... × ext(Cm) ⊆ Ans over LS extensions — the same counting
/// core over the LS answer-cover kernel. `covers` must be built over the
/// sort-deduped answer vector; position `swap_pos` (if set) is read from
/// `repl` instead of exts[swap_pos], the probe form of the greedy search.
bool LsProductInsideAnswers(LsAnswerCovers* covers,
                            const std::vector<const ls::Extension*>& exts,
                            size_t swap_pos = SIZE_MAX,
                            const ls::Extension* repl = nullptr) {
  auto ext_at = [&](size_t i) -> const ls::Extension& {
    return i == swap_pos ? *repl : *exts[i];
  };
  for (size_t i = 0; i < exts.size(); ++i) {
    const ls::Extension& e = ext_at(i);
    if (!e.all && e.CardinalityOrInfinite() == 0) return true;
  }
  size_t product_size = 1;
  for (size_t i = 0; i < exts.size(); ++i) {
    const ls::Extension& e = ext_at(i);
    if (e.all) return false;
    size_t size = e.CardinalityOrInfinite();
    if (product_size > covers->num_answers() / size) return false;
    product_size *= size;
  }
  return covers->CountCovered(exts, swap_pos, repl) == product_size;
}

/// `covers` must be over the sort-deduped answer vector of `wi`.
bool IsLsWhyExplanationImpl(const WhyInstance& wi, const LsExplanation& e,
                            LsAnswerCovers* covers, ls::EvalCache* cache) {
  if (e.size() != wi.arity()) return false;
  const ValuePool& pool = wi.instance->pool();
  std::vector<const ls::Extension*> exts;
  exts.reserve(e.size());
  for (size_t i = 0; i < e.size(); ++i) {
    const ls::Extension& ext = cache->Eval(e[i]);
    if (!ext.ContainsInterned(pool.Lookup(wi.present[i]), wi.present[i])) {
      return false;
    }
    exts.push_back(&ext);
  }
  return LsProductInsideAnswers(covers, exts);
}

/// Per-call fallbacks for the prepared-session cache parameters: the
/// session passes its warm EvalCache / LsAnswerCovers (over its sorted
/// answer vector); one-shot calls materialize locals here. `sorted`
/// stores the defensively sort-deduped answers the local covers index.
struct WhyScratch {
  std::optional<std::vector<Tuple>> sorted;
  std::optional<ls::EvalCache> cache;
  std::optional<LsAnswerCovers> covers;
};

void ResolveWhyCaches(const WhyInstance& wi, ls::EvalCache** cache,
                      LsAnswerCovers** covers, WhyScratch* scratch) {
  if (*cache == nullptr) {
    scratch->cache.emplace(wi.instance);
    *cache = &*scratch->cache;
  }
  if (*covers == nullptr) {
    scratch->sorted.emplace(SortedUniqueAnswers(wi));
    scratch->covers.emplace(wi.instance, &*scratch->sorted);
    *covers = &*scratch->covers;
  }
}

}  // namespace

Result<bool> IsLsWhyExplanation(const WhyInstance& wi, const LsExplanation& e,
                                ls::EvalCache* cache, LsAnswerCovers* covers) {
  WHYNOT_RETURN_IF_ERROR(
      RequireCoverStores(covers, cache != nullptr, "IsLsWhyExplanation"));
  WhyScratch scratch;
  ResolveWhyCaches(wi, &cache, &covers, &scratch);
  return IsLsWhyExplanationImpl(wi, e, covers, cache);
}

Result<LsExplanation> IncrementalWhySearch(const WhyInstance& wi,
                                           bool with_selections,
                                           ls::LubContext* lub_context,
                                           ls::EvalCache* cache,
                                           LsAnswerCovers* covers,
                                           ls::ConceptCache* concept_cache,
                                           const exec::ExecContext* exec,
                                           exec::Certificate* cert,
                                           ls::ConceptCacheOverlay* session_overlay) {
  WHYNOT_RETURN_IF_ERROR(RequireCoverStores(
      covers, cache != nullptr && concept_cache != nullptr,
      "IncrementalWhySearch"));
  std::optional<ls::LubContext> local_ctx;
  if (lub_context == nullptr) {
    local_ctx.emplace(wi.instance);
    lub_context = &*local_ctx;
  }
  WhyScratch scratch;
  ResolveWhyCaches(wi, &cache, &covers, &scratch);
  std::optional<ls::ConceptCache> local_cc;
  if (concept_cache == nullptr) {
    local_cc.emplace(wi.instance);
    concept_cache = &*local_cc;
  }
  size_t m = wi.arity();
  const ValuePool& pool = wi.instance->pool();

  // The whole greedy sweep is serial, so one overlay over the shared cache
  // suffices; published on every return path (including certified stops)
  // so a session cache carries the lubs to later requests. A session's
  // persistent overlay (warm private maps) is used when it matches this
  // search's flavor.
  std::optional<ls::ConceptCacheOverlay> local_overlay;
  if (session_overlay == nullptr ||
      session_overlay->with_selections() != with_selections) {
    local_overlay.emplace(concept_cache, with_selections, lub_context, cache);
  }
  ls::ConceptCacheOverlay& overlay =
      local_overlay.has_value() ? *local_overlay : *session_overlay;
  ls::ScopedPublish publish(concept_cache, &overlay);

  std::vector<std::vector<Value>> support(m);
  LsExplanation e(m);
  std::vector<const ls::Extension*> exts(m);
  for (size_t j = 0; j < m; ++j) {
    support[j] = {wi.present[j]};
    WHYNOT_ASSIGN_OR_RETURN(const ls::ConceptCache::Entry* entry,
                            overlay.LubAndEval(support[j]));
    e[j] = entry->concept;
    exts[j] = entry->ext.get();
  }
  // Unlike the why-not case, the nominal-pinned start can already fail:
  // lub({a_j}) may denote more than {a_j} only through columns, but the
  // nominal conjunct pins it, so the product here is exactly {a} ⊆ Ans.
  if (!LsProductInsideAnswers(covers, exts)) {
    return Status::Internal(
        "nominal-pinned tuple is not a why-explanation; the product of "
        "nominals is {a} which must be inside Ans");
  }

  // One probe per generalization candidate in fixed sweep order, exactly
  // the IncrementalSearch convention; a stop leaves `e` a sound
  // why-explanation (every acceptance preserves product ⊆ Ans).
  size_t probes = 0;
  std::optional<exec::Stop> halted;
  const std::vector<Value>& adom = wi.instance->ActiveDomain();
  const std::vector<ValueId>& adom_ids = wi.instance->ActiveDomainIds();
  for (size_t j = 0; j < m && !halted.has_value(); ++j) {
    ValueId present_id = pool.Lookup(wi.present[j]);
    for (size_t bi = 0; bi < adom.size(); ++bi) {
      size_t probe = probes++;
      if (std::optional<exec::Stop> s = exec::Check(exec, probe)) {
        if (cert == nullptr) {
          return exec::StopStatus(*s, "incremental why search");
        }
        halted = *s;
        break;
      }
      if (exts[j]->ContainsId(adom_ids[bi])) continue;
      std::vector<Value> extended = support[j];
      extended.push_back(adom[bi]);
      // Probe-once candidates take the transient path (no support-tier
      // record); an acceptance is promoted in place, reusing the lub and
      // extension the probe just computed, so the session cache carries
      // it to later requests.
      WHYNOT_ASSIGN_OR_RETURN(std::shared_ptr<const ls::Extension> cand_ext,
                              overlay.LubExtTransient(extended));
      if (cand_ext->ContainsInterned(present_id, wi.present[j]) &&
          LsProductInsideAnswers(covers, exts, j, cand_ext.get())) {
        const ls::ConceptCache::Entry* entry = overlay.PromoteLastProbe();
        support[j] = std::move(extended);
        e[j] = entry->concept;
        exts[j] = entry->ext.get();
      }
    }
  }
  if (cert != nullptr) {
    size_t total = m * adom.size();
    exec::Progress progress;
    progress.tested = halted.has_value() ? halted->at : total;
    progress.remaining = total - progress.tested;
    exec::FillCertificate(cert, halted.value_or(exec::Stop{}), progress, 1,
                          exec::Quality::kHeuristic);
  }
  return e;
}

Result<bool> CheckWhyMgeDerived(const WhyInstance& wi,
                                const LsExplanation& candidate,
                                bool with_selections,
                                ls::LubContext* lub_context,
                                ls::EvalCache* cache,
                                LsAnswerCovers* covers,
                                ls::ConceptCache* concept_cache,
                                const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireCoverStores(
      covers, cache != nullptr && concept_cache != nullptr,
      "CheckWhyMgeDerived"));
  WhyScratch scratch;
  ResolveWhyCaches(wi, &cache, &covers, &scratch);
  std::optional<ls::ConceptCache> local_cc;
  if (concept_cache == nullptr) {
    local_cc.emplace(wi.instance);
    concept_cache = &*local_cc;
  }
  // The parallel workers build their own covers, which must index the
  // same answer vector the shared `covers` do: the local sort-deduped
  // copy on the one-shot path, or wi.answers itself when the caller
  // passed warm covers — the covers contract (see the header) then
  // guarantees wi.answers is already sorted and duplicate-free, so both
  // definitions coincide.
  const std::vector<Tuple>& answers =
      scratch.sorted.has_value() ? *scratch.sorted : wi.answers;
  if (!IsLsWhyExplanationImpl(wi, candidate, covers, cache)) return false;
  std::vector<const ls::Extension*> exts;
  exts.reserve(candidate.size());
  for (const ls::LsConcept& c : candidate) {
    exts.push_back(&cache->Eval(c));
  }
  const std::vector<Value>& adom = wi.instance->ActiveDomain();
  const std::vector<ValueId>& adom_ids = wi.instance->ActiveDomainIds();

  if (par::NumThreads() > 1 && adom.size() >= 4) {
    // The per-constant probes — lub, eval, counting AND — are independent
    // reads of a fixed instance, so each position's sweep shards over adom
    // ranges through the shared lex-min sweep (search_core.h). Workers
    // keep their own LubContext / EvalCache / covers (all three have lazy
    // single-threaded caches); the instance itself is pre-warmed. The
    // serial loop returns at the *smallest* bi that either errors or
    // breaks maximality, which is exactly the sweep's winning outcome —
    // identical for every thread count.
    wi.instance->WarmForConcurrentReads();
    struct Worker {
      ls::LubContext lub;
      ls::EvalCache cache;
      LsAnswerCovers covers;
      // The worker's view of the shared concept cache: published-tier
      // reads during the sweep, misses kept worker-local until the serial
      // publish below. Declared after lub/cache — it drives both.
      ls::ConceptCacheOverlay overlay;
      std::vector<const ls::Extension*> exts;
      Worker(const rel::Instance* instance, const std::vector<Tuple>* answers,
             const ls::LubOptions& options, const LsExplanation& candidate,
             ls::ConceptCache* shared, bool with_selections)
          : lub(instance, options), cache(instance), covers(instance, answers),
            overlay(shared, with_selections, &lub, &cache) {
        exts.reserve(candidate.size());
        for (const ls::LsConcept& c : candidate) exts.push_back(&cache.Eval(c));
      }
    };
    std::vector<std::unique_ptr<Worker>> workers(
        static_cast<size_t>(par::MaxWorkers()));
    auto make_worker = [&]() {
      return std::make_unique<Worker>(wi.instance, &answers,
                                      lub_context->options(), candidate,
                                      concept_cache, with_selections);
    };
    for (size_t j = 0; j < candidate.size(); ++j) {
      // Position-granular probe at the same serial point as the serial
      // loop below: the sweep's internal schedule is thread-dependent, so
      // probes must not depend on it. A boolean check has no partial
      // result — stops are always errors here.
      if (std::optional<exec::Stop> s = exec::Check(exec, j)) {
        return exec::StopStatus(*s, "why CHECK-MGE");
      }
      std::optional<ProbeOutcome> outcome = LexMinSweep<Worker, ProbeOutcome>(
          adom.size(), 8, &workers, make_worker,
          [&](Worker& wk, size_t bi) -> std::optional<ProbeOutcome> {
            if (wk.exts[j]->ContainsId(adom_ids[bi])) return std::nullopt;
            std::vector<Value> extended = wk.exts[j]->values();
            extended.push_back(adom[bi]);
            // Maximality probes never accept a candidate — transient
            // path, no support-tier record (the keys are whole extension
            // value lists, expensive to copy and hash).
            Result<std::shared_ptr<const ls::Extension>> cand =
                wk.overlay.LubExtTransient(extended);
            if (!cand.ok()) return ProbeOutcome{false, cand.status()};
            if (LsProductInsideAnswers(&wk.covers, wk.exts, j, cand->get())) {
              return ProbeOutcome{true, Status::OK()};
            }
            return std::nullopt;
          },
          exec);
      // Publish-after-sweep: drain the worker overlays in slot order (a
      // thread-independent linearization) at this serial point, so later
      // positions — and later requests against a session cache — reuse
      // the lubs this sweep computed.
      for (std::unique_ptr<Worker>& wk : workers) {
        if (wk != nullptr) concept_cache->Publish(&wk->overlay);
      }
      // An abandoned sweep may have skipped ranges; resolve the stop
      // before trusting (or discarding) its outcome.
      if (exec::ShouldAbandon(exec)) {
        exec::Stop s = exec->PollNow(j).value_or(
            exec::Stop{exec::StopReason::kCancelled, j});
        return exec::StopStatus(s, "why CHECK-MGE");
      }
      if (outcome.has_value()) {
        if (!outcome->error.ok()) return outcome->error;
        if (outcome->broken) return false;
      }
    }
  } else {
    // Serial maximality probes through a single overlay over the shared
    // cache; published on every return path so later requests against a
    // session cache start warm.
    ls::ConceptCacheOverlay overlay(concept_cache, with_selections,
                                    lub_context, cache);
    ls::ScopedPublish publish(concept_cache, &overlay);
    for (size_t j = 0; j < candidate.size(); ++j) {
      if (std::optional<exec::Stop> s = exec::Check(exec, j)) {
        return exec::StopStatus(*s, "why CHECK-MGE");
      }
      for (size_t bi = 0; bi < adom.size(); ++bi) {
        if (exts[j]->ContainsId(adom_ids[bi])) continue;
        std::vector<Value> extended = exts[j]->values();
        extended.push_back(adom[bi]);
        // Probe-once keys: transient path, no support-tier record — see
        // the parallel branch above.
        WHYNOT_ASSIGN_OR_RETURN(std::shared_ptr<const ls::Extension> cand_ext,
                                overlay.LubExtTransient(extended));
        // lub(ext ∪ {b}) is strictly more general than the candidate's
        // position (it contains b); if the tuple stays a why-explanation,
        // the candidate is not most general.
        if (LsProductInsideAnswers(covers, exts, j, cand_ext.get())) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace whynot::explain
