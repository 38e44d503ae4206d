#include "whynot/explain/check_mge.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "whynot/explain/search_core.h"

namespace whynot::explain {

Result<bool> CheckMgeExternal(onto::BoundOntology* bound,
                              const WhyNotInstance& wni,
                              const Explanation& candidate,
                              ConceptAnswerCovers* covers,
                              const exec::ExecContext* exec) {
  if (candidate.size() != wni.arity()) {
    return Status::InvalidArgument(
        "explanation arity does not match the missing tuple");
  }
  // Definition 3.2 inline (one answer interning, shared with the covers):
  // every aᵢ ∈ ext(Cᵢ), and the extension product avoids Ans.
  for (size_t i = 0; i < candidate.size(); ++i) {
    ValueId id = bound->pool().Intern(wni.missing[i]);
    if (!bound->Ext(candidate[i]).Contains(id)) return false;
  }
  std::optional<ConceptAnswerCovers> local;
  if (covers == nullptr) {
    local.emplace(bound, InternAnswers(bound, wni));
    covers = &*local;
  }
  if (covers->ProductIntersects(candidate)) return false;
  const std::vector<std::vector<ValueId>>& answers = covers->answers();
  const bool parallel =
      par::NumThreads() > 1 && bound->NumConcepts() >= 64;
  // The replacement sweep below reads every concept's extension; warm them
  // all up front (sharded) so the parallel scan is read-only.
  if (parallel) WHYNOT_RETURN_IF_ERROR(bound->WarmExtensions(exec));
  for (size_t i = 0; i < candidate.size(); ++i) {
    // Position-granular probe at the same serial point on both paths: the
    // parallel existence scan below settles in a thread-dependent order,
    // so probes must not reach inside it. No partial result for a boolean
    // check — stops are always errors.
    if (std::optional<exec::Stop> s = exec::Check(exec, i)) {
      return exec::StopStatus(*s, "CHECK-MGE");
    }
    // The probe sweep only varies position i, so AND the other positions'
    // covers once and keep just the *alive* answers (those covered
    // everywhere else — the candidate being an explanation, its own
    // position covers none of them). Each replacement concept is probed
    // only against the alive answers, with early exit on the first hit;
    // a cover per replacement would be built for a single use, which is
    // exactly when the scalar probe wins.
    std::vector<uint64_t> base = covers->AndAllExcept(candidate, i);
    std::vector<uint32_t> alive;
    for (size_t a = 0; a < covers->num_answers(); ++a) {
      if ((base[a / 64] >> (a % 64)) & 1) alive.push_back(static_cast<uint32_t>(a));
    }
    if (!parallel) {
      for (onto::ConceptId d = 0; d < bound->NumConcepts(); ++d) {
        // Strictly more general replacement at position i.
        if (!bound->Subsumes(candidate[i], d) ||
            bound->Subsumes(d, candidate[i])) {
          continue;
        }
        // ext(candidate[i]) ⊆ ext(d) by consistency, so the missing tuple
        // stays inside; only the answer-avoidance condition can break.
        const onto::ExtSet& ext = bound->Ext(d);
        bool intersects = false;
        for (uint32_t a : alive) {
          if (ext.Contains(answers[a][i])) {
            intersects = true;
            break;
          }
        }
        if (!intersects) return false;  // strictly more general explanation
      }
      continue;
    }
    // "Some strictly-more-general replacement keeps avoiding Ans" is an
    // existence test over independent read-only probes, so it shards over
    // concept-id ranges; any thread finding a witness settles the result
    // (the boolean is order-independent) and flags the rest to stop.
    std::atomic<bool> found{false};
    par::ParallelFor(
        static_cast<size_t>(bound->NumConcepts()), 64,
        [&](size_t begin, size_t end) {
          for (size_t c = begin; c < end; ++c) {
            if (found.load(std::memory_order_relaxed)) return;
            onto::ConceptId d = static_cast<onto::ConceptId>(c);
            // Strictly more general replacement at position i.
            if (!bound->Subsumes(candidate[i], d) ||
                bound->Subsumes(d, candidate[i])) {
              continue;
            }
            // ext(candidate[i]) ⊆ ext(d) by consistency, so the missing
            // tuple stays inside; only answer-avoidance can break.
            const onto::ExtSet& ext = bound->Ext(d);
            bool intersects = false;
            for (uint32_t a : alive) {
              if (ext.Contains(answers[a][i])) {
                intersects = true;
                break;
              }
            }
            if (!intersects) {
              found.store(true, std::memory_order_relaxed);
              return;
            }
          }
        });
    if (found.load()) return false;  // strictly more general explanation
  }
  return true;
}

Result<bool> CheckMgeDerived(const WhyNotInstance& wni,
                             const LsExplanation& candidate,
                             bool with_selections,
                             ls::LubContext* lub_context,
                             ls::EvalCache* cache, LsAnswerCovers* covers,
                             ls::ConceptCache* concept_cache,
                             const exec::ExecContext* exec) {
  WHYNOT_RETURN_IF_ERROR(RequireCoverStores(
      covers, cache != nullptr && concept_cache != nullptr,
      "CheckMgeDerived"));
  std::optional<ls::EvalCache> local_cache;
  if (cache == nullptr) {
    local_cache.emplace(wni.instance);
    cache = &*local_cache;
  }
  std::optional<LsAnswerCovers> local_covers;
  if (covers == nullptr) {
    local_covers.emplace(wni.instance, &wni.answers);
    covers = &*local_covers;
  }
  std::optional<ls::ConceptCache> local_cc;
  if (concept_cache == nullptr) {
    local_cc.emplace(wni.instance);
    concept_cache = &*local_cc;
  }
  if (!IsLsExplanation(wni, candidate, cache, covers)) return false;
  const ValuePool& pool = wni.instance->pool();
  const std::vector<Value>& adom = wni.instance->ActiveDomain();
  const std::vector<ValueId>& adom_ids = wni.instance->ActiveDomainIds();
  std::vector<const ls::Extension*> exts;
  exts.reserve(candidate.size());
  for (const ls::LsConcept& c : candidate) exts.push_back(&cache->Eval(c));
  const ls::Extension top_ext = ls::Extension::All();

  if (par::NumThreads() > 1 && adom.size() >= 4) {
    // Sharded maximality probes through the shared lex-min sweep
    // (search_core.h): workers own their lazy caches, the instance is
    // pre-warmed, and the outcome at the smallest (j, bi) wins so results
    // match the serial scan exactly.
    wni.instance->WarmForConcurrentReads();
    struct Worker {
      ls::LubContext lub;
      ls::EvalCache cache;
      LsAnswerCovers covers;
      // The worker's view of the shared concept cache: published-tier
      // reads during the sweep, misses kept worker-local until the
      // serial publish below. Declared after lub/cache — it drives both.
      ls::ConceptCacheOverlay overlay;
      std::vector<const ls::Extension*> exts;
      ls::Extension top_ext = ls::Extension::All();
      // Position whose boxed support is cached below: the copy of
      // exts[j]->values() happens once per (worker, position), not per
      // block.
      size_t support_pos = SIZE_MAX;
      std::vector<Value> support;
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
      return std::make_unique<Worker>(wni.instance, &wni.answers,
                                      lub_context->options(), candidate,
                                      concept_cache, with_selections);
    };
    for (size_t j = 0; j < candidate.size(); ++j) {
      // Position-granular probe, mirroring the serial loop's check below.
      if (std::optional<exec::Stop> s = exec::Check(exec, j)) {
        return exec::StopStatus(*s, "CHECK-MGE (derived)");
      }
      const ls::Extension& ext = *exts[j];
      if (ext.all) continue;  // already maximally general at this position

      // Generalization to ⊤ covers all constants outside adom(I) at once
      // (serial probe; one AND).
      if (!covers->ProductIntersects(exts, j, &top_ext)) return false;

      ValueId missing_id = pool.Lookup(wni.missing[j]);
      std::optional<ProbeOutcome> outcome = LexMinSweep<Worker, ProbeOutcome>(
          adom.size(), 8, &workers, make_worker,
          [&](Worker& wk, size_t bi) -> std::optional<ProbeOutcome> {
            if (wk.support_pos != j) {
              wk.support = wk.exts[j]->values();
              wk.support.push_back(wni.missing[j]);
              wk.support_pos = j;
            }
            if (wk.exts[j]->ContainsId(adom_ids[bi])) return std::nullopt;
            std::vector<Value> extended = wk.support;
            extended.push_back(adom[bi]);
            // Maximality probes never accept a candidate, so the keys are
            // looked up exactly once — the transient path serves warm
            // tiers but skips the support-tier record (the keys here are
            // whole extension value lists, expensive to copy and hash).
            Result<std::shared_ptr<const ls::Extension>> cand =
                wk.overlay.LubExtTransient(extended);
            if (!cand.ok()) {
              return ProbeOutcome{false, cand.status()};
            }
            if ((*cand)->ContainsInterned(missing_id, wni.missing[j]) &&
                !wk.covers.ProductIntersects(wk.exts, j, cand->get())) {
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
        return exec::StopStatus(s, "CHECK-MGE (derived)");
      }
      if (outcome.has_value()) {
        if (!outcome->error.ok()) return outcome->error;
        if (outcome->broken) return false;
      }
    }
    return true;
  }

  // Serial maximality probes through a single overlay over the shared
  // cache; published on every return path so later requests against a
  // session cache start warm.
  ls::ConceptCacheOverlay overlay(concept_cache, with_selections, lub_context,
                                  cache);
  ls::ScopedPublish publish(concept_cache, &overlay);
  for (size_t j = 0; j < candidate.size(); ++j) {
    if (std::optional<exec::Stop> s = exec::Check(exec, j)) {
      return exec::StopStatus(*s, "CHECK-MGE (derived)");
    }
    const ls::Extension& ext = *exts[j];
    if (ext.all) continue;  // already maximally general at this position

    // Generalization to ⊤ covers all constants outside adom(I) at once:
    // the only LS concepts containing a non-adom constant besides its own
    // nominal are equivalent to ⊤. (⊤ keeps the missing tuple inside; only
    // the answer-avoidance condition decides.)
    if (!covers->ProductIntersects(exts, j, &top_ext)) return false;

    // lines 4-11 of Algorithm 2, used as a maximality test: lub-generalize
    // by each uncovered active-domain constant.
    std::vector<Value> support = ext.values();
    support.push_back(wni.missing[j]);
    ValueId missing_id = pool.Lookup(wni.missing[j]);
    for (size_t bi = 0; bi < adom.size(); ++bi) {
      if (ext.ContainsId(adom_ids[bi])) continue;
      std::vector<Value> extended = support;
      extended.push_back(adom[bi]);
      // Probe-once keys (whole extension value lists): transient path,
      // no support-tier record — see the parallel branch above.
      WHYNOT_ASSIGN_OR_RETURN(std::shared_ptr<const ls::Extension> cand,
                              overlay.LubExtTransient(extended));
      if (cand->ContainsInterned(missing_id, wni.missing[j]) &&
          !covers->ProductIntersects(exts, j, cand.get())) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace whynot::explain
