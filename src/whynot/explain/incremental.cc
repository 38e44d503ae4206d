#include "whynot/explain/incremental.h"

#include <algorithm>
#include <optional>

namespace whynot::explain {

Result<LsExplanation> IncrementalSearch(const WhyNotInstance& wni,
                                        const IncrementalOptions& options,
                                        ls::LubContext* lub_context,
                                        ls::EvalCache* cache,
                                        LsAnswerCovers* covers,
                                        ls::ConceptCache* concept_cache,
                                        ls::ConceptCacheOverlay* session_overlay) {
  WHYNOT_RETURN_IF_ERROR(RequireCoverStores(
      covers, cache != nullptr && concept_cache != nullptr,
      "IncrementalSearch"));
  size_t m = wni.arity();
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
  const ValuePool& pool = wni.instance->pool();

  // The whole greedy sweep is serial, so one overlay over the shared cache
  // suffices; published on every return path (including certified stops)
  // so a session cache carries the lubs to later requests. A session's
  // persistent overlay (warm private maps) is used when it matches this
  // search's flavor.
  std::optional<ls::ConceptCacheOverlay> local_overlay;
  if (session_overlay == nullptr ||
      session_overlay->with_selections() != options.with_selections) {
    local_overlay.emplace(concept_cache, options.with_selections, lub_context,
                          cache);
  }
  ls::ConceptCacheOverlay& overlay =
      local_overlay.has_value() ? *local_overlay : *session_overlay;
  ls::ScopedPublish publish(concept_cache, &overlay);

  // Lines 2-3: support sets X_j = {a_j}; first candidate explanation
  // E = (lub(X_1), ..., lub(X_m)). Extensions are held as pointers to
  // overlay entries (stable for the overlay's lifetime) so the cover
  // bitmaps cache by identity.
  std::vector<std::vector<Value>> support(m);
  LsExplanation e(m);
  std::vector<const ls::Extension*> exts(m);
  std::vector<ValueId> missing_ids(m);
  for (size_t j = 0; j < m; ++j) {
    support[j] = {wni.missing[j]};
    WHYNOT_ASSIGN_OR_RETURN(const ls::ConceptCache::Entry* entry,
                            overlay.LubAndEval(support[j]));
    e[j] = entry->concept;
    exts[j] = entry->ext.get();
    missing_ids[j] = pool.Lookup(wni.missing[j]);
  }
  bool initial_ok = true;
  for (size_t j = 0; j < m && initial_ok; ++j) {
    initial_ok = exts[j]->ContainsInterned(missing_ids[j], wni.missing[j]);
  }
  if (initial_ok) initial_ok = !covers->ProductIntersects(exts);
  if (!initial_ok) {
    return Status::Internal(
        "initial nominal-pinned tuple is not an explanation; this "
        "contradicts Section 5.2 (the trivial explanation always exists)");
  }

  // Execution control: one probe per generalization candidate, counted in
  // the fixed sweep order (including skipped candidates, so ordinals
  // depend only on the instance). A stop leaves `e` a sound explanation —
  // just not necessarily most general.
  size_t probes = 0;
  std::optional<exec::Stop> halted;
  auto check = [&]() -> Status {
    size_t probe = probes++;
    if (std::optional<exec::Stop> s = exec::Check(options.exec, probe)) {
      if (options.cert == nullptr) {
        return exec::StopStatus(*s, "incremental search");
      }
      halted = *s;
    }
    return Status::OK();
  };

  // Lines 4-11: for every position and every uncovered active-domain
  // constant, try the lub-generalized tuple; keep it if it remains an
  // explanation. The probe is one word-parallel AND over the cover
  // bitmaps with position j swapped to the candidate.
  const std::vector<Value>& adom = wni.instance->ActiveDomain();
  const std::vector<ValueId>& adom_ids = wni.instance->ActiveDomainIds();
  for (size_t j = 0; j < m && !halted.has_value(); ++j) {
    for (size_t bi = 0; bi < adom.size(); ++bi) {
      WHYNOT_RETURN_IF_ERROR(check());
      if (halted.has_value()) break;
      if (exts[j]->ContainsId(adom_ids[bi])) continue;
      std::vector<Value> extended = support[j];
      extended.push_back(adom[bi]);
      // Probe-once candidates go through the transient path (no
      // support-tier record — the sweep rejects almost all of them);
      // an accepted candidate is promoted in place, reusing the lub and
      // extension the probe just computed, so the session cache carries
      // it to later requests.
      WHYNOT_ASSIGN_OR_RETURN(std::shared_ptr<const ls::Extension> cand,
                              overlay.LubExtTransient(extended));
      if (cand->ContainsInterned(missing_ids[j], wni.missing[j]) &&
          !covers->ProductIntersects(exts, j, cand.get())) {
        const ls::ConceptCache::Entry* entry = overlay.PromoteLastProbe();
        e[j] = entry->concept;
        exts[j] = entry->ext.get();
        support[j] = std::move(extended);
      }
    }
  }

  // Final sweep: ⊤ is strictly more general than any concept whose
  // extension is finite; accept it where the tuple stays an explanation.
  if (options.generalize_to_top && !halted.has_value()) {
    const ls::Extension top_ext = ls::Extension::All();
    for (size_t j = 0; j < m; ++j) {
      WHYNOT_RETURN_IF_ERROR(check());
      if (halted.has_value()) break;
      if (exts[j]->all) continue;
      if (!covers->ProductIntersects(exts, j, &top_ext)) {
        e[j] = ls::LsConcept::Top();
        exts[j] = &cache->Eval(e[j]);
      }
    }
  }
  if (options.cert != nullptr) {
    size_t total = m * adom.size() + (options.generalize_to_top ? m : 0);
    exec::Progress progress;
    progress.tested = halted.has_value() ? halted->at : total;
    progress.remaining = total - progress.tested;
    // An interrupted sweep is kHeuristic: the tuple is a sound explanation
    // but candidates after the cut were never offered, so most-generality
    // is not certified.
    exec::FillCertificate(options.cert, halted.value_or(exec::Stop{}),
                          progress, 1, exec::Quality::kHeuristic);
  }
  return e;
}

Result<LsExplanation> IncrementalSearch(const WhyNotInstance& wni,
                                        const IncrementalOptions& options) {
  ls::LubContext ctx(wni.instance, options.lub);
  return IncrementalSearch(wni, options, &ctx, nullptr, nullptr, nullptr);
}

}  // namespace whynot::explain
