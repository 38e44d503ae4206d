#include "whynot/explain/check_mge.h"

#include <optional>

#include "whynot/explain/derived_sweep.h"

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
  for (size_t i = 0; i < candidate.size(); ++i) {
    // Position-granular probe; no partial result for a boolean check —
    // stops are always errors.
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
  if (candidate.size() != wni.arity()) {
    return Status::InvalidArgument(
        "explanation arity does not match the missing tuple");
  }
  DerivedStores stores("CheckMgeDerived", wni.instance, wni.answers,
                       /*dedup_answers=*/false, with_selections, {}, lub_context,
                       cache, covers, concept_cache);
  WHYNOT_RETURN_IF_ERROR(stores.status());
  return CheckMaximal<WhyNotDual>(wni.instance, wni.missing, candidate,
                                  &stores, exec);
}

}  // namespace whynot::explain
