#ifndef WHYNOT_EXPLAIN_DERIVED_SWEEP_H_
#define WHYNOT_EXPLAIN_DERIVED_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/answer_cover.h"
#include "whynot/explain/explanation.h"

namespace whynot::explain {

/// The single-position lub-generalization sweep over adom(I) behind the
/// four searches w.r.t. the derived ontology O_I: Algorithm 2 (INCREMENTAL
/// SEARCH, Theorem 5.3), CHECK-MGE w.r.t. O_I (Proposition 5.2) and the
/// Section 7 why duals of both. The duals differ only in the product test
/// a generalized tuple must keep passing, which is the `Dual` template
/// parameter below (WhyNotDual, WhyDual); everything else is one serial
/// design: one store resolution (DerivedStores), one greedy sweep
/// (GreedySweep), one maximality check (CheckMaximal).

/// The why-not dual (Definition 3.2): the extension product avoids Ans.
struct WhyNotDual {
  /// ⊤ keeps the missing tuple inside and may still avoid Ans, so both
  /// the sweep and the check try it (the full language LS contains ⊤).
  static constexpr bool kTopStep = true;
  static constexpr const char* kSweep = "incremental search";
  static constexpr const char* kCheck = "CHECK-MGE (derived)";
  static bool Holds(LsAnswerCovers* covers,
                    const std::vector<const ls::Extension*>& exts,
                    size_t swap_pos = SIZE_MAX,
                    const ls::Extension* repl = nullptr) {
    return !covers->ProductIntersects(exts, swap_pos, repl);
  }
};

/// The why dual (Section 7): the extension product stays inside Ans.
struct WhyDual {
  /// A ⊤ position makes the product infinite, never inside the finite
  /// Ans: the ⊤ step could never pass, so it is not taken.
  static constexpr bool kTopStep = false;
  static constexpr const char* kSweep = "incremental why search";
  static constexpr const char* kCheck = "why CHECK-MGE";
  static bool Holds(LsAnswerCovers* covers,
                    const std::vector<const ls::Extension*>& exts,
                    size_t swap_pos = SIZE_MAX,
                    const ls::Extension* repl = nullptr) {
    return covers->ProductInside(exts, swap_pos, repl);
  }
};

/// Definition 3.2, or its why dual, against O_I: every t_j ∈ ⟦C_j⟧ᴵ and
/// the extension product passes Dual::Holds. `cache` feeds the extensions
/// `covers` key their rows by; `exts`, when non-null, receives the
/// candidate's extensions on success.
template <typename Dual>
bool IsDualExplanation(const rel::Instance* instance, const Tuple& tuple,
                       const LsExplanation& e, ls::EvalCache* cache,
                       LsAnswerCovers* covers,
                       std::vector<const ls::Extension*>* exts = nullptr) {
  if (e.size() != tuple.size()) return false;
  const ValuePool& pool = instance->pool();
  std::vector<const ls::Extension*> evaluated;
  evaluated.reserve(e.size());
  for (size_t j = 0; j < e.size(); ++j) {
    const ls::Extension& ext = cache->Eval(e[j]);
    if (!ext.ContainsInterned(pool.Lookup(tuple[j]), tuple[j])) return false;
    evaluated.push_back(&ext);
  }
  if (!Dual::Holds(covers, evaluated)) return false;
  if (exts != nullptr) *exts = std::move(evaluated);
  return true;
}

/// The stores one O_I search runs through, resolved once. The caller's
/// stores are used where given. A null lub context gets a call-local one
/// built with `lub_options`; a null ConceptCache or LsAnswerCovers gets a
/// call-local one; a null EvalCache means the concept cache's evals().
/// Results are identical either way. Local covers index `answers`, or its
/// sort-deduped copy when `dedup_answers` (the why dual's counting form
/// needs Ans duplicate-free; caller-owned covers assert that of `answers`
/// already). The probes run through an overlay of this search's flavor,
/// which records every lub it computes in the ConceptCache at once, so a
/// session cache carries the lubs to later requests whatever path the
/// search returns by.
///
/// Caller-owned covers need a caller-owned ConceptCache
/// (RequireCoverStores); status() is InvalidArgument naming `where`
/// otherwise, and no other accessor may then be used.
class DerivedStores {
 public:
  DerivedStores(const char* where, const rel::Instance* instance,
                const std::vector<Tuple>& answers, bool dedup_answers,
                bool with_selections, const ls::LubOptions& lub_options,
                ls::LubContext* lub_context, ls::EvalCache* cache,
                LsAnswerCovers* covers, ls::ConceptCache* concept_cache);
  DerivedStores(const DerivedStores&) = delete;
  DerivedStores& operator=(const DerivedStores&) = delete;

  const Status& status() const { return status_; }
  ls::EvalCache* cache() const { return cache_; }
  LsAnswerCovers* covers() const { return covers_; }
  ls::ConceptCache* concept_cache() const { return concept_cache_; }
  ls::ConceptCacheOverlay& overlay() { return *overlay_; }

 private:
  Status status_;
  // Declaration order is destruction order reversed: the overlay drives
  // the lub context and the concept cache, and the covers index the
  // answers.
  std::optional<std::vector<Tuple>> sorted_answers_;
  std::optional<ls::LubContext> local_lub_;
  std::optional<LsAnswerCovers> local_covers_;
  std::optional<ls::ConceptCache> local_concept_cache_;
  std::optional<ls::ConceptCacheOverlay> overlay_;
  ls::EvalCache* cache_ = nullptr;
  LsAnswerCovers* covers_ = nullptr;
  ls::ConceptCache* concept_cache_ = nullptr;
};

/// The greedy sweep (Algorithm 2, lines 2-11, and its why dual): start
/// from the nominal-pinned tuple (lub({t_j}) per position, whose product
/// {t} passes either dual's test) and, for every position and every
/// active-domain constant outside the current extension, keep the
/// lub-generalized tuple when it still passes Dual::Holds — one
/// word-parallel cover AND (or count) with position j swapped to the
/// candidate. The test is downward closed in the supports, so one sweep
/// in fixed order yields a most-general explanation w.r.t. O_I; for the
/// why-not dual a final ⊤ step per position follows (WhyNotDual::
/// kTopStep).
///
/// Execution control: one probe per generalization candidate, counted in
/// the fixed sweep order (skipped candidates included, so ordinals depend
/// only on the instance), plus one per ⊤ step. Without `cert` a stop is
/// the matching error status; with it the sweep returns the tuple
/// generalized so far — sound, since every accepted swap keeps the test,
/// but possibly not most general (Quality::kHeuristic).
template <typename Dual>
Result<LsExplanation> GreedySweep(const rel::Instance* instance,
                                  const Tuple& tuple, DerivedStores* stores,
                                  const exec::ExecContext* exec,
                                  exec::Certificate* cert) {
  const size_t m = tuple.size();
  const ValuePool& pool = instance->pool();
  LsAnswerCovers* covers = stores->covers();
  ls::ConceptCacheOverlay& overlay = stores->overlay();

  // Lines 2-3: support sets X_j = {t_j}; first candidate (lub(X_1), ...,
  // lub(X_m)). Extensions are held as pointers to concept-cache entries
  // (stable until its Clear) so the cover bitmaps cache by identity.
  // Each X_j is carried as its support key (selection-free: its running
  // column signature), so a probe extends it by one AND.
  std::vector<ls::SupportKey> support(m);
  LsExplanation e(m);
  std::vector<const ls::Extension*> exts(m);
  std::vector<ValueId> ids(m);
  bool start_ok = true;
  for (size_t j = 0; j < m; ++j) {
    support[j] = overlay.KeyOf({tuple[j]});
    WHYNOT_ASSIGN_OR_RETURN(const ls::ConceptCache::Entry* entry,
                            overlay.LubAndEval(support[j]));
    e[j] = *entry->concept;
    exts[j] = entry->ext;
    ids[j] = pool.Lookup(tuple[j]);
    start_ok = start_ok && exts[j]->ContainsInterned(ids[j], tuple[j]);
  }
  if (!start_ok || !Dual::Holds(covers, exts)) {
    return Status::Internal(
        "the nominal-pinned start tuple fails the product test; its product "
        "is the tuple itself, which always passes (Section 5.2)");
  }

  size_t probes = 0;
  std::optional<exec::Stop> halted;
  auto check = [&]() -> Status {
    if (std::optional<exec::Stop> s = exec::Check(exec, probes++)) {
      if (cert == nullptr) return exec::StopStatus(*s, Dual::kSweep);
      halted = *s;
    }
    return Status::OK();
  };

  // Lines 4-11: every position, every uncovered active-domain constant.
  const std::vector<Value>& adom = instance->ActiveDomain();
  const std::vector<ValueId>& adom_ids = instance->ActiveDomainIds();
  ls::SupportKey extended;  // reused candidate-key buffer
  for (size_t j = 0; j < m && !halted.has_value(); ++j) {
    for (size_t bi = 0; bi < adom.size(); ++bi) {
      WHYNOT_RETURN_IF_ERROR(check());
      if (halted.has_value()) break;
      // b ∈ ext(lub(X_j)) ⊇ X_j leaves the lub unchanged; every other b is
      // outside X_j, as Extend requires.
      if (exts[j]->ContainsId(adom_ids[bi])) continue;
      overlay.Extend(support[j], adom[bi], adom_ids[bi], &extended);
      // Candidates take the probe path (with selections: no support entry
      // — the sweep rejects almost all of them); an accepted one is
      // promoted in place, reusing the lub and extension just computed.
      WHYNOT_ASSIGN_OR_RETURN(const ls::Extension* cand,
                              overlay.LubExtTransient(extended));
      if (cand->ContainsInterned(ids[j], tuple[j]) &&
          Dual::Holds(covers, exts, j, cand)) {
        const ls::ConceptCache::Entry* entry =
            overlay.PromoteLastProbe(extended);
        e[j] = *entry->concept;
        exts[j] = entry->ext;
        std::swap(support[j], extended);
      }
    }
  }

  // The ⊤ step: ⊤ is strictly more general than any concept with a finite
  // extension; accept it where the tuple stays an explanation.
  if (Dual::kTopStep && !halted.has_value()) {
    const ls::Extension top_ext = ls::Extension::All();
    for (size_t j = 0; j < m; ++j) {
      WHYNOT_RETURN_IF_ERROR(check());
      if (halted.has_value()) break;
      if (exts[j]->all) continue;
      if (Dual::Holds(covers, exts, j, &top_ext)) {
        e[j] = ls::LsConcept::Top();
        exts[j] = &stores->cache()->Eval(e[j]);
      }
    }
  }
  if (cert != nullptr) {
    size_t total = m * adom.size() + (Dual::kTopStep ? m : 0);
    exec::Progress progress;
    progress.tested = halted.has_value() ? halted->at : total;
    progress.remaining = total - progress.tested;
    exec::FillCertificate(cert, halted.value_or(exec::Stop{}), progress, 1,
                          exec::Quality::kHeuristic);
  }
  return e;
}

/// The maximality check (Proposition 5.2 and its why dual): is
/// `candidate` an explanation for `tuple` that no single-position
/// lub-generalization keeps one? For each position j (⊤ positions are
/// already maximal), the ⊤ step when the dual takes it — ⊤ covers every
/// constant outside adom(I) at once, since the only LS concepts holding a
/// non-adom constant besides its own nominal are equivalent to ⊤ — then
/// lub(ext(C_j) ∪ {b}) for each b ∈ adom(I) \ ext(C_j), which is strictly
/// more general than C_j; the candidate is most general iff none passes
/// Dual::Holds. Single-position replacement is complete because the test
/// is downward closed.
///
/// The probes run serially through the stores' overlay in fixed (j, b)
/// order, on the probe lub path: maximality probes never accept, so each
/// boxed (with-selections) key is looked up once. The base support
/// ext(C_j) is keyed once per position (selection-free: its column
/// signature), and each probe extends that key by b. `exec` is observed
/// once per position (probe ordinal j); the boolean verdict has no
/// meaningful partial result, so a stop is always the matching error
/// status.
template <typename Dual>
Result<bool> CheckMaximal(const rel::Instance* instance, const Tuple& tuple,
                          const LsExplanation& candidate,
                          DerivedStores* stores,
                          const exec::ExecContext* exec) {
  LsAnswerCovers* covers = stores->covers();
  std::vector<const ls::Extension*> exts;
  if (!IsDualExplanation<Dual>(instance, tuple, candidate, stores->cache(),
                               covers, &exts)) {
    return false;
  }
  const ValuePool& pool = instance->pool();
  ls::ConceptCacheOverlay& overlay = stores->overlay();
  const std::vector<Value>& adom = instance->ActiveDomain();
  const std::vector<ValueId>& adom_ids = instance->ActiveDomainIds();
  const ls::Extension top_ext = ls::Extension::All();
  ls::SupportKey extended;  // reused candidate-key buffer
  for (size_t j = 0; j < candidate.size(); ++j) {
    if (std::optional<exec::Stop> s = exec::Check(exec, j)) {
      return exec::StopStatus(*s, Dual::kCheck);
    }
    if (exts[j]->all) continue;
    if (Dual::kTopStep && Dual::Holds(covers, exts, j, &top_ext)) {
      return false;
    }
    // t_j ∈ ext(C_j), so the lub supports are ext(C_j) ∪ {b}.
    const ls::SupportKey support = overlay.KeyOfExtension(*exts[j]);
    const ValueId id = pool.Lookup(tuple[j]);
    for (size_t bi = 0; bi < adom.size(); ++bi) {
      if (exts[j]->ContainsId(adom_ids[bi])) continue;
      overlay.Extend(support, adom[bi], adom_ids[bi], &extended);
      WHYNOT_ASSIGN_OR_RETURN(const ls::Extension* cand,
                              overlay.LubExtTransient(extended));
      if (cand->ContainsInterned(id, tuple[j]) &&
          Dual::Holds(covers, exts, j, cand)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_DERIVED_SWEEP_H_
