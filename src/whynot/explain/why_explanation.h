#ifndef WHYNOT_EXPLAIN_WHY_EXPLANATION_H_
#define WHYNOT_EXPLAIN_WHY_EXPLANATION_H_

#include <vector>

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/exhaustive.h"
#include "whynot/explain/explanation.h"
#include "whynot/explain/lattice.h"

namespace whynot::explain {

/// The paper's Section 7 sketches *why* explanations as future work: the
/// dual question "why IS the tuple a in q(I)?" answered at concept level.
/// We realize the natural dual of Definition 3.2: a tuple of concepts
/// (C1, ..., Cm) is a why-explanation for a ∈ q(I) iff
///
///   * aᵢ ∈ ext(Cᵢ, I) for every i, and
///   * ext(C1, I) × ... × ext(Cm, I) ⊆ q(I) — every tuple of the product
///     is an answer ("all European cities reach all European cities").
///
/// Most-general why-explanations are defined exactly as in Definition 3.3;
/// the same antichain machinery applies because only the second condition
/// changed (⊆ Ans instead of ∩ Ans = ∅).
struct WhyInstance {
  const rel::Instance* instance = nullptr;
  std::vector<Tuple> answers;  // q(I), sorted
  Tuple present;               // a ∈ q(I)

  size_t arity() const { return present.size(); }
};

/// Builds a why instance; fails unless `present` ∈ q(I).
Result<WhyInstance> MakeWhyInstance(const rel::Instance* instance,
                                    const rel::UnionQuery& query,
                                    Tuple present);

/// The why-dual's answer rows interned against the bound pool and
/// sort-deduped — the vector the one-shot external why covers index (the
/// counting form needs Ans duplicate-free; a WhyInstance filled by hand
/// may repeat a tuple).
std::vector<std::vector<ValueId>> InternedUniqueAnswers(
    onto::BoundOntology* bound, const std::vector<Tuple>& answers);

/// Checks the dual Definition 3.2 above. `covers`, when non-null, must be
/// an answer-cover table over Ans interned against `bound` with no row
/// repeated — InternedUniqueAnswers(bound, Ans), or a prepared
/// ExplainSession's warm table, which interns its sort-unique Ans
/// (InternAnswers); wi.answers is then not read and results are
/// identical.
Result<bool> IsWhyExplanation(onto::BoundOntology* bound,
                              const WhyInstance& wi, const Explanation& e,
                              ConceptAnswerCovers* covers = nullptr);

/// All most-general why-explanations, by the Algorithm 1 scheme (enumerate
/// candidates per position, keep product-inside-answers tuples, reduce to
/// the maximal antichain). Same complexity envelope as Theorem 5.2, and
/// the same `covers` contract as IsWhyExplanation. The containment
/// condition is ≼-downward closed exactly like avoidance, so the search
/// walks the product exactly as PrunedSearchAllMge does: `options` and
/// `lattice` follow the ExhaustiveOptions and PrunedSearchAllMge
/// contracts, and the frontier path returns the identical antichain. With
/// `options.cert`, a stop returns the deterministic partial antichain
/// (Quality::kLowerBound) instead of an error, and max_candidates becomes
/// a certified budget stop.
Result<std::vector<Explanation>> AllMostGeneralWhyExplanations(
    onto::BoundOntology* bound, const WhyInstance& wi,
    const ExhaustiveOptions& options = {},
    ConceptAnswerCovers* covers = nullptr, LatticeHandle* lattice = nullptr);

// --- Why-explanations w.r.t. the derived ontology OI ----------------------

/// The dual Definition 3.2 against OI: every aᵢ ∈ ⟦Cᵢ⟧ᴵ and the extension
/// product is contained in the answers. A ⊤-valued position always fails
/// (infinite product vs. finite Ans), so — unlike the why-not case — no
/// ⊤-generalization sweep exists.
///
/// The trailing store parameters follow the session convention used
/// throughout this header: `cache` is an extension memo bound to
/// wi.instance, `covers` an LsAnswerCovers over the *sort-deduped* answer
/// vector; each is created per call when null, and results are
/// bit-identical either way. RequireCoverStores (answer_cover.h) says
/// which stores caller-owned covers need. With `covers` given, Ans is read
/// only through them and wi.answers is not read (an ExplainSession leaves
/// it empty); the covers' answer vector must be sorted and
/// duplicate-free. Without, the one-shot path sort-dedups a local copy of
/// wi.answers defensively. A candidate whose arity differs from the
/// present tuple's is InvalidArgument, here and in CheckWhyMgeDerived.
Result<bool> IsLsWhyExplanation(const WhyInstance& wi, const LsExplanation& e,
                                ls::EvalCache* cache = nullptr,
                                LsAnswerCovers* covers = nullptr);

/// Algorithm 2's scheme applied to the dual problem, through the sweep
/// IncrementalSearch runs (GreedySweep in derived_sweep.h): start from the
/// nominal-pinned tuple (whose product is {a} ⊆ Ans) and greedily grow
/// each position's support with active-domain constants while the product
/// stays inside the answers. The "stays inside" condition is
/// downward-closed in the supports, so one sweep in fixed order yields a
/// most-general why-explanation w.r.t. OI (selection-free LS, or full LS
/// with `with_selections`). PTIME for selection-free LS by the Theorem 5.3
/// argument (the product of a why-explanation has at most |Ans| tuples, so
/// every acceptance check is answer-bounded).
///
/// `exec`/`cert` follow the IncrementalOptions contract: probes are
/// per generalization candidate in the fixed sweep order; with `cert` a
/// stop returns the tuple generalized so far — a sound why-explanation,
/// possibly not most general (Quality::kHeuristic).
/// `concept_cache` is the lub/eval memo (session convention: null uses a
/// call-local one, and a null `cache` means its memo; output is
/// bit-identical either way).
Result<LsExplanation> IncrementalWhySearch(
    const WhyInstance& wi, bool with_selections = false,
    ls::LubContext* lub_context = nullptr, ls::EvalCache* cache = nullptr,
    LsAnswerCovers* covers = nullptr,
    ls::ConceptCache* concept_cache = nullptr,
    const exec::ExecContext* exec = nullptr,
    exec::Certificate* cert = nullptr);

/// CHECK-MGE for the dual problem w.r.t. OI: no single-position
/// lub-generalization keeps the product inside the answers. The check is
/// serial and shared with CheckMgeDerived (CheckMaximal in
/// derived_sweep.h). Same trailing store convention as
/// IncrementalWhySearch, and a null `lub_context` replaced by a call-local
/// one. `exec` is observed once per candidate position; the boolean
/// verdict admits no meaningful partial result, so a stop always returns
/// the matching error status.
Result<bool> CheckWhyMgeDerived(const WhyInstance& wi,
                                const LsExplanation& candidate,
                                bool with_selections,
                                ls::LubContext* lub_context,
                                ls::EvalCache* cache = nullptr,
                                LsAnswerCovers* covers = nullptr,
                                ls::ConceptCache* concept_cache = nullptr,
                                const exec::ExecContext* exec = nullptr);

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_WHY_EXPLANATION_H_
