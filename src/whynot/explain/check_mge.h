#ifndef WHYNOT_EXPLAIN_CHECK_MGE_H_
#define WHYNOT_EXPLAIN_CHECK_MGE_H_

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/explanation.h"

namespace whynot::explain {

/// CHECK-MGE (Definition 5.3, Theorem 5.1.1, PTIME): is the candidate a
/// most-general explanation w.r.t. the bound finite ontology?
///
/// Method (as in the paper): first check it is an explanation; then, for
/// each position, try every strictly-more-general replacement concept — if
/// any replacement keeps the tuple an explanation, the candidate is not
/// most general. Single-position replacement is complete because a
/// pointwise-greater explanation stays an explanation when all other
/// positions are shrunk back.
/// `covers`, when non-null, must be the answer-cover table of
/// (bound, InternAnswers(bound, wni)) — a prepared ExplainSession's warm
/// table; results are identical either way. The check is serial. `exec`
/// is observed once per candidate position; the boolean verdict admits no
/// meaningful partial result, so a stop always returns the matching error
/// status.
Result<bool> CheckMgeExternal(onto::BoundOntology* bound,
                              const WhyNotInstance& wni,
                              const Explanation& candidate,
                              ConceptAnswerCovers* covers = nullptr,
                              const exec::ExecContext* exec = nullptr);

/// CHECK-MGE W.R.T. OI (Definition 5.7, Proposition 5.2): is the candidate
/// LS-explanation most general w.r.t. the instance-derived ontology OI?
///
/// Method (lines 4-11 of Algorithm 2 in reverse): for each position j and
/// each constant b ∈ adom(I) \ ext(Cj), replace Cj with
/// lub(ext(Cj,I) ∪ {b}); the candidate is an MGE iff no replacement (and no
/// generalization to ⊤) keeps the tuple an explanation. PTIME for
/// selection-free LS and for bounded schema arity, EXPTIME in general.
/// The check is serial and shared with the why dual (CheckMaximal in
/// derived_sweep.h).
/// The stores follow IncrementalSearch: a prepared session's warm state
/// over (wni.instance, wni.answers), with `concept_cache` the lub/eval
/// memo the maximality probes run through. Each null store gets a per-call
/// local, with identical verdicts and errors; RequireCoverStores
/// (answer_cover.h) says which stores caller-owned covers need.
/// `exec` follows the CheckMgeExternal contract (one probe per position,
/// stops are always errors). A candidate whose arity differs from the
/// missing tuple's is InvalidArgument, as in CheckMgeExternal.
Result<bool> CheckMgeDerived(const WhyNotInstance& wni,
                             const LsExplanation& candidate,
                             bool with_selections,
                             ls::LubContext* lub_context,
                             ls::EvalCache* cache = nullptr,
                             LsAnswerCovers* covers = nullptr,
                             ls::ConceptCache* concept_cache = nullptr,
                             const exec::ExecContext* exec = nullptr);

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_CHECK_MGE_H_
