#ifndef WHYNOT_EXPLAIN_INCREMENTAL_H_
#define WHYNOT_EXPLAIN_INCREMENTAL_H_

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/explanation.h"

namespace whynot::explain {

struct IncrementalOptions {
  /// false: Algorithm 2 with selection-free lub (Lemma 5.1, Theorem 5.3 —
  /// PTIME). true: INCREMENTAL SEARCH WITH SELECTIONS using lubσ
  /// (Lemma 5.2, Theorem 5.4 — EXPTIME, PTIME for bounded schema arity).
  bool with_selections = false;

  ls::LubOptions lub;

  /// Optional execution control, observed once per generalization
  /// candidate (position, constant) in the fixed sweep order, then once
  /// per position's ⊤ step — the search is serial, so probe ordinals are
  /// trivially deterministic.
  const exec::ExecContext* exec = nullptr;

  /// When non-null, a stop returns OK with the tuple generalized so far —
  /// always a sound explanation (the nominal-pinned tuple is one and every
  /// accepted swap preserves that), but possibly not most general
  /// (Quality::kHeuristic) — and the certificate records the cut. When
  /// null, stops return the matching error status.
  exec::Certificate* cert = nullptr;
};

/// Algorithm 2 (INCREMENTAL SEARCH): computes one most-general explanation
/// for the why-not instance w.r.t. the instance-derived ontology OI
/// (Section 5.2). Starts from the tuple of lub({a_j}) (the nominal-pinned,
/// most specific explanation, which always exists) and greedily grows each
/// position's support set by active-domain constants while the tuple
/// remains an explanation. The paper's pseudocode only generalizes over
/// adom(I); a final step then tries ⊤ at each position, which is strictly
/// more general than any finite extension, so the output is most general
/// w.r.t. the full language LS, which contains ⊤ (Definition 3.3). The
/// sweep is the one shared with the why dual (derived_sweep.h).
///
/// The trailing stores are a prepared ExplainSession's (or a benchmark's)
/// warm state over (wni.instance, wni.answers): `lub_context` (a null one
/// is built with `options.lub`), the extension memo `cache`, the answer
/// covers and the lub/eval memo `concept_cache`, which records every lub
/// the sweep computes. Each null store gets a per-call local, with
/// bit-identical results; RequireCoverStores (answer_cover.h) says which
/// stores caller-owned covers need.
Result<LsExplanation> IncrementalSearch(
    const WhyNotInstance& wni, const IncrementalOptions& options = {},
    ls::LubContext* lub_context = nullptr, ls::EvalCache* cache = nullptr,
    LsAnswerCovers* covers = nullptr,
    ls::ConceptCache* concept_cache = nullptr);

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_INCREMENTAL_H_
