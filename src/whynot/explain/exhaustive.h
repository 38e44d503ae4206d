#ifndef WHYNOT_EXPLAIN_EXHAUSTIVE_H_
#define WHYNOT_EXPLAIN_EXHAUSTIVE_H_

#include <vector>

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/explain/explanation.h"
#include "whynot/explain/lattice.h"

namespace whynot::explain {

struct ExhaustiveOptions {
  /// Cap on candidate tuples enumerated (the candidate space is
  /// |C(a_1)| × ... × |C(a_m)|, exponential in the query arity —
  /// Theorem 5.2). Under the frontier strategy the cap budgets products
  /// actually *tested* — dominance-skipped downsets are free — which is
  /// what lets the same default serve products orders of magnitude
  /// larger.
  size_t max_candidates = 20000000;
  /// Odometer vs dominance-pruned frontier (see SearchStrategy). The
  /// default escalates to the frontier exactly when the odometer would
  /// return ResourceExhausted and the binding is consistent, so
  /// in-budget behavior is unchanged.
  SearchStrategy strategy = SearchStrategy::kAuto;
  /// When non-null, frontier enumerations accumulate pruning counters
  /// here (left untouched on the odometer path).
  PruneStats* prune_stats = nullptr;
  /// Optional execution control (deadline / cancellation / fault
  /// injection), observed only at serial merge points so interrupted
  /// output stays bit-identical at every thread count. Null = none.
  const exec::ExecContext* exec = nullptr;
  /// When non-null, a stop (deadline / cancellation / budget) returns OK
  /// with the deterministic partial prefix covered so far and fills this
  /// certificate (Quality::kLowerBound: every returned tuple is a genuine
  /// explanation, maximality only certified up to the covered prefix).
  /// When null, stops return the matching error status and budget
  /// exhaustion keeps its historical ResourceExhausted report.
  exec::Certificate* cert = nullptr;
};

/// Algorithm 1 (EXHAUSTIVE SEARCH): computes the set of *all* most-general
/// explanations for the why-not instance w.r.t. the bound finite ontology.
/// Runs in EXPTIME in general and PTIME for fixed query arity
/// (Theorem 5.2). The result is an antichain under ≤_O containing, modulo
/// equivalence, every most-general explanation — the first of each class
/// in the serial odometer's order; explanations are returned in
/// lexicographic concept-id order. Lines 3-5 of Algorithm 1 (drop every
/// explanation strictly below another) run incrementally: the maximal
/// antichain is maintained while enumerating, and candidates already
/// dominated are skipped.
///
/// `covers`, when non-null, must be the answer-cover table of
/// (bound, InternAnswers(bound, wni)); a prepared ExplainSession passes
/// its warm table so repeated requests skip the per-call cover rebuild.
/// Results are identical either way (covers are a pure function of the
/// bound extensions and the answer set). `lattice`, when non-null, is a
/// (possibly still unbuilt) LatticeHandle over the same binding, consulted
/// only when the strategy resolves to the frontier path; results are
/// identical to a locally built lattice.
Result<std::vector<Explanation>> PrunedSearchAllMge(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExhaustiveOptions& options = {},
    ConceptAnswerCovers* covers = nullptr, LatticeHandle* lattice = nullptr);

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_EXHAUSTIVE_H_
