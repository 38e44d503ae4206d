#ifndef WHYNOT_EXPLAIN_ENUMERATE_H_
#define WHYNOT_EXPLAIN_ENUMERATE_H_

#include <cstddef>
#include <vector>

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/concepts/concept_cache.h"
#include "whynot/concepts/lub.h"
#include "whynot/explain/explanation.h"

namespace whynot::explain {

struct EnumerateOptions {
  /// false: enumerate over selection-free LS (the fragment for which the
  /// paper's Section 7 poses the polynomial-delay enumeration question).
  /// true: enumerate over full LS via lubσ (Lemma 5.2).
  bool with_selections = false;

  /// Stop after this many distinct most-general explanations.
  size_t max_results = 100000;

  /// Cap on branch-tree nodes expanded (the enumeration is output-
  /// sensitive in practice but has no known polynomial-delay bound; the
  /// paper leaves that question open).
  size_t max_nodes = 1000000;

  ls::LubOptions lub;

  /// Optional execution control, observed once per branch-tree node at the
  /// serial consumption point (queue pop / wave merge), so node ordinals —
  /// and hence any injected stop — are identical for every thread count.
  const exec::ExecContext* exec = nullptr;

  /// When non-null, a stop (deadline, cancellation, or the max_nodes /
  /// max_results budgets) returns OK with the MGEs reported so far — every
  /// one a verified most-general explanation, but possibly not all of them
  /// (Quality::kLowerBound) — and the certificate records where the
  /// enumeration was cut. When null, deadline/cancellation return the
  /// matching error status and max_nodes keeps its historical
  /// ResourceExhausted.
  exec::Certificate* cert = nullptr;
};

/// Counters exposed for the enumeration benchmarks (delay behaviour).
struct EnumerateStats {
  /// Branch-tree nodes whose greedy completion was computed.
  size_t nodes_expanded = 0;
  /// Nodes whose greedy completion duplicated an already-reported MGE.
  size_t duplicate_outputs = 0;
  /// Nodes skipped because their exclusion set was already visited.
  size_t visited_hits = 0;
  /// Largest number of nodes expanded between two successive new outputs
  /// (the empirical "delay" of the enumeration).
  size_t max_delay = 0;

  // Shared concept-cache traffic attributable to this run (deltas of the
  // cache's cumulative counters). Unlike the fields above, these are
  // observability only and NOT thread-invariant: which lookups land on the
  // published tier versus a worker-local overlay depends on the wave
  // structure. The served values are identical everywhere.
  size_t cache_shared_hits = 0;
  size_t cache_local_hits = 0;
  size_t cache_misses = 0;
  size_t cache_publishes = 0;
  size_t cache_evictions = 0;
};

/// Enumerates *all* most-general explanations for the why-not instance
/// w.r.t. the instance-derived ontology OI, modulo equivalence ≡_OI
/// (Section 7 poses this as an open problem for selection-free LS; this is
/// a correct — but not provably polynomial-delay — solution).
///
/// Method. Being an explanation is monotone-decreasing in the per-position
/// support sets: growing a support set grows the lub extension and hence
/// the product, so explanations form an independence system over the
/// ground set {(position j, b) | b ∈ adom(I)} ∪ {(position j, ⊤)}. Every
/// most-general explanation corresponds to exactly one *maximal*
/// independent set (its full support: by Lemmas 5.1/5.2, adding a constant
/// already inside the lub extension leaves the lub unchanged). Maximal
/// independent sets are enumerated by deterministic greedy completion with
/// exclusion-set branching (Lawler-style): report greedy(∅); for each
/// reported set E and each ground element e ∈ E, branch on excluding e.
/// For any maximal M, greedy(ground ∖ M) = M and each branching step can
/// stay inside ground ∖ M, so every MGE is reached; a visited-set on
/// exclusion sets and result deduplication bound re-exploration.
///
/// The result is an antichain w.r.t. ≤_OI; each element passes CHECK-MGE
/// w.r.t. OI. Ordering is deterministic (discovery order of the
/// deterministic branching).
///
/// `lub_context`, when non-null, is reused for the serial evaluator
/// (a prepared ExplainSession keeps its canonical boxes warm across
/// requests; with more than one pool thread the wave workers still build
/// their own contexts, as in the one-shot call). Results, ordering, and
/// stats are bit-identical either way.
///
/// `concept_cache`, when non-null, is the shared lub/eval cache: node
/// evaluators (serial and per-worker alike) probe its published tier
/// during waves and publish their misses at the wave-end serial point, so
/// lubs computed by one worker are shared by all workers of later waves —
/// and, when the cache belongs to an ExplainSession, by later requests.
/// Null runs against a run-local cache. Either way the output, the
/// deterministic stats, and errors are bit-identical (cache entries are
/// pure functions of the instance).
Result<std::vector<LsExplanation>> EnumerateAllMges(
    const WhyNotInstance& wni, const EnumerateOptions& options = {},
    EnumerateStats* stats = nullptr, ls::LubContext* lub_context = nullptr,
    ls::ConceptCache* concept_cache = nullptr);

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_ENUMERATE_H_
