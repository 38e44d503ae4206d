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

  /// Cap on branch-tree nodes expanded. Every node either reports an MGE
  /// or splits its subspace, and no MGE is reached twice, but there is no
  /// known polynomial-delay bound (the paper leaves that question open):
  /// a node whose output is not maximal unconstrained reports nothing, and
  /// a run can expand many such nodes between two outputs. One random
  /// ternary instance needs 1,041 nodes for 5 MGEs selection-free
  /// (EnumerateRegressionTest); another, with selections, 149,856 nodes
  /// for 96 MGEs.
  size_t max_nodes = 1000000;

  ls::LubOptions lub;

  /// Optional execution control, observed once per branch-tree node as it
  /// is popped, so node ordinals — and hence any injected stop — are
  /// identical for every thread count (the enumeration is serial).
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
  /// Always 0: the branch subspaces are disjoint, and a repeat would
  /// return Status::Internal. Kept for the benchmark probes that read it.
  size_t duplicate_outputs = 0;
  /// Nodes skipped because their exclusion set was already visited.
  /// Always 0: partition branching reaches each node once, so there is no
  /// visited set. Kept for the benchmark probes that read it.
  size_t visited_hits = 0;
  /// Largest number of nodes expanded between two successive new outputs
  /// (the empirical "delay" of the enumeration).
  size_t max_delay = 0;

  // Shared concept-cache traffic attributable to this run (deltas of the
  // cache's cumulative counters); observability only. The served values
  // are identical whatever the cache held before the run.
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
/// independent set, its full support: by Lemmas 5.1/5.2 the set is
/// closed under lub, since adding a constant already inside the lub
/// extension leaves the lub unchanged.
///
/// Partition branching. Each branch-tree node is a subspace (I, F): the
/// maximal sets that contain every element of I and none of F. Exclusion
/// is closure-aware: a set avoids (j, f) when f is outside its lub
/// extension at j, so it also avoids every b whose lub with the current
/// support would absorb f, and ⊤ at j whenever anything at j is excluded.
///  * A deterministic greedy sweep, in fixed (position, constant) order,
///    starts from the nominal-pinned tuple extended by I and accepts
///    (j, b) when the tuple stays an explanation and lub(X_j ∪ {b})
///    holds no excluded constant of position j. Acceptance only makes
///    later checks stricter, so the output O is maximal inside (I, F).
///  * O is reported iff no element of F can be added to it. This decides
///    unconstrained maximality: a b rejected only because its lub holds
///    some f ∈ F, if addable, makes f addable too (f ∈ lub(X ∪ {b})
///    gives lub(X ∪ {f}) ⊆ lub(X ∪ {b})).
///  * For the output's decisions d_1..d_k (accepted additions that grew
///    an extension), child i is (I ∪ {d_1..d_{i-1}}, F ∪ {d_i}).
/// Any maximal set M of (I, F) other than O misses some decision: if M
/// held them all it would contain O's closure, and O is maximal inside
/// the subspace. So M lies in the child of its first missed decision and
/// in no other child. The children partition the node's subspace minus
/// O; every MGE is reached on exactly one root-to-node path and reported
/// once. There is no visited set and no duplicate output.
///
/// The result is an antichain w.r.t. ≤_OI; each element passes CHECK-MGE
/// w.r.t. OI. Ordering is deterministic (FIFO order of the branch tree)
/// and the same at every thread count: the enumeration runs serially.
///
/// `lub_context`, when non-null, is reused (a prepared ExplainSession
/// keeps its lub tables warm across requests); null gets a call-local one
/// built with `options.lub`. The other stores are resolved as for
/// IncrementalSearch (DerivedStores, derived_sweep.h): `concept_cache` is
/// the shared lub/eval cache the run probes and publishes its misses into
/// when it ends; `cache` and `covers` are a prepared session's extension
/// memo and answer-cover table over (wni.instance, wni.answers), so a
/// session's cover rows stay built across its requests. A null store gets
/// a call-local one — except that covers key rows by extension address,
/// so passing `covers` requires passing `cache` and `concept_cache` too
/// (InvalidArgument otherwise). Output, ordering, the deterministic stats
/// and errors are bit-identical either way (cache entries are pure
/// functions of the instance); only timing and the cache_* counters move.
Result<std::vector<LsExplanation>> EnumerateAllMges(
    const WhyNotInstance& wni, const EnumerateOptions& options = {},
    EnumerateStats* stats = nullptr, ls::LubContext* lub_context = nullptr,
    ls::ConceptCache* concept_cache = nullptr, ls::EvalCache* cache = nullptr,
    LsAnswerCovers* covers = nullptr);

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_ENUMERATE_H_
