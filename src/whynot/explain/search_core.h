#ifndef WHYNOT_EXPLAIN_SEARCH_CORE_H_
#define WHYNOT_EXPLAIN_SEARCH_CORE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "whynot/common/dense_bitmap.h"
#include "whynot/common/exec_control.h"
#include "whynot/common/parallel.h"
#include "whynot/common/status.h"
#include "whynot/explain/answer_cover.h"
#include "whynot/explain/candidate_space.h"
#include "whynot/explain/exhaustive.h"
#include "whynot/explain/lattice.h"
#include "whynot/ontology/ontology.h"

namespace whynot::explain {

/// The shared search core of every explain entry point. Each of the
/// paper's algorithms bottoms out in the same pieces of scaffolding, which
/// live exactly once here:
///
///  * ProductSearch — the one driver of the candidate-product searches
///    (Algorithm 1, exact cardinality, the why antichain): strategy,
///    budget, stats and certificate around the two walks below;
///  * ParallelFilterSpace — the odometer walk; with more than one pool
///    thread it is the chunked candidate-product shard with range-ordered
///    survivor replay, the engine's one pooled path;
///  * LatticeFilterSpace — the serial dominance-pruned frontier walk;
///  * CoverTable — pre-resolved cover pointers aligned with per-position
///    candidate lists, plus the extension metadata the counting
///    (containment) form needs;
///  * GreedyAndCache — the prefix/suffix running-AND probe cache of the
///    greedy sweeps (EnumerateAllMges' completion and maximality tests).
///
/// The odometer shard computes pure index-addressed results and replays
/// stateful consumption serially in index order, so outputs are
/// bit-identical for every thread count; everything else here is serial.

/// Candidates filtered in one parallel round before their survivors are
/// consumed serially; bounds the survivor buffer without a sync per block.
inline constexpr size_t kFilterChunk = 1 << 16;
/// Minimum indices per parallel block inside a chunk.
inline constexpr size_t kFilterGrain = 1024;

/// Enumerates the candidate space in the serial odometer's order, calling
/// `pred` on every position and `consume` on every position where `pred`
/// returned true. `consume` returns false to stop the whole enumeration.
///
/// `pred` must be a pure function of the odometer position over read-only
/// shared state (with more than one pool thread it runs sharded across
/// linear candidate ranges); `consume` always runs serially, in exactly
/// the order a serial odometer loop would reach the survivors, one
/// bounded chunk at a time. The `idx` passed to both aliases internal
/// scratch — copy it to keep it.
///
/// Spaces whose product overflows SIZE_MAX (CandidateSpace::overflow) are
/// enumerated by prefix-chunked odometer iteration — block starts come
/// from advancing a master odometer rather than decoding linear indices —
/// so enumeration stays exact at any width; callers that budget by
/// total() must check overflow() themselves before calling.
///
/// `serial_skip` (NoSerialSkip for none) is a *stateful* pre-filter applied
/// before `pred` on the serial path only: return true to skip a
/// candidate without paying for `pred`. It may read state that `consume`
/// mutates (the why antichain's domination check), which is exactly why
/// the parallel path must ignore it — there `consume` has to reject such
/// survivors itself, so a skipped candidate never changes the output,
/// only the serial work profile.
///
/// A template rather than std::function plumbing: the serial loop runs
/// per candidate and several entry points sit in sub-microsecond
/// benchmark territory, where per-call indirection is measurable.
///
/// Execution control (`exec` may be null): the serial path probes
/// exec::Check at every candidate ordinal; the parallel path probes at
/// chunk starts, before every survivor consume, and — because a trigger
/// can land on a non-survivor ordinal — once more at the chunk's last
/// ordinal after the survivor replay, so it stops inside exactly the
/// chunks whose ordinal range the serial loop would have stopped in.
/// Workers poll ShouldAbandon at block starts (an abandoned chunk is
/// discarded whole, never merged). Under fault injection with trigger N
/// the consumed prefix is therefore exactly the survivors with ordinal
/// < N on both paths — bit-identical at every thread count. `budget` is an ordinal
/// cap checked at the same points (a kBudget stop at exactly `budget`,
/// thread-count-invariant); pass SIZE_MAX for none. On a stop: when
/// `stop` is null the enumeration returns the matching error status;
/// when non-null it records the Stop there and returns OK with the
/// prefix already consumed (`stop->reason == kNone` means it ran to
/// completion).
template <typename Pred, typename Consume, typename SerialSkip>
Status ParallelFilterSpace(const CandidateSpace& space,
                           const exec::ExecContext* exec, exec::Stop* stop,
                           size_t budget, Pred&& pred, Consume&& consume,
                           SerialSkip&& serial_skip) {
  if (stop != nullptr) *stop = exec::Stop{};
  if (!space.overflow() && space.total() == 0) return Status::OK();

  auto halt = [&](const exec::Stop& s) {
    if (stop != nullptr) {
      *stop = s;
      return Status::OK();
    }
    return exec::StopStatus(s, "candidate enumeration");
  };
  auto check_at = [&](size_t ordinal) -> std::optional<exec::Stop> {
    if (ordinal >= budget) {
      return exec::Stop{exec::StopReason::kBudget, budget};
    }
    return exec::Check(exec, ordinal);
  };

  if (par::NumThreads() <= 1) {
    std::vector<size_t> idx(space.arity(), 0);
    size_t ordinal = 0;
    for (;;) {
      if (std::optional<exec::Stop> s = check_at(ordinal)) {
        return halt(*s);
      }
      if (!serial_skip(idx) && pred(idx) && !consume(idx)) {
        return Status::OK();
      }
      ++ordinal;
      if (!space.Advance(&idx)) return Status::OK();
    }
  }

  // Chunked shard with range-ordered survivor replay. Block starts are
  // odometer positions advanced from the chunk start (AdvanceBy), never
  // decoded linear indices, so the same loop serves overflowing spaces;
  // survivors are recorded as offsets within the chunk and replayed by a
  // serial cursor odometer — exactly the serial enumeration order.
  std::vector<size_t> chunk_start(space.arity(), 0);
  size_t chunk_base = 0;  // serial ordinal of chunk_start
  size_t remaining = space.RemainingFrom(chunk_start);
  std::vector<std::pair<size_t, std::vector<uint32_t>>> blocks;
  std::mutex mutex;
  std::vector<size_t> cursor_idx;
  while (remaining > 0) {
    if (std::optional<exec::Stop> s = check_at(chunk_base)) {
      return halt(*s);
    }
    size_t chunk_len = std::min(remaining, kFilterChunk);
    blocks.clear();
    std::atomic<bool> abandon{false};
    par::ParallelFor(
        chunk_len, kFilterGrain, &abandon, [&](size_t begin, size_t end) {
          if (exec::ShouldAbandon(exec)) {
            abandon.store(true, std::memory_order_relaxed);
            return;
          }
          std::vector<uint32_t> survivors;
          std::vector<size_t> idx = chunk_start;
          space.AdvanceBy(&idx, begin);
          for (size_t off = begin; off < end; ++off) {
            if (pred(idx)) survivors.push_back(static_cast<uint32_t>(off));
            space.Advance(&idx);
          }
          if (!survivors.empty()) {
            std::lock_guard<std::mutex> lock(mutex);
            blocks.emplace_back(begin, std::move(survivors));
          }
        });
    if (abandon.load(std::memory_order_relaxed)) {
      // Real cancel/deadline seen by a worker: the chunk is incomplete,
      // so none of it is merged — the consumed prefix ends at the last
      // full chunk, and both abandon conditions are monotone so the
      // resolving poll is engaged.
      exec::Stop s = exec->PollNow(chunk_base).value_or(
          exec::Stop{exec::StopReason::kCancelled, chunk_base});
      return halt(s);
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    cursor_idx = chunk_start;
    size_t cursor = 0;
    for (const auto& [begin, survivors] : blocks) {
      for (uint32_t off : survivors) {
        if (std::optional<exec::Stop> s = check_at(chunk_base + off)) {
          return halt(*s);
        }
        space.AdvanceBy(&cursor_idx, off - cursor);
        cursor = off;
        if (!consume(cursor_idx)) return Status::OK();
      }
    }
    // The serial reference probes every candidate ordinal, so a trigger
    // (or budget) landing on a *non-survivor* ordinal of this chunk must
    // stop here too: probe the chunk's last ordinal once its survivors
    // are merged. Injected stops report at = trigger and budget stops
    // at = budget, both thread-count-invariant.
    if (std::optional<exec::Stop> s = check_at(chunk_base + chunk_len - 1)) {
      return halt(*s);
    }
    if (chunk_len == remaining && remaining != SIZE_MAX) break;
    space.AdvanceBy(&chunk_start, chunk_len);
    chunk_base += chunk_len;
    remaining = remaining == SIZE_MAX ? space.RemainingFrom(chunk_start)
                                      : remaining - chunk_len;
  }
  return Status::OK();
}

/// The serial skip that skips nothing.
struct NoSerialSkip {
  bool operator()(const std::vector<size_t>&) const { return false; }
};

template <typename Pred, typename Consume>
Status ParallelFilterSpace(const CandidateSpace& space, Pred&& pred,
                           Consume&& consume) {
  return ParallelFilterSpace(space, nullptr, nullptr, SIZE_MAX,
                             std::forward<Pred>(pred),
                             std::forward<Consume>(consume), NoSerialSkip{});
}

/// Hooks of the dominance-pruned frontier enumeration. `pred` and
/// `consume` have the ParallelFilterSpace contract (pure predicate,
/// consumption in the serial odometer's order); the optional pair exists
/// for the branch-and-bound form of the cardinality search:
///  * `on_pass(idx)` runs in deterministic wave-merge order, on
///    every candidate the predicate admitted — including ones a kept
///    survivor later dominates — so callers can maintain a running bound
///    over *passing* products;
///  * `expand(idx)` runs on every failing candidate; returning false
///    prunes its entire downset without generating children. Sound only
///    when whatever the caller optimizes is monotone along ≼ (a subtree
///    of a failing product can never beat a bound its root cannot).
///
/// std::function rather than templates: these run once per *frontier
/// node*, not once per raw candidate, and the enumerator's out-of-line
/// implementation keeps this header light.
struct LatticeFrontierHooks {
  std::function<bool(const std::vector<size_t>&)> pred;
  std::function<bool(const std::vector<size_t>&)> consume;
  std::function<void(const std::vector<size_t>&)> on_pass;
  std::function<bool(const std::vector<size_t>&)> expand;
};

/// The dominance-pruned counterpart of ParallelFilterSpace: walks the
/// candidate product most-general-first along the effective order ≼ of
/// `lattice`, one frontier wave at a time. Candidates whose predicate
/// holds (the answer-cover AND came up empty — the tuple IS an
/// explanation, or the why dual's containment holds) are collected into a
/// ≼-maximal antichain and their downsets are never generated — sound
/// because extensions shrink monotonically along ≼, so both conditions
/// are downward closed. Candidates that fail are expanded one
/// componentwise cover-step at a time, which reaches every maximal
/// passing product (failure propagates upward along any cover chain).
///
/// Output protocol: the walk is serial at every thread count. Each wave
/// is tested, merged into the antichain and expanded in linearization
/// order; the surviving antichain is replayed through `consume` in
/// linearization order (LinearOrderLess) at the end. On a consistent
/// binding ≼ equals ⊑ and the consumed sequence is bit-identical to what
/// ParallelFilterSpace feeds the same consume.
///
/// `max_tested` budgets predicate evaluations (the lattice counterpart of
/// the odometer's raw-product budget); exceeding it returns
/// ResourceExhausted. Counters accumulate into `stats` when non-null.
///
/// Execution control (`exec` may be null): checked at wave starts with
/// probe = products_enumerated so far. When `stop` is null a stop returns
/// the matching error (budget exhaustion keeps its historical
/// ResourceExhausted, with no consume and no stats — exactly the
/// pre-control behavior); when non-null the *current* ≼-maximal
/// antichain is replayed through `consume` as a sound partial prefix,
/// stats accumulate, the Stop (budget included, as kBudget) is recorded,
/// and the call returns OK.
Status LatticeFilterSpace(const CandidateSpace& space,
                          const ConceptLattice& lattice,
                          const std::vector<std::vector<onto::ConceptId>>& lists,
                          size_t max_tested,
                          const LatticeFrontierHooks& hooks,
                          PruneStats* stats,
                          const exec::ExecContext* exec = nullptr,
                          exec::Stop* stop = nullptr);

/// C(a_1), ..., C(a_m) for the tuple `values`: per position, the concepts
/// whose extension contains that position's value (line 1 of Algorithm
/// 1), in concept-id order. Stops at the first empty list — the product
/// is then empty — leaving the later lists empty too.
std::vector<std::vector<onto::ConceptId>> CandidateLists(
    onto::BoundOntology* bound, const Tuple& values);

/// Whether some kept explanation is at least as general as `e` (≤_O).
bool DominatedByAny(const onto::BoundOntology& bound, const Explanation& e,
                    const std::vector<Explanation>& antichain);

/// Lines 3-5 of Algorithm 1, run incrementally over the candidates as
/// they arrive: keeps `e` unless DominatedByAny, and drops the kept
/// explanations `e` strictly exceeds. The antichain stays ≤_O-maximal
/// with the first arrival of each equivalence class.
void KeepMaximal(const onto::BoundOntology& bound, const Explanation& e,
                 std::vector<Explanation>* antichain);

/// The one driver of the searches that walk the candidate product
/// C(a_1) × ... × C(a_m) of an external ontology: Algorithm 1
/// (PrunedSearchAllMge), the Section 6 >card-maximal search
/// (ExactCardMaximal) and the Section 7 why dual
/// (AllMostGeneralWhyExplanations). They differ only in the predicate
/// applied to each product and in what they keep; the rest lives here:
///  * the CandidateSpace and the resolution of options.strategy
///    (ChooseStrategy): the frontier (LatticeFilterSpace) or the odometer
///    (ParallelFilterSpace);
///  * the pre-emptive ResourceExhausted when the odometer would pass
///    max_candidates and no certificate was asked for — with one, the
///    budget becomes a certified kBudget stop at ordinal max_candidates;
///  * the frontier's PruneStats, accumulated into options.prune_stats;
///  * the certificate's Progress: `tested` products, and `remaining` the
///    untested rest of the raw product, saturated at SIZE_MAX when the
///    product overflows a word (on either walk).
///
/// Use: construct over the lists (which must outlive the search); unless
/// empty(), build what the hooks need — knowing frontier() — and Run
/// them; then Certify with the search's best_so_far.
class ProductSearch {
 public:
  ProductSearch(const std::vector<std::vector<onto::ConceptId>>& lists,
                const ExhaustiveOptions& options, onto::BoundOntology* bound,
                LatticeHandle* lattice)
      : lists_(lists), options_(options), space_(lists) {
    if (!empty()) {
      choice_ = ChooseStrategy(options.strategy, space_,
                               options.max_candidates, bound, lattice,
                               &local_lattice_);
    }
  }

  /// Some C(a_i) is empty (or the arity is 0): there is no product, Run
  /// consumes nothing and the strategy is left unresolved.
  bool empty() const { return !space_.overflow() && space_.total() == 0; }
  /// The dominance-pruned frontier, not the odometer, walks the product.
  bool frontier() const { return choice_.use_lattice; }
  const CandidateSpace& space() const { return space_; }

  /// Walks the product. `pred`, `consume` and `serial_skip` follow the
  /// ParallelFilterSpace contract (the frontier ignores `serial_skip`);
  /// `on_pass` and `expand` are the frontier's optional branch-and-bound
  /// hooks (LatticeFrontierHooks). `exhausted` is the message of the
  /// pre-emptive ResourceExhausted.
  template <typename Pred, typename Consume,
            typename SerialSkip = NoSerialSkip>
  Status Run(const char* exhausted, Pred&& pred, Consume&& consume,
             SerialSkip&& serial_skip = SerialSkip(),
             std::function<void(const std::vector<size_t>&)> on_pass = {},
             std::function<bool(const std::vector<size_t>&)> expand = {}) {
    if (empty()) return Status::OK();
    const bool certified = options_.cert != nullptr;
    exec::Stop* stop = certified ? &stop_ : nullptr;
    const bool overflow = space_.overflow();
    if (frontier()) {
      LatticeFrontierHooks hooks;
      hooks.pred = pred;
      hooks.consume = consume;
      hooks.on_pass = std::move(on_pass);
      hooks.expand = std::move(expand);
      PruneStats ps;
      Status st =
          LatticeFilterSpace(space_, *choice_.lattice, lists_,
                             options_.max_candidates, hooks, &ps,
                             options_.exec, stop);
      if (options_.prune_stats != nullptr) {
        AccumulatePruneStats(options_.prune_stats, ps);
      }
      progress_.tested = ps.products_enumerated;
      progress_.remaining = ps.products_skipped;
      return st;
    }
    if (!certified && (overflow || space_.total() > options_.max_candidates)) {
      return Status::ResourceExhausted(exhausted);
    }
    Status st = ParallelFilterSpace(
        space_, options_.exec, stop,
        certified ? options_.max_candidates : SIZE_MAX,
        std::forward<Pred>(pred), std::forward<Consume>(consume),
        std::forward<SerialSkip>(serial_skip));
    size_t total = overflow ? SIZE_MAX : space_.total();
    progress_.tested = stop_.reason != exec::StopReason::kNone ? stop_.at
                                                                : total;
    progress_.remaining =
        overflow ? SIZE_MAX : total - std::min(progress_.tested, total);
    return st;
  }

  /// Fills options.cert (when set) from the walk's stop and progress.
  void Certify(size_t best_so_far) const {
    exec::FillCertificate(options_.cert, stop_, progress_, best_so_far);
  }

 private:
  const std::vector<std::vector<onto::ConceptId>>& lists_;
  ExhaustiveOptions options_;
  CandidateSpace space_;
  std::unique_ptr<LatticeHandle> local_lattice_;
  LatticeChoice choice_;
  exec::Stop stop_;
  exec::Progress progress_;
};

/// Pre-resolved cover-pointer table aligned with the per-position
/// candidate lists of an enumeration, so the per-candidate product test
/// is one m-way word AND with no cover lookups. Optionally carries the
/// per-candidate extension sizes the counting (containment) form needs
/// (ResolveSizes), turning the why-explanation "product ⊆ Ans" predicate
/// into table-local arithmetic plus one popcount AND.
///
/// Resolution happens at construction (covers build lazily); the resolved
/// table is immutable and safe to probe from the odometer's pool workers.
class CoverTable {
 public:
  CoverTable(ConceptAnswerCovers* covers,
             const std::vector<std::vector<onto::ConceptId>>& lists);

  /// Resolves |ext| / is-All metadata for every candidate (the counting
  /// form's pre-checks). Must be called before ProductInsideAt.
  void ResolveSizes(onto::BoundOntology* bound,
                    const std::vector<std::vector<onto::ConceptId>>& lists);

  size_t num_answers() const { return num_answers_; }

  /// ⋀_i Cover(lists[i][idx[i]], i) ≠ 0: the candidate product intersects
  /// Ans (the avoidance test of Definition 3.2, negated).
  bool ProductAnyAt(const std::vector<size_t>& idx) const {
    if (num_answers_ == 0) return false;
    return ConceptAnswerCovers::ProductAny(
        table_.size(), nwords_, [&](size_t i) { return table_[i][idx[i]]; });
  }

  /// popcount(⋀_i Cover(lists[i][idx[i]], i)).
  size_t ProductCountAt(const std::vector<size_t>& idx) const {
    if (num_answers_ == 0) return 0;
    return ConceptAnswerCovers::ProductCount(
        table_.size(), nwords_, [&](size_t i) { return table_[i][idx[i]]; });
  }

  /// The why-dual containment test, ext product ⊆ Ans
  /// (ConceptAnswerCovers::ProductInside over the pre-resolved metadata).
  /// Requires ResolveSizes.
  bool ProductInsideAt(const std::vector<size_t>& idx) const {
    return ConceptAnswerCovers::ProductInside(
        table_.size(), num_answers_,
        [&](size_t i) {
          return ExtSize{is_all_[i][idx[i]] != 0, sizes_[i][idx[i]]};
        },
        [&] { return ProductCountAt(idx); });
  }

  /// Degree ingredients of the candidate at idx — whether any position's
  /// extension is All and the sum of the finite |ext|s (Section 6's
  /// cardinality preference). Requires ResolveSizes; equals DegreeOf over
  /// the decoded candidate, without per-position extension lookups, so
  /// the serial survivor replay stays cheap even when the avoidance
  /// filter rejects nothing.
  void DegreeAt(const std::vector<size_t>& idx, bool* any_all,
                size_t* finite_sum) const {
    *any_all = false;
    *finite_sum = 0;
    for (size_t i = 0; i < table_.size(); ++i) {
      if (is_all_[i][idx[i]]) *any_all = true;
      *finite_sum += sizes_[i][idx[i]];  // 0 for All positions
    }
  }

 private:
  size_t num_answers_;
  size_t nwords_;
  std::vector<std::vector<const uint64_t*>> table_;
  std::vector<std::vector<size_t>> sizes_;    // |ext|, 0 for All
  std::vector<std::vector<uint8_t>> is_all_;  // empty until ResolveSizes
};

/// Prefix/suffix running-AND cache for single-position probe sweeps over
/// cover bitmaps: within a sweep the product check "replace position j's
/// cover, AND with all the others" has a loop-invariant rest — the AND of
/// the *current* covers below j and the *initial* covers above j. Reset
/// snapshots the suffix ANDs; Rest(j) lazily folds positions the sweep
/// has passed into the prefix (reading their covers through `cover_at`,
/// which by then returns the sweep's final cover) and returns prefix ∧
/// suffix[j], so each candidate probe collapses from an m-way cover AND
/// to a single AND against the cached rest words. Serves both greedy
/// completion (covers change as positions are accepted) and the
/// maximality test (covers fixed); j must be non-decreasing between
/// Resets.
///
/// `cover_at` is passed to both calls rather than stored: the cache
/// object outlives any one sweep (NodeEvaluator keeps one across all
/// branch-tree nodes), and a stored callback would silently dangle into
/// the previous sweep's stack state. `cover_at(k)` returns raw cover words
/// (`const uint64_t*`).
class GreedyAndCache {
 public:
  /// Rebinds to a sweep over `m` positions of `nwords`-word covers.
  /// `full` (the all-answers-alive words) must outlive the sweep;
  /// `cover_at(k)` must return position k's *current* cover.
  template <typename CoverAt>
  void Reset(size_t m, size_t nwords, const uint64_t* full,
             CoverAt cover_at) {
    nwords_ = nwords;
    absorbed_ = 0;
    rest_j_ = SIZE_MAX;
    prefix_.assign(full, full + nwords);
    suffix_.resize(m);
    if (m == 0) return;
    suffix_[m - 1].assign(full, full + nwords);
    for (size_t j = m - 1; j > 0; --j) {
      suffix_[j - 1] = suffix_[j];
      DenseBitmap::AndWordsInPlace(suffix_[j - 1].data(), cover_at(j),
                                   nwords_);
    }
  }

  /// The loop-invariant probe words at position j; `cover_at` must be
  /// the same view of the sweep's current covers that Reset received.
  template <typename CoverAt>
  const std::vector<uint64_t>& Rest(size_t j, CoverAt cover_at) {
    while (absorbed_ < j) {
      DenseBitmap::AndWordsInPlace(prefix_.data(), cover_at(absorbed_),
                                   nwords_);
      ++absorbed_;
    }
    if (rest_j_ != j) {
      rest_ = prefix_;
      DenseBitmap::AndWordsInPlace(rest_.data(), suffix_[j].data(), nwords_);
      rest_j_ = j;
    }
    return rest_;
  }

 private:
  size_t nwords_ = 0;
  std::vector<std::vector<uint64_t>> suffix_;  // suffix_[j] = ⋀_{k>j} initial
  std::vector<uint64_t> prefix_;               // ⋀_{k<absorbed_} current
  std::vector<uint64_t> rest_;
  size_t absorbed_ = 0;
  size_t rest_j_ = SIZE_MAX;
};

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_SEARCH_CORE_H_
