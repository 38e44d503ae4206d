#include "whynot/explain/enumerate.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "whynot/concepts/ls_eval.h"
#include "whynot/explain/derived_sweep.h"
#include "whynot/explain/search_core.h"

namespace whynot::explain {

namespace {

// A ground element of the independence system: position j generalized by
// active-domain constant `adom[constant_index]`, or — when `constant_index
// == kTopIndex` — by ⊤.
constexpr int kTopIndex = -1;

struct GroundElement {
  int position;
  int constant_index;

  bool operator<(const GroundElement& o) const {
    return std::tie(position, constant_index) <
           std::tie(o.position, o.constant_index);
  }
};

// One branch-tree node: the subspace of maximal sets that contain every
// `included` element and no `excluded` one. `included` is in sweep order;
// `excluded` iterates in ascending position, as MaximalUnconstrained's
// prefix/suffix cache requires.
struct BranchNode {
  std::vector<GroundElement> included;
  std::set<GroundElement> excluded;
};

// State of one greedy completion: per-position support sets, concepts,
// extensions, and the *decision* elements — accepted additions that
// changed an extension. Decisions are the only elements worth branching
// on: an absorbed element is already inside every set of the node's
// subspace that contains the decisions before it.
// Extensions are pointers into the evaluator's lub cache (stable map
// nodes) or its shared ⊤ extension, so the answer-cover kernel can key
// cover bitmaps by identity across nodes.
struct GreedyState {
  std::vector<ls::SupportKey> support;  // keys of the sets fed to lub
  std::vector<bool> topped;             // position generalized to ⊤
  LsExplanation concepts;
  std::vector<const ls::Extension*> exts;
  std::vector<GroundElement> decisions;
};

// Output guard key: extensions identified in id space (all extensions
// share the instance pool, so rank-sorted ids + boxed extras are
// canonical — integer comparisons, no values() materialization).
using ExtKey = std::tuple<bool, std::vector<ValueId>, std::vector<Value>>;

/// Evaluates one branch-tree node: deterministic greedy completion inside
/// the node's subspace plus the unconstrained-maximality test. One
/// evaluator serves every node of a run, through the run's stores: the
/// concept cache and the answer covers stay warm across nodes and, when
/// they are a session's, across requests.
///
/// Probes use the shared GreedyAndCache (search_core.h): within a greedy
/// sweep the product check "replace position j's cover, AND with all
/// others" has a loop-invariant rest — the AND of the final covers below
/// j and the initial covers above j — so each candidate probe collapses
/// from an m-way AND to a single AND against the cached rest words.
class NodeEvaluator {
 public:
  NodeEvaluator(const WhyNotInstance& wni, DerivedStores& stores)
      : wni_(wni),
        overlay_(stores.overlay()),
        adom_(wni.instance->ActiveDomain()),
        adom_ids_(wni.instance->ActiveDomainIds()),
        covers_(*stores.covers()),
        nwords_((wni.answers.size() + 63) / 64),
        top_ext_(ls::Extension::All()) {
    full_.assign(nwords_, ~uint64_t{0});
    size_t rest = wni.answers.size() % 64;
    if (nwords_ > 0 && rest != 0) full_.back() = (uint64_t{1} << rest) - 1;
  }

  // Deterministic greedy maximization inside the node's subspace: start
  // from the nominal-pinned tuple extended by the included elements and,
  // in fixed (position, constant) order, add every generalization that
  // keeps the tuple an explanation and whose lub extension holds no
  // excluded constant of its position. ⊤ at j is tried only when nothing
  // at j is excluded (⊤'s extension holds every constant).
  Status GreedyComplete(const BranchNode& node, GreedyState* state) {
    size_t m = wni_.arity();
    state->support.resize(m);
    state->topped.assign(m, false);
    state->concepts.resize(m);
    state->exts.resize(m);
    for (size_t j = 0; j < m; ++j) {
      state->support[j] = overlay_.KeyOf({wni_.missing[j]});
    }
    // Each included constant lay outside the running lub extension when
    // its ancestor accepted it, as Extend requires.
    for (const GroundElement& e : node.included) {
      size_t j = static_cast<size_t>(e.position);
      if (e.constant_index == kTopIndex) {
        state->topped[j] = true;
        continue;
      }
      size_t bi = static_cast<size_t>(e.constant_index);
      overlay_.Extend(state->support[j], adom_[bi], adom_ids_[bi], &extended_);
      std::swap(state->support[j], extended_);
    }
    for (size_t j = 0; j < m; ++j) {
      if (state->topped[j]) {
        state->concepts[j] = ls::LsConcept::Top();
        state->exts[j] = &top_ext_;
        continue;
      }
      // Branch-tree nodes share long support-set prefixes, so the same lub
      // is requested many times across nodes and, through a session's
      // cache, across requests.
      WHYNOT_ASSIGN_OR_RETURN(const ls::ConceptCache::Entry* ce,
                              overlay_.LubAndEval(state->support[j]));
      state->concepts[j] = *ce->concept;
      state->exts[j] = ce->ext;
    }
    if (covers_.ProductIntersects(state->exts)) {
      return Status::Internal(
          "start tuple of an MGE branch node is not an explanation; "
          "contradicts Section 5.2");
    }

    // The cache snapshots the initial-suffix ANDs here (later positions
    // have not changed yet) and lazily absorbs each position's *final*
    // cover into its prefix as Rest moves past it — cover_at reads the
    // state's current extension at absorption time.
    auto cover_at = [this, state](size_t k) {
      return CoverRow(*state->exts[k], k);
    };
    and_cache_.Reset(m, nwords_, full_.data(), cover_at);

    auto excluded_it = node.excluded.begin();
    for (size_t j = 0; j < m; ++j) {
      excluded_ids_.clear();
      bool any_excluded = false;
      for (; excluded_it != node.excluded.end() &&
             excluded_it->position == static_cast<int>(j);
           ++excluded_it) {
        any_excluded = true;
        if (excluded_it->constant_index != kTopIndex) {
          excluded_ids_.push_back(
              adom_ids_[static_cast<size_t>(excluded_it->constant_index)]);
        }
      }
      // Loop-invariant rest of the probe at position j: an accepted swap
      // only changes position j itself, so `rest` survives the whole
      // sweep of this position.
      const std::vector<uint64_t>& rest = and_cache_.Rest(j, cover_at);
      for (size_t bi = 0; bi < adom_.size() && !state->topped[j]; ++bi) {
        // Inside the current lub extension: adding b leaves the lub
        // unchanged (Lemma 5.1/5.2 minimality), so nothing to decide.
        // Outside it, b ∉ X_j, as Extend requires.
        if (state->exts[j]->ContainsId(adom_ids_[bi])) continue;
        overlay_.Extend(state->support[j], adom_[bi], adom_ids_[bi],
                        &extended_);
        WHYNOT_ASSIGN_OR_RETURN(const ls::ConceptCache::Entry* cand,
                                overlay_.LubAndEval(extended_));
        if (HoldsAny(*cand->ext, excluded_ids_)) continue;
        if (!AnyAnd(rest, CoverRow(*cand->ext, j))) {
          std::swap(state->support[j], extended_);
          state->concepts[j] = *cand->concept;
          state->exts[j] = cand->ext;
          state->decisions.push_back(
              {static_cast<int>(j), static_cast<int>(bi)});
        }
      }
      if (!state->exts[j]->all && !any_excluded &&
          !AnyAnd(rest, full_.data())) {
        state->topped[j] = true;
        state->concepts[j] = ls::LsConcept::Top();
        state->exts[j] = &top_ext_;
        state->decisions.push_back({static_cast<int>(j), kTopIndex});
      }
    }
    return Status::OK();
  }

  // True iff no *excluded* element can still be added. The sweep makes
  // the output maximal inside the subspace; any element it rejected only
  // for holding an excluded constant f would, if addable, make f addable
  // too (lub(X ∪ {f}) ⊆ lub(X ∪ {b}) when f ∈ lub(X ∪ {b})), and a ⊤
  // rejected for an exclusion at j makes every excluded constant at j
  // addable. So this test decides maximality in the unconstrained system.
  Result<bool> MaximalUnconstrained(const BranchNode& node,
                                    const GreedyState& state) {
    size_t m = wni_.arity();
    // The same prefix/suffix cache over the *final* covers (fixed during
    // this pass); the exclusion set iterates in ascending position order,
    // exactly the non-decreasing j the cache requires.
    auto cover_at = [this, &state](size_t k) {
      return CoverRow(*state.exts[k], k);
    };
    and_cache_.Reset(m, nwords_, full_.data(), cover_at);
    for (const GroundElement& e : node.excluded) {
      size_t j = static_cast<size_t>(e.position);
      if (state.topped[j] || state.exts[j]->all) continue;
      const std::vector<uint64_t>& rest = and_cache_.Rest(j, cover_at);
      if (e.constant_index == kTopIndex) {
        if (!AnyAnd(rest, full_.data())) return false;
        continue;
      }
      size_t bi = static_cast<size_t>(e.constant_index);
      if (state.exts[j]->ContainsId(adom_ids_[bi])) continue;  // absorbed
      overlay_.Extend(state.support[j], adom_[bi], adom_ids_[bi], &extended_);
      // Verification probes never accept, so boxed (with-selections) keys
      // are probed once: the probe path serves recorded entries without
      // recording a support entry (the greedy sweep's candidates, which
      // recur across sibling nodes and requests, stay on the caching
      // path).
      WHYNOT_ASSIGN_OR_RETURN(const ls::Extension* cand,
                              overlay_.LubExtTransient(extended_));
      if (!AnyAnd(rest, CoverRow(*cand, j))) return false;
    }
    return true;
  }

 private:
  const uint64_t* CoverRow(const ls::Extension& ext, size_t pos) {
    // No answers: nothing to cover, every probe passes (the covers have no
    // per-position postings to index in that case).
    if (nwords_ == 0) return full_.data();
    return covers_.Cover(ext, pos);
  }

  static bool HoldsAny(const ls::Extension& ext,
                       const std::vector<ValueId>& ids) {
    for (ValueId id : ids) {
      if (ext.ContainsId(id)) return true;
    }
    return false;
  }

  // The probe reuses the cover kernel's early-exit AnyAnd; the running
  // prefix/suffix ANDs live in the shared GreedyAndCache.
  static bool AnyAnd(const std::vector<uint64_t>& a, const uint64_t* b) {
    return ConceptAnswerCovers::AnyAnd(a, b);
  }

  const WhyNotInstance& wni_;
  ls::ConceptCacheOverlay& overlay_;
  const std::vector<Value>& adom_;
  const std::vector<ValueId>& adom_ids_;
  LsAnswerCovers& covers_;
  size_t nwords_;
  std::vector<uint64_t> full_;  // all answers alive, trailing bits zero
  GreedyAndCache and_cache_;
  const ls::Extension top_ext_;
  ls::SupportKey extended_;             // reused candidate-key buffer
  std::vector<ValueId> excluded_ids_;   // reused: exclusions at position j
};

class Enumerator {
 public:
  Enumerator(const WhyNotInstance& wni, const EnumerateOptions& options,
             DerivedStores& stores, EnumerateStats* stats)
      : wni_(wni), options_(options), stores_(stores), stats_(stats) {}

  // Partition branching over maximal independent sets, specialized to
  // this monotone system (see EnumerateAllMges in enumerate.h):
  //
  //   * A node (I, F) stands for the maximal sets that contain I and
  //     avoid F; one greedy sweep yields a set maximal inside it.
  //   * The output is reported iff no excluded element can be re-added
  //     (then it is maximal unconstrained, i.e. a genuine MGE).
  //   * For the output's decisions d_1..d_k, child i is
  //     (I ∪ {d_1..d_{i-1}}, F ∪ {d_i}). Any other maximal set of the
  //     node misses a first decision d_i, so it lies in child i and in no
  //     other: the children partition the rest of the node's subspace,
  //     and every MGE is reported exactly once.
  //
  // This enumeration deliberately stays outside the dominance-pruned
  // frontier machinery (explain/lattice.h) the external-ontology searches
  // share: the frontier needs a finite, pre-enumerated concept space with
  // a closed subsumption matrix to build downset bitmaps over, while the
  // derived ontology OI materializes its concepts on demand as lubs of
  // support sets — the candidate "lists" here are implicit in the
  // exponentially many subsets of the active domain, and maximality is
  // decided by lub probes, not matrix rows. Partition branching *is* the
  // lattice walk for that implicit space: each sweep lands exactly on a
  // maximal element of its subspace.
  Result<std::vector<LsExplanation>> Run() {
    NodeEvaluator evaluator(wni_, stores_);
    std::vector<LsExplanation> results;
    // A guard only: the subspaces are disjoint, so a repeat is a bug.
    std::set<std::vector<ExtKey>> seen_outputs;
    std::deque<BranchNode> queue;
    queue.emplace_back();
    size_t nodes_since_last_output = 0;

    while (!queue.empty()) {
      if (stats_->nodes_expanded >= options_.max_nodes) {
        if (options_.cert == nullptr) {
          return Status::ResourceExhausted(
              "MGE enumeration exceeded max_nodes = " +
              std::to_string(options_.max_nodes));
        }
        halted_ = exec::Stop{exec::StopReason::kBudget, options_.max_nodes};
        remaining_ = queue.size();
        break;
      }
      // Probe = node ordinal (nodes expanded so far).
      if (std::optional<exec::Stop> s =
              exec::Check(options_.exec, stats_->nodes_expanded)) {
        if (options_.cert == nullptr) {
          return exec::StopStatus(*s, "MGE enumeration");
        }
        halted_ = *s;
        remaining_ = queue.size();
        break;
      }
      BranchNode node = std::move(queue.front());
      queue.pop_front();
      ++stats_->nodes_expanded;
      ++nodes_since_last_output;

      GreedyState state;
      WHYNOT_RETURN_IF_ERROR(evaluator.GreedyComplete(node, &state));

      WHYNOT_ASSIGN_OR_RETURN(bool maximal,
                              evaluator.MaximalUnconstrained(node, state));
      if (maximal) {
        std::vector<ExtKey> ext_key;
        ext_key.reserve(state.exts.size());
        for (const ls::Extension* ext : state.exts) {
          ext_key.emplace_back(ext->all, ext->ids(), ext->extras());
        }
        if (!seen_outputs.insert(std::move(ext_key)).second) {
          return Status::Internal(
              "MGE enumeration reached one explanation in two branch "
              "subspaces");
        }
        stats_->max_delay =
            std::max(stats_->max_delay, nodes_since_last_output);
        nodes_since_last_output = 0;
        results.push_back(state.concepts);
        if (results.size() >= options_.max_results) {
          if (options_.cert != nullptr) {
            halted_ = exec::Stop{exec::StopReason::kBudget,
                                 stats_->nodes_expanded};
            remaining_ = queue.size();
          }
          return Finish(std::move(results));
        }
      }

      std::vector<GroundElement> included = std::move(node.included);
      for (const GroundElement& d : state.decisions) {
        BranchNode child{included, node.excluded};
        child.excluded.insert(d);
        queue.push_back(std::move(child));
        included.push_back(d);
      }
    }
    return Finish(std::move(results));
  }

 private:
  // Certifies a (possibly partial) result set: quality is kExact only for
  // an uninterrupted run; any stop downgrades to kLowerBound — every
  // reported element is a verified MGE, but the antichain may be
  // incomplete. `remaining_` counts the branch-tree nodes still queued at
  // the stop, a thread-invariant measure of the unexplored frontier.
  Result<std::vector<LsExplanation>> Finish(
      std::vector<LsExplanation> results) {
    if (options_.cert != nullptr) {
      exec::Progress progress;
      progress.tested = stats_->nodes_expanded;
      progress.remaining = remaining_;
      exec::FillCertificate(options_.cert, halted_.value_or(exec::Stop{}),
                            progress, results.size());
    }
    return results;
  }

  const WhyNotInstance& wni_;
  const EnumerateOptions& options_;
  DerivedStores& stores_;
  EnumerateStats* stats_;
  std::optional<exec::Stop> halted_;
  size_t remaining_ = 0;
};

}  // namespace

Result<std::vector<LsExplanation>> EnumerateAllMges(
    const WhyNotInstance& wni, const EnumerateOptions& options,
    EnumerateStats* stats, ls::LubContext* lub_context,
    ls::ConceptCache* concept_cache, ls::EvalCache* cache,
    LsAnswerCovers* covers) {
  EnumerateStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = EnumerateStats{};
  DerivedStores stores("MGE enumeration", wni.instance, wni.answers,
                       /*dedup_answers=*/false, options.with_selections,
                       options.lub, lub_context, cache, covers, concept_cache);
  WHYNOT_RETURN_IF_ERROR(stores.status());
  // Attribute this run's cache traffic (a session cache accumulates
  // across requests; the stats block reports per-call deltas).
  const ls::ConceptCacheStats before = stores.concept_cache()->stats();
  Result<std::vector<LsExplanation>> result =
      Enumerator(wni, options, stores, stats).Run();
  const ls::ConceptCacheStats& after = stores.concept_cache()->stats();
  stats->cache_hits = after.shared_hits - before.shared_hits;
  stats->cache_misses = after.misses - before.misses;
  return result;
}

}  // namespace whynot::explain
