#ifndef WHYNOT_CONCEPTS_CONCEPT_CACHE_H_
#define WHYNOT_CONCEPTS_CONCEPT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "whynot/common/status.h"
#include "whynot/concepts/ls_eval.h"
#include "whynot/concepts/lub.h"

namespace whynot::ls {

/// Cumulative traffic counters. NOTE: these are observability only, NOT
/// part of the engine's bit-identical stats contract — how many lookups
/// hit depends on what earlier requests left in the memo, while the
/// *values* served are identical either way.
struct ConceptCacheStats {
  size_t shared_hits = 0;  // support lookups the memo served
  size_t local_hits = 0;   // always 0: the memo has one tier
  size_t misses = 0;       // lub + eval computed fresh
  size_t publishes = 0;    // support entries + concepts added to evals()
};

/// The key of a support map: what lub(X) depends on, in the form each
/// lub flavor needs. With selections (lubσ, Lemma 5.2) that is X itself.
/// Selection-free, lub(X) is determined by X's column signature
/// (LubContext::Signature) and, while |X| = 1, by X's one value (the
/// nominal) — so every support with one signature shares one entry, and a
/// probe hashes a few signature words instead of boxed values. Keys are
/// built and extended by an overlay of the matching flavor (KeyOf,
/// KeyOfExtension, Extend).
struct SupportKey {
  /// With selections: X, sort-deduplicated. Selection-free: {x} when
  /// X = {x}, empty otherwise.
  std::vector<Value> values;
  /// Selection-free: sig(X), LubContext::SignatureWords() words. Empty
  /// with selections.
  std::vector<uint64_t> sig;

  bool operator==(const SupportKey& o) const {
    return sig == o.sig && values == o.values;
  }
};

struct SupportKeyHash {
  size_t operator()(const SupportKey& key) const;
};

/// The concept memo: lub(X) together with its evaluated extension, across
/// the probes of one search and — held by an ExplainSession — across
/// requests. Lookups go through a ConceptCacheOverlay, which binds the lub
/// flavor and the lub context that computes a miss.
///
/// Two node-stable support maps, one per lub flavor, from the SupportKey
/// of a support set X to lub(X) and ⟦lub(X)⟧ᴵ (the column signature of X
/// selection-free, X itself with selections), over the one EvalCache the
/// cache owns (evals()). Every lub is evaluated through that memo, so
/// distinct support sets of one lub class — and any other caller of
/// evals().Eval on the same concept — share one Extension object, and the
/// answer covers build one row for it.
///
/// Determinism: every entry is a pure function of (key, instance), so
/// memo warmth can only change timing and pointer identities — never
/// outputs, deterministic stats, or errors.
///
/// Single-threaded, like the LubContext and EvalCache that fill it.
///
/// Lifetime: entries are snapshots of the instance, like EvalCache's.
/// Selection-free entries (signature keys, lubs of nominals and
/// projections, their extensions) depend only on the distinct columns, so
/// they stay exact across appends that leave every column unchanged; an
/// ExplainSession keeps the memo across such writes when both its
/// searches are selection-free and evals().read_rows() is false, and
/// Clear()s it on every other re-warm.
class ConceptCache {
 public:
  /// One support entry: views of the evals() node holding the canonical
  /// lub concept and its extension. Each key has one entry and each entry
  /// one address until Clear() — the answer-cover kernel keys cover rows
  /// by `ext`.
  struct Entry {
    const LsConcept* concept;
    const Extension* ext;
  };

  explicit ConceptCache(const rel::Instance* instance) : evals_(instance) {}
  // Entries point into the owned memo's nodes.
  ConceptCache(const ConceptCache&) = delete;
  ConceptCache& operator=(const ConceptCache&) = delete;

  const rel::Instance& instance() const { return evals_.instance(); }

  /// The ⟦C⟧ᴵ memo every lub is evaluated through; stable until Clear().
  EvalCache& evals() { return evals_; }
  const EvalCache& evals() const { return evals_; }

  /// The recorded support entry of `key` in one flavor's map, null if
  /// none. Does not count as a hit.
  const Entry* FindSupport(bool with_selections, const SupportKey& key) const;

  /// Drops every entry, evals() included (session re-warm). Traffic
  /// counters survive.
  void Clear();

  /// Support entries plus the concepts evals() holds.
  size_t size() const;

  /// Approximate residency of the support maps: keys, entries and map
  /// structure. The extensions they point at are evals().MemoryBytes().
  size_t SupportBytes() const;
  /// SupportBytes() + evals().MemoryBytes().
  size_t MemoryBytes() const;

  const ConceptCacheStats& stats() const { return stats_; }

 private:
  friend class ConceptCacheOverlay;

  using SupportMap = std::unordered_map<SupportKey, Entry, SupportKeyHash>;

  SupportMap& support(bool with_selections) {
    return with_selections ? support_sel_ : support_free_;
  }
  const SupportMap& support(bool with_selections) const {
    return with_selections ? support_sel_ : support_free_;
  }

  EvalCache evals_;
  SupportMap support_free_;
  SupportMap support_sel_;
  ConceptCacheStats stats_;
};

/// One search's binding to a ConceptCache: the lub flavor and the lub
/// context a miss is computed with. The entries live in the cache; the
/// overlay keeps only the slot that PromoteLastProbe reads.
///
/// Single-threaded, like the LubContext and EvalCache it drives.
class ConceptCacheOverlay {
 public:
  /// `lub` computes misses (flavor fixed by `with_selections`); their
  /// extensions come from cache->evals().
  ConceptCacheOverlay(ConceptCache* cache, bool with_selections,
                      LubContext* lub)
      : cache_(cache), with_selections_(with_selections), lub_(lub) {}

  /// The key of a non-empty support set X in this overlay's flavor.
  SupportKey KeyOf(const std::vector<Value>& x) const;
  /// The key of X = ⟦C⟧ᴵ for a finite, non-empty extension — selection-
  /// free without materializing ext.values().
  SupportKey KeyOfExtension(const Extension& ext) const;
  /// Writes the key of X ∪ {b} into `out` (a reused buffer: no allocation
  /// once warm), for b ∉ X with pool id `b_id` (-1 outside the pool).
  /// Selection-free this is one AND of signature words.
  void Extend(const SupportKey& x, const Value& b, ValueId b_id,
              SupportKey* out) const;

  /// Memoized lub + evaluation of a support set: a hit, or the lub and
  /// extension computed and recorded at once. The entry is valid until
  /// the cache's Clear(). Lub errors (box-cap ResourceExhausted) pass
  /// through unrecorded.
  Result<const ConceptCache::Entry*> LubAndEval(const SupportKey& key);

  /// Probe variant for generalization sweeps, which test X ∪ {b} for every
  /// b and keep almost none. With selections the boxed keys are probed
  /// once each, so this serves a recorded support entry when there is one,
  /// otherwise computes the lub fresh — memoizing only its evals() node. No support entry is recorded, so a rejected candidate
  /// never bloats the support map with probe-once keys. Selection-free
  /// keys are signatures, which recur across probes, so there this is
  /// LubAndEval. The returned extension is address-stable until Clear(),
  /// which the cover-row identity keying requires; callers that *accept*
  /// a candidate record it with PromoteLastProbe().
  Result<const Extension*> LubExtTransient(const SupportKey& key);

  /// Records the candidate `key` probed by the immediately preceding
  /// *successful* LubExtTransient in the support map, reusing the lub and
  /// extension that probe already computed (the sweeps accept a candidate
  /// right after probing it, and recomputing the lub on accept is
  /// measurable on small instances). Returns the same entry LubAndEval
  /// would: identical concept value, identical extension address. Must
  /// not be called after a failed probe or any intervening overlay call.
  const ConceptCache::Entry* PromoteLastProbe(const SupportKey& key);

 private:
  /// The lub of a support key, flavor fixed at construction.
  Result<LsConcept> LubOfKey(const SupportKey& key);

  using EvalNode = EvalCache::ConceptMap::value_type;

  /// The evals() node of `concept_expr`, counting a publish on miss.
  const EvalNode& EvalOf(LsConcept concept_expr);

  /// Records `key` → `node` in this flavor's support map.
  const ConceptCache::Entry* Record(const SupportKey& key,
                                    const EvalNode& node);

  ConceptCache* cache_;
  bool with_selections_;
  LubContext* lub_;
  // Where the last LubExtTransient was served from, for PromoteLastProbe:
  // exactly one is set after a successful probe (a recorded support entry
  // / the evals() node of a freshly computed lub).
  const ConceptCache::Entry* last_entry_ = nullptr;
  const EvalNode* last_eval_ = nullptr;
};

}  // namespace whynot::ls

#endif  // WHYNOT_CONCEPTS_CONCEPT_CACHE_H_
