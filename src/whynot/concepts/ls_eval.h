#ifndef WHYNOT_CONCEPTS_LS_EVAL_H_
#define WHYNOT_CONCEPTS_LS_EVAL_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "whynot/common/dense_bitmap.h"
#include "whynot/common/value.h"
#include "whynot/concepts/ls_concept.h"
#include "whynot/relational/instance.h"

namespace whynot::ls {

/// The extension ⟦C⟧ᴵ of an LS concept (Section 4.2): either a finite set
/// of constants or — for ⊤ and concepts equivalent to it — all of Const.
///
/// Finite sets are stored in *id space*: `ids()` are instance-pool
/// `ValueId`s kept in pool *rank* order (ascending in the Value total
/// order), with a lazily built `DenseBitmap` over the pool universe giving
/// O(1) membership and word-parallel SubsetOf/Intersect. Constants that
/// were never interned into the pool (nominals of values outside the
/// instance, pool-less `Of()` extensions) live in `extras()`, a sorted
/// boxed side vector that stays tiny (at most the nominal constants of the
/// concept). The classic boxed `values` vector survives as `values()`, a
/// lazily materialized compatibility view (mirroring the columnar store's
/// tuple view), so cold call sites keep their shape while the explanation
/// searches run on ids end to end.
///
/// NOTE: the lazy mutable caches (bitmap, boxed view) make an Extension
/// single-threaded, const methods included. Copies share the already-built
/// caches (they are immutable once built; the pool must outlive every
/// extension referencing it).
class Extension {
 public:
  /// Extensions equivalent to ⊤ keep this flag set (Const is countably
  /// infinite; no finite enumeration exists). Public by design: the
  /// searches branch on it constantly.
  bool all = false;

  /// The empty extension.
  Extension() = default;

  static Extension All() {
    Extension e;
    e.all = true;
    return e;
  }

  /// Pool-less boxed extension (compatibility constructor: sorts and
  /// dedups). All operations fall back to boxed merges.
  static Extension Of(std::vector<Value> vals);

  /// Finite extension of pool ids (need not be sorted; rank-sorted and
  /// deduplicated here). `pool` must outlive the extension.
  static Extension OfIds(const ValuePool* pool, std::vector<ValueId> ids);

  /// {v} relative to `pool`: an id if `v` is interned, an extra otherwise.
  static Extension Nominal(const ValuePool* pool, const Value& v);

  bool empty() const { return !all && ids_.empty() && extras_.empty(); }

  /// Pool the ids refer to; nullptr for pool-less / All extensions.
  const ValuePool* pool() const { return pool_; }

  /// Interned members as pool ids, ascending in pool rank order (i.e. in
  /// the Value total order). Requires !all.
  const std::vector<ValueId>& ids() const { return ids_; }

  /// Members that are not in the pool, sorted by the Value order.
  const std::vector<Value>& extras() const { return extras_; }

  /// Boxed compatibility view: all members sorted by the Value total
  /// order, materialized on first use and cached.
  const std::vector<Value>& values() const;

  bool Contains(const Value& v) const;

  /// O(1) membership for an id of pool(). Pool-less extensions hold no
  /// ids, so this returns false for them (all but ⊤/All); use
  /// Contains(Value) when the extension may be pool-less.
  bool ContainsId(ValueId id) const {
    if (all) return true;
    if (bits_ != nullptr) return bits_->Test(id);
    return ContainsIdSlow(id);
  }

  /// Membership of a value with its pool lookup precomputed (`id` must be
  /// pool()->Lookup(v), -1 if not interned). The hot form for answer and
  /// active-domain probes: one bitmap test for interned values, a
  /// binary search over the (tiny) extras vector otherwise. An id miss
  /// still falls back to the extras — a member recorded as an extra stays
  /// one if the pool interns the value afterwards.
  bool ContainsInterned(ValueId id, const Value& v) const {
    if (all) return true;
    if (pool_ != nullptr && id >= 0 && ContainsId(id)) return true;
    return !extras_.empty() && ContainsBoxedSlow(v);
  }

  bool SubsetOf(const Extension& o) const;
  Extension Intersect(const Extension& o) const;

  bool operator==(const Extension& o) const {
    if (all != o.all) return false;
    if (all) return true;
    if (pool_ == o.pool_) return ids_ == o.ids_ && extras_ == o.extras_;
    return values() == o.values();
  }

  /// |ext|, with All treated as "infinite" (SIZE_MAX); used by the
  /// cardinality-based preference of Section 6.
  size_t CardinalityOrInfinite() const;

  /// The word-parallel mirror of ids() over the pool universe, built on
  /// first use (ContainsId builds it for id sets past kSmallLinearIds).
  /// Requires !all and a pool.
  const DenseBitmap& bits() const;
  bool has_bitmap() const { return bits_ != nullptr; }

  /// Heap + object bytes across ids, extras, and whichever lazy caches are
  /// built (shallow for boxed Values).
  size_t MemoryBytes() const;

  std::string ToString() const;

 private:
  bool ContainsIdSlow(ValueId id) const;
  bool ContainsBoxedSlow(const Value& v) const;

  const ValuePool* pool_ = nullptr;
  std::vector<ValueId> ids_;    // rank-sorted pool ids
  std::vector<Value> extras_;   // sorted members outside the pool
  // Lazy caches, shared across copies once built (immutable thereafter).
  mutable std::shared_ptr<const DenseBitmap> bits_;
  mutable std::shared_ptr<const std::vector<Value>> boxed_;
};

/// ⟦C⟧ᴵ per the inductive semantics of Section 4.2 (polynomial time).
Extension Eval(const LsConcept& concept_expr, const rel::Instance& instance);

/// ⟦D⟧ᴵ of a single conjunct.
Extension Eval(const Conjunct& conjunct, const rel::Instance& instance);

struct ConceptHash {
  size_t operator()(const LsConcept& concept_expr) const;
};

/// The ⟦C⟧ᴵ memo, at two granularities. Concepts are intersections of
/// conjuncts, and the greedy searches (Algorithm 2 and the MGE checks)
/// re-evaluate candidates whose conjuncts — projections of the same few
/// (relation, attr) pairs plus nominals — repeat constantly:
///
///  * per conjunct: projections (a selection-free one is the instance's
///    cached distinct column re-expressed as an Extension), selections
///    and nominals, keyed structurally;
///  * per concept: whole intersections, so IncrementalSearch's inner loop
///    (one probe per active-domain constant) does not even re-intersect.
///
/// A ConceptCache owns one and evaluates every lub through it, so each
/// concept has one Extension object however it is reached.
///
/// Every memoized extension is a snapshot of the instance at evaluation
/// time. A selection-free extension depends only on distinct columns
/// (⟦π_A(R)⟧ᴵ is R's distinct A-column), so it stays exact across appends
/// that bring no value new to any column; a selection conjunct's extension
/// depends on rows. The cache may outlive a write only when the owner has
/// checked that no column moved and that read_rows() is false (an
/// ExplainSession does so on re-warm); otherwise it must be Clear()ed.
/// Returned references are stable until Clear() (node-based maps), which
/// the explain layer's answer-cover kernel relies on for identity-keyed
/// cover bitmaps.
class EvalCache {
 public:
  using ConceptMap = std::unordered_map<LsConcept, Extension, ConceptHash>;

  explicit EvalCache(const rel::Instance* instance) : instance_(instance) {}

  const rel::Instance& instance() const { return *instance_; }

  /// True once the cache has evaluated a selection conjunct, whose
  /// extension depends on the rows and not only on the distinct columns.
  bool read_rows() const { return read_rows_; }

  /// ⟦C⟧ᴵ via cached conjunct extensions, memoized per concept.
  const Extension& Eval(const LsConcept& concept_expr);

  /// Eval's memo node: the canonical concept (the key) and its extension,
  /// evaluated and recorded on miss.
  const ConceptMap::value_type& EvalNode(LsConcept concept_expr);

  /// ⟦D⟧ᴵ, computed once per distinct conjunct.
  const Extension& EvalConjunct(const Conjunct& conjunct);

  /// ⟦π_attr(relation)⟧ᴵ: EvalConjunct of the selection-free projection.
  const Extension& Projection(const std::string& relation, int attr) {
    return EvalConjunct(Conjunct::Projection(relation, attr));
  }

  /// Concepts memoized so far.
  size_t size() const { return concept_exts_.size(); }

  /// Drops every memoized extension and resets read_rows().
  void Clear();

  /// Approximate residency: the memoized extensions (with whichever dense
  /// mirrors probes have built so far), the concept keys and the concept
  /// map's structure (shallow for the conjunct keys).
  size_t MemoryBytes() const;

 private:
  const rel::Instance* instance_;
  std::map<Conjunct, Extension> conjunct_exts_;
  ConceptMap concept_exts_;
  bool read_rows_ = false;
};

/// C1 ⊑_I C2 : ⟦C1⟧ᴵ ⊆ ⟦C2⟧ᴵ (Proposition 4.1, PTIME).
bool SubsumedI(const LsConcept& c1, const LsConcept& c2,
               const rel::Instance& instance);

/// C1 ≡_{O_I} C2 : equal extensions on I (Section 6).
bool EquivalentI(const LsConcept& c1, const LsConcept& c2,
                 const rel::Instance& instance);

/// Strict subsumption: C1 ⊑_I C2 and not C2 ⊑_I C1.
bool StrictlySubsumedI(const LsConcept& c1, const LsConcept& c2,
                       const rel::Instance& instance);

}  // namespace whynot::ls

#endif  // WHYNOT_CONCEPTS_LS_EVAL_H_
