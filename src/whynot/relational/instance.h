#ifndef WHYNOT_RELATIONAL_INSTANCE_H_
#define WHYNOT_RELATIONAL_INSTANCE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "whynot/common/dense_bitmap.h"
#include "whynot/common/status.h"
#include "whynot/common/value.h"
#include "whynot/relational/schema.h"

namespace whynot::rel {

/// Column-major, value-interned storage of one relation's facts. Every
/// constant is interned once into the owning Instance's ValuePool at
/// AddFact time; a relation of arity m holds m parallel `ValueId` columns
/// plus a dense fact index (row hash -> row ids) giving set semantics
/// without any boxed-tuple hashing on the hot paths.
class StoredRelation {
 public:
  /// Below this many rows, building a column index costs more than the
  /// scans it would save: the CQ evaluator, the conjunct evaluator, and
  /// the constraint checks fall back to direct column scans for smaller
  /// relations (the ⊑_S deciders evaluate one-shot queries over canonical
  /// instances of a handful of facts — index setup dominated there).
  static constexpr size_t kIndexMinRows = 32;

  /// Lazily built per-column join index: a CSR posting list (rows grouped
  /// by distinct ValueId, keys ascending by id) and the distinct-value
  /// DenseBitmap used as a word-parallel semi-join filter by the CQ
  /// evaluator. Maintained *incrementally*: appending facts does not
  /// discard a built index — the appended row suffix is merged into the
  /// posting lists on next access (one linear merge pass instead of a
  /// full re-sort), so workloads interleaving AddFact with evaluation
  /// (e.g. the strong_decide chase) keep warm indexes.
  struct ColumnIndex {
    std::vector<ValueId> keys;      // distinct ids, ascending
    std::vector<uint32_t> offsets;  // keys.size() + 1, CSR into rows
    std::vector<uint32_t> rows;     // row ids grouped by key
    DenseBitmap distinct;           // bitmap over keys

    /// Heap bytes resident in this index.
    size_t MemoryBytes() const {
      return keys.capacity() * sizeof(ValueId) +
             (offsets.capacity() + rows.capacity()) * sizeof(uint32_t) +
             (distinct.MemoryBytes() - sizeof(DenseBitmap));
    }
  };

  size_t arity() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Column `attr` in row order.
  const std::vector<ValueId>& Column(size_t attr) const {
    return columns_[attr];
  }
  ValueId At(size_t row, size_t attr) const { return columns_[attr][row]; }

  /// The lazily built index of column `attr`; invalidated by mutation.
  const ColumnIndex& Index(size_t attr) const;

  /// Rows whose column `attr` equals `id` (possibly empty). Pointers are
  /// valid until the next mutation of this relation.
  std::pair<const uint32_t*, const uint32_t*> RowsEqual(size_t attr,
                                                        ValueId id) const;

  /// True iff the id row is present (set semantics probe).
  bool ContainsRow(const std::vector<ValueId>& row) const;

  /// FNV-1a over an id row — the canonical hash for projected id tuples,
  /// shared with the constraint checks.
  static uint64_t HashIds(const std::vector<ValueId>& row);

  /// Heap + object bytes across columns, the fact index, and built column
  /// indexes (shallow for the boxed tuple view's Values).
  size_t MemoryBytes() const;

  /// Constructed by the owning Instance only (public for container
  /// emplacement).
  explicit StoredRelation(size_t arity)
      : columns_(arity),
        indexes_(arity),
        index_built_(arity, false),
        index_rows_(arity, 0) {}
  /// Copies the stored rows; lazy caches restart cold.
  StoredRelation(const StoredRelation& other)
      : num_rows_(other.num_rows_),
        columns_(other.columns_),
        row_hash_(other.row_hash_),
        indexes_(other.columns_.size()),
        index_built_(other.columns_.size(), false),
        index_rows_(other.columns_.size(), 0) {}
  StoredRelation& operator=(const StoredRelation&) = delete;

 private:
  friend class Instance;

  /// Appends the row if new; returns whether it was inserted.
  bool InsertRow(const std::vector<ValueId>& row);
  void Clear();
  void InvalidateIndexes() const;
  /// Merges rows [index_rows_[attr], num_rows_) into the built index.
  void MergeAppendedRows(size_t attr) const;

  bool RowEquals(uint32_t row, const std::vector<ValueId>& ids) const;

  size_t num_rows_ = 0;
  std::vector<std::vector<ValueId>> columns_;
  // Dense fact index: row hash -> rows with that hash (collision chain).
  std::unordered_map<uint64_t, std::vector<uint32_t>> row_hash_;
  mutable std::vector<ColumnIndex> indexes_;
  mutable std::vector<bool> index_built_;
  // Rows already merged into each built index; rows beyond are pending.
  mutable std::vector<size_t> index_rows_;
  // Boxed-tuple compatibility view, materialized on demand (suffix-appended
  // as rows grow; reset on Clear).
  mutable std::vector<Tuple> tuple_view_;
};

/// A database instance over a schema (Section 2): a finite set of facts.
///
/// Facts are stored columnar and value-interned (see StoredRelation); the
/// classic `std::vector<Tuple>` accessor survives as a lazily materialized
/// compatibility view, so existing call sites keep compiling, while the CQ
/// evaluator, the concept evaluators, and the constraint checkers operate
/// on `ValueId` columns directly.
///
/// The instance holds facts for both data and view relations; view
/// extensions are filled in by MaterializeViews (views.h). Constraint
/// satisfaction is checked by SatisfiesConstraints, not enforced on insert,
/// so that tests can construct violating instances on purpose.
///
/// NOTE: the lazy mutable caches (column indexes, tuple views, the active
/// domain snapshot) make an Instance single-threaded, const methods
/// included; give each thread its own copy.
class Instance {
 public:
  explicit Instance(const Schema* schema);

  Instance(const Instance& other);
  Instance& operator=(const Instance& other);
  Instance(Instance&&) = default;
  /// Not defaulted: assignment replaces the fact set, so the version and
  /// the generation must move past both operands' counters (see
  /// version(), generation()).
  Instance& operator=(Instance&& other) noexcept;

  const Schema& schema() const { return *schema_; }

  /// The pool interning every constant of the instance. Ids are assigned at
  /// AddFact time and stable for the lifetime of the instance.
  const ValuePool& pool() const { return pool_; }

  /// Id of `v` in the instance pool, or -1 if `v` occurs in no fact (and
  /// was never interned).
  ValueId LookupId(const Value& v) const { return pool_.Lookup(v); }

  /// Monotone mutation counter: bumped whenever the fact set actually
  /// changes (an inserted fact, a non-empty relation cleared), never by
  /// no-op duplicates or lazy cache builds. Monotone *per object*:
  /// copy/move assignment sets the target past both operands' counters,
  /// so replacing an instance's contents never reuses a version an
  /// observer recorded against the old contents. Warm caches keyed to an
  /// instance (ExplainSession's covers, extensions, lub state) record the
  /// version at warm time and re-warm deterministically when it moves,
  /// instead of serving stale extensions; generation() then tells them
  /// whether the move was appends only, which they may fold in as a
  /// delta (ExplainSession does so for its answer set).
  uint64_t version() const { return version_; }

  /// Non-append generation: bumped by every mutation that is *not* an
  /// append — clearing a non-empty relation, copy/move assignment (set
  /// past both operands' generations, like version()). While it stays
  /// put, every relation's rows [0, n) at one observation are rows
  /// [0, n) at any later one, and ValueIds keep their values, so an
  /// observer that recorded row counts (rel::RowMarks, cq_eval.h) can
  /// treat the rows past them as exactly what was added. Row counts alone
  /// cannot tell a clear followed by a refill, or a replaced object, from
  /// appends; the generation can.
  uint64_t generation() const { return generation_; }

  /// Inserts the fact R(t). Fails if R is unknown or the arity mismatches.
  /// Duplicate facts are silently ignored (set semantics).
  Status AddFact(const std::string& relation, Tuple tuple);

  /// Id-space insert: `row` holds ids of this instance's pool (as produced
  /// by the id-space CQ evaluator). Same validation and set semantics as
  /// AddFact without re-hashing boxed Values.
  Status AddFactIds(const std::string& relation,
                    const std::vector<ValueId>& row);

  /// Capacity hint: pre-sizes the columns of `relation` for `extra_rows`
  /// further facts. No-op for unknown relations.
  void Reserve(const std::string& relation, size_t extra_rows);

  /// True iff the fact is present.
  bool Contains(const std::string& relation, const Tuple& tuple) const;

  /// Columnar store of `relation`, or nullptr if no fact was ever added
  /// (callers treat nullptr as the empty relation).
  const StoredRelation* Find(const std::string& relation) const;

  /// Tuples of `relation` in insertion order. Empty for unknown relations.
  /// Compatibility view over the columnar store, materialized on demand.
  const std::vector<Tuple>& Relation(const std::string& relation) const;

  /// Number of facts across all relations.
  size_t NumFacts() const;

  /// Removes all tuples of `relation`; bumps generation() when it held any.
  void ClearRelation(const std::string& relation);

  /// The active domain adom(I): all constants occurring in facts, sorted
  /// by the Value total order, deduplicated. Maintained incrementally via
  /// per-id occurrence counts — an O(1) snapshot once built, not a rescan.
  const std::vector<Value>& ActiveDomain() const;

  /// adom(I) as pool ids, ascending in the Value total order.
  const std::vector<ValueId>& ActiveDomainIds() const;

  /// Checks all FDs and IDs of the schema. Returns InvalidArgument with a
  /// description of the first violation found.
  Status SatisfiesConstraints() const;

  /// Forces every lazily built cache — the pool's order index, the active
  /// domain snapshot, all column indexes, and the boxed tuple views — so
  /// that subsequent *const* access is genuinely read-only. For callers
  /// that share one instance across their own threads (the lazy mutable
  /// caches otherwise make even const methods single-threaded; see the
  /// class NOTE above). The engine never calls it: its one pooled path,
  /// the odometer walk, reads pre-resolved cover rows, not the instance.
  void WarmForConcurrentReads() const;

  /// Heap + object bytes of the stored facts and warm caches: interned
  /// pool values (shallow), columns, fact hashes, column indexes, and the
  /// active-domain snapshot. Boxed compatibility views count shallow.
  size_t MemoryBytes() const;

  /// Multi-line table rendering of non-empty relations.
  std::string ToString() const;

 private:
  StoredRelation* RelationFor(const std::string& relation, size_t arity);
  void BumpRef(ValueId id);
  void DropRef(ValueId id);
  void EnsureActiveDomain() const;

  const Schema* schema_;
  ValuePool pool_;
  // deque: stable addresses as relations are added lazily.
  std::deque<StoredRelation> store_;
  std::unordered_map<std::string, size_t> store_index_;
  std::vector<Tuple> empty_;

  // Occurrence counts per ValueId across all facts; the active domain is
  // the ids with positive count, kept as a cached sorted snapshot.
  std::vector<int64_t> refcount_;
  uint64_t version_ = 0;
  uint64_t generation_ = 0;
  mutable std::vector<Value> adom_values_;
  mutable std::vector<ValueId> adom_ids_;
  mutable bool adom_dirty_ = false;

  std::vector<ValueId> scratch_row_;
};

}  // namespace whynot::rel

#endif  // WHYNOT_RELATIONAL_INSTANCE_H_
