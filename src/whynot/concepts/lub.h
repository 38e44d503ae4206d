#ifndef WHYNOT_CONCEPTS_LUB_H_
#define WHYNOT_CONCEPTS_LUB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "whynot/common/status.h"
#include "whynot/common/value.h"
#include "whynot/concepts/ls_concept.h"
#include "whynot/relational/instance.h"

namespace whynot::ls {

/// Resource limits for lub-with-selections (Lemma 5.2 is EXPTIME in
/// general; the canonical-box enumeration below is exponential in the
/// relation arity and polynomial for bounded arity, exactly matching the
/// lemma).
struct LubOptions {
  /// Maximum number of distinct canonical boxes enumerated per relation.
  size_t max_boxes_per_relation = 2000000;
};

/// Computes least upper bounds of constant sets in the concept language,
/// relative to one instance (Lemmas 5.1 and 5.2). The context caches the
/// per-relation canonical-box decomposition, so repeated lub calls inside
/// INCREMENTAL SEARCH are cheap.
///
/// Canonical boxes: a conjunction of {=,<,>,<=,>=} selections on one
/// attribute traces an interval, and on a finite column only contiguous
/// runs of the sorted distinct column values are distinguishable; a
/// selection over a relation therefore traces a product of per-attribute
/// runs ("box"). lubσ(X) is the intersection of all selection conjuncts
/// whose A-projection contains X; since that family is upward closed in
/// the traced tuple set, it suffices to intersect the inclusion-minimal
/// valid boxes, which is what LubWithSelections returns.
class LubContext {
 public:
  explicit LubContext(const rel::Instance* instance, LubOptions options = {});

  const rel::Instance& instance() const { return *instance_; }
  /// The resource limits this context was built with.
  const LubOptions& options() const { return options_; }

  /// lub_I(X) in selection-free LS (Lemma 5.1, PTIME): the conjunction of
  /// every selection-free conjunct whose extension contains X (the nominal
  /// {x} when X = {x}, and every π_A(R) whose column contains X). Returns ⊤
  /// when no conjunct qualifies. X must be non-empty. Computed as
  /// LubOfSignature of X's column signature.
  LsConcept LubSelectionFree(const std::vector<Value>& x) const;

  /// lubσ_I(X) in full LS (Lemma 5.2): additionally intersects all valid
  /// selection conjuncts via the canonical-box decomposition. EXPTIME in
  /// general, PTIME for bounded schema arity; the box cap turns blowups
  /// into ResourceExhausted.
  Result<LsConcept> LubWithSelections(const std::vector<Value>& x);

  /// Variant for callers that already hold X sort-deduplicated (the
  /// concept cache probes with canonical keys): skips the defensive
  /// copy + sort the general entry point pays. Results are bit-identical
  /// to LubWithSelections — lub is a function of the set.
  Result<LsConcept> LubWithSelectionsSorted(const std::vector<Value>& sorted_x);

  /// Column signatures, the selection-free lub's key. Columns are numbered
  /// relation by relation in schema order, attribute by attribute — the
  /// order LubSelectionFree emits its projections in — and sig(v) is the
  /// set of columns whose distinct projection holds v, a bitset of
  /// SignatureWords() words. A value outside the pool (or interned after
  /// the table was built) has the empty signature. Over selection-free LS,
  /// lub(X) for |X| ≥ 2 is the conjunction of the projections in
  /// sig(X) = ∧_{x ∈ X} sig(x) (the formal-concept intent of X), so it
  /// depends on X only through sig(X); a singleton adds its nominal.
  /// The table is built on first use from the column indexes' distinct
  /// bitmaps.
  size_t SignatureWords() const { return sig_words_; }
  /// sig(v) for a pool id (-1 for values outside the pool): a pointer to
  /// SignatureWords() words, valid for the context's lifetime.
  const uint64_t* Signature(ValueId id) const {
    if (!sig_built_) BuildSignatures();
    size_t row = static_cast<size_t>(id) * sig_words_;
    if (id < 0 || row >= sig_table_.size()) return empty_sig_.data();
    return sig_table_.data() + row;
  }
  /// sig(X) = ∧_{x ∈ X} sig(x) of a non-empty X.
  std::vector<uint64_t> SignatureOf(const std::vector<Value>& x) const;
  /// The selection-free lub of any X with signature `sig` (SignatureWords()
  /// words): the nominal {*nominal} when X = {*nominal}, then π_A(R) for
  /// every column in `sig`, in column order — bit-identical to
  /// LubSelectionFree(X).
  LsConcept LubOfSignature(const uint64_t* sig,
                           const Value* nominal = nullptr) const;

  /// Number of canonical boxes enumerated for `relation` (0 before first
  /// use); exposed for the Lemma 5.2 benchmarks.
  size_t NumBoxes(const std::string& relation);

  /// All distinct selection conjuncts of `relation` — one single-conjunct
  /// concept π_A(σ_box(R)) per (attribute, canonical box) pair. Used when
  /// materializing the full-LS fragment of OI[K] (Proposition 4.2's
  /// intersection-free count).
  Result<std::vector<LsConcept>> CanonicalSelectionConcepts(
      const std::string& relation);

 private:
  struct Box {
    std::vector<Selection> selections;
    std::vector<uint32_t> tuple_indices;  // sorted
    // Per-attribute distinct projection as pool ids in rank order, sized
    // by the relation arity; an empty inner vector means "not yet
    // computed" (boxes always select at least one tuple, so real
    // projections are non-empty). Id space: the validity test against X
    // is an integer std::includes, no boxed Values.
    std::vector<std::vector<ValueId>> id_projections;
  };
  struct RelationBoxes {
    bool built = false;
    Status build_status;
    std::vector<Box> boxes;
  };
  /// Id-space mirror of one distinct column: the ids in rank order.
  struct IdColumn {
    std::vector<ValueId> rank_sorted;
  };
  /// Column c of the signature numbering: relation index and attribute.
  struct SigColumn {
    size_t rel_idx;
    int attr;
  };

  /// Dense index of `relation` in the schema's relation list, or SIZE_MAX.
  /// All per-relation caches are vectors over this index — one hash lookup
  /// per call instead of a string-keyed tree walk.
  size_t RelIndex(const std::string& relation) const;

  Status BuildBoxes(size_t rel_idx, RelationBoxes* out) const;
  RelationBoxes& BoxesFor(size_t rel_idx);

  /// Sorted distinct values per attribute of the relation, built once and
  /// cached (mutable: LubSelectionFree is logically const). NOTE: the lazy
  /// mutable caches make a LubContext single-threaded, const methods
  /// included; give each thread its own context.
  const std::vector<std::vector<Value>>& ColumnsFor(size_t rel_idx) const;
  /// Id-space mirror of ColumnsFor, built together with it.
  const std::vector<IdColumn>& IdColumnsFor(size_t rel_idx) const;
  /// Cold path of ColumnsFor: materializes the columns from the store.
  void BuildColumns(size_t rel_idx) const;
  /// Cold path of Signature: fills the table.
  void BuildSignatures() const;

  const rel::Instance* instance_;
  LubOptions options_;
  std::unordered_map<std::string, size_t> rel_index_;
  std::vector<RelationBoxes> boxes_;
  mutable std::vector<std::vector<std::vector<Value>>> columns_;
  mutable std::vector<std::vector<IdColumn>> id_columns_;
  mutable std::vector<bool> columns_built_;
  // Signature table: SignatureWords() words per pool id, row-major.
  std::vector<SigColumn> sig_columns_;
  size_t sig_words_ = 0;
  mutable std::vector<uint64_t> sig_table_;
  mutable bool sig_built_ = false;
  // The all-zero signature served to ids outside the table.
  std::vector<uint64_t> empty_sig_;
};

}  // namespace whynot::ls

#endif  // WHYNOT_CONCEPTS_LUB_H_
