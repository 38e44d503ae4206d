#ifndef WHYNOT_ONTOLOGY_EXT_SET_H_
#define WHYNOT_ONTOLOGY_EXT_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "whynot/common/dense_bitmap.h"
#include "whynot/common/value.h"

namespace whynot::onto {

/// The word-parallel bitmap kernel now lives in common/ (the relational
/// column indexes share it); the alias keeps onto::DenseBitmap spelling.
using whynot::DenseBitmap;

/// The extension of a concept with respect to an instance: either a finite
/// set of interned constants, or symbolically *all* of Const (the extension
/// of ⊤ and of any concept equivalent to it).
///
/// Ids refer to a ValuePool owned by the surrounding BoundOntology /
/// algorithm context. Finite sets keep a sorted, deduplicated id vector
/// (the canonical representation: iteration, equality, printing) and — when
/// the set is dense enough in its id universe — a DenseBitmap mirror that
/// makes Contains O(1) and SubsetOf/Intersect word-parallel. The density
/// switch builds the bitmap iff it costs at most kMaxWordsPerElement words
/// per element (or the universe is trivially small), capping bitmap memory
/// at 64 bytes per stored id.
class ExtSet {
 public:
  /// Bitmap representation threshold: build iff
  ///   words(universe) <= max(kMinWords, kMaxWordsPerElement * |S|).
  /// (Aliases of the shared constants in common/dense_bitmap.h — every
  /// sparse/dense choice in the engine uses the same measured numbers.)
  static constexpr size_t kMaxWordsPerElement =
      whynot::kDenseMirrorMaxWordsPerElement;
  static constexpr size_t kMinWords = whynot::kDenseMirrorMinWords;

  /// The empty extension.
  ExtSet() = default;

  /// A finite extension; `ids` need not be sorted. Builds the bitmap
  /// mirror automatically when the density heuristic allows.
  static ExtSet Finite(std::vector<ValueId> ids);

  /// The extension Const (countably infinite).
  static ExtSet All();

  bool is_all() const { return all_; }
  bool empty() const { return !all_ && ids_.empty(); }

  /// Number of elements; meaningless if is_all() (asserts in debug).
  size_t size() const { return ids_.size(); }

  /// Sorted ids; requires !is_all().
  const std::vector<ValueId>& ids() const { return ids_; }

  /// Inline: one bitmap word test on the (warm) extension-table path,
  /// binary search otherwise.
  bool Contains(ValueId id) const {
    if (all_) return true;
    if (!bits_.empty()) return bits_.Test(id);
    return ContainsSlow(id);
  }

  /// Set containment: *this ⊆ other (All ⊆ only All).
  bool SubsetOf(const ExtSet& other) const;

  /// Set intersection.
  ExtSet Intersect(const ExtSet& other) const;

  bool operator==(const ExtSet& other) const {
    return all_ == other.all_ && ids_ == other.ids_;
  }

  /// Whether the bitmap mirror is present (exposed for tests/benchmarks).
  bool has_bitmap() const { return !bits_.empty(); }

  /// Heap + object bytes this set occupies (ids plus any mirror).
  size_t MemoryBytes() const;

  /// "{a, b, c}" or "Const" using the pool for names.
  std::string ToString(const ValuePool& pool) const;

 private:
  bool ContainsSlow(ValueId id) const;

  bool all_ = false;
  std::vector<ValueId> ids_;
  DenseBitmap bits_;   // empty unless the density switch materialized it;
                       // always mirrors ids_ when present
};

/// Interns a list of values into the pool and returns their ExtSet.
ExtSet InternValues(const std::vector<Value>& values, ValuePool* pool);

}  // namespace whynot::onto

#endif  // WHYNOT_ONTOLOGY_EXT_SET_H_
