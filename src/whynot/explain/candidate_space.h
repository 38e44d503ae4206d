#ifndef WHYNOT_EXPLAIN_CANDIDATE_SPACE_H_
#define WHYNOT_EXPLAIN_CANDIDATE_SPACE_H_

#include <cstddef>
#include <vector>

#include "whynot/ontology/ontology.h"

namespace whynot::explain {

/// The candidate product space of per-position concept lists (line 2 of
/// Algorithm 1), linearized in the serial odometer's order: position 0
/// advances fastest, so linear index L maps to
///   idx[i] = (L / stride_i) % |lists[i]|,  stride_0 = 1,
///   stride_{i+1} = stride_i * |lists[i]|.
/// The pooled odometer (ParallelFilterSpace) shards [0, total) into index
/// ranges and merges per-range results in range order, which reproduces
/// the serial enumeration order exactly.
///
/// Overflow guard: wide arities × large cover lists can push the product
/// past SIZE_MAX. The constructor detects that (overflow()) instead of
/// wrapping; `total()` and `Decode` are then meaningless, but the
/// odometer operations (`Advance`, `AdvanceBy`, `RemainingFrom`) remain
/// exact, so ParallelFilterSpace (search_core.h) falls back to
/// prefix-chunked odometer iteration and still enumerates the space in
/// the serial order until the caller stops it.
class CandidateSpace {
 public:
  explicit CandidateSpace(
      const std::vector<std::vector<onto::ConceptId>>& lists)
      : lists_(&lists) {
    total_ = lists.empty() ? 0 : 1;
    // An empty list empties the space even after the running product has
    // overflowed, so every list is looked at.
    for (const auto& list : lists) {
      if (list.empty()) {
        total_ = 0;
        overflow_ = false;
        return;
      }
      if (!overflow_ &&
          __builtin_mul_overflow(total_, list.size(), &total_)) {
        overflow_ = true;
      }
    }
  }

  /// Number of odometer positions (the query arity).
  size_t arity() const { return lists_->size(); }
  /// Product of the list sizes; meaningless when overflow().
  size_t total() const { return total_; }
  /// The product exceeds SIZE_MAX (and therefore any candidate budget).
  bool overflow() const { return overflow_; }

  /// Odometer position of linear index `linear` (idx sized to the arity).
  void Decode(size_t linear, std::vector<size_t>* idx) const {
    idx->resize(lists_->size());
    for (size_t i = 0; i < lists_->size(); ++i) {
      size_t len = (*lists_)[i].size();
      (*idx)[i] = linear % len;
      linear /= len;
    }
  }

  /// Advances the odometer one step (position 0 fastest); returns false
  /// when it wraps past the end.
  bool Advance(std::vector<size_t>* idx) const {
    size_t i = 0;
    while (i < idx->size() && ++(*idx)[i] == (*lists_)[i].size()) {
      (*idx)[i] = 0;
      ++i;
    }
    return i < idx->size();
  }

  /// Advances the odometer `steps` positions in one mixed-radix add with
  /// carry — O(arity), no linearization, exact even when total()
  /// overflows. The caller must know the space does not wrap within
  /// `steps` (see RemainingFrom).
  void AdvanceBy(std::vector<size_t>* idx, size_t steps) const {
    size_t carry = steps;
    for (size_t i = 0; i < idx->size() && carry != 0; ++i) {
      size_t len = (*lists_)[i].size();
      size_t sum = (*idx)[i] + carry;
      (*idx)[i] = sum % len;
      carry = sum / len;
    }
  }

  /// Candidates from `idx` (inclusive) to the end of the space, saturated
  /// at SIZE_MAX when the count does not fit a word — enough to bound any
  /// chunk length, which is all the prefix-chunked iteration needs.
  size_t RemainingFrom(const std::vector<size_t>& idx) const {
    if (lists_->empty()) return 0;
    size_t remaining = 1;  // the candidate at idx itself
    size_t stride = 1;
    bool saturated = false;
    for (size_t i = 0; i < lists_->size(); ++i) {
      size_t len = (*lists_)[i].size();
      size_t above = len - 1 - idx[i];
      size_t term;
      if (saturated ? above > 0
                    : (__builtin_mul_overflow(above, stride, &term) ||
                       __builtin_add_overflow(remaining, term, &remaining))) {
        return SIZE_MAX;
      }
      if (!saturated && __builtin_mul_overflow(stride, len, &stride)) {
        // Strides past this position overflow; any non-zero `above` there
        // saturates the count.
        saturated = true;
      }
    }
    return remaining;
  }

 private:
  const std::vector<std::vector<onto::ConceptId>>* lists_;
  size_t total_ = 0;
  bool overflow_ = false;
};

/// The linearization order on odometer positions, without computing linear
/// indices (which overflow on the spaces the frontier enumerator serves):
/// position 0 advances fastest, so the last differing position decides.
/// The dominance-pruned frontier sorts every wave and its survivor replay
/// with this comparator to reproduce the serial odometer's order exactly.
template <typename IndexVec>
bool LinearOrderLess(const IndexVec& a, const IndexVec& b) {
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_CANDIDATE_SPACE_H_
