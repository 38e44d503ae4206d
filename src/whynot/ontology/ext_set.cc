#include "whynot/ontology/ext_set.h"

#include <algorithm>
#include <cassert>

#include "whynot/common/algorithm.h"
#include "whynot/common/strings.h"

namespace whynot::onto {

namespace {

size_t WordsFor(int32_t universe) {
  return (static_cast<size_t>(universe) + 63) / 64;
}

/// The density switch: mirror `ids` as a bitmap iff the bitmap costs at
/// most kMaxWordsPerElement words per element, or is trivially small.
bool DenseEnough(size_t num_ids, size_t num_words) {
  if (num_ids == 0) return false;
  return num_words <= ExtSet::kMinWords ||
         num_words <= ExtSet::kMaxWordsPerElement * num_ids;
}

}  // namespace

ExtSet ExtSet::Finite(std::vector<ValueId> ids) {
  SortUnique(&ids);
  ExtSet s;
  s.ids_ = std::move(ids);
  if (!s.ids_.empty() &&
      DenseEnough(s.ids_.size(), WordsFor(s.ids_.back() + 1))) {
    s.bits_ = DenseBitmap(s.ids_);
  }
  return s;
}

ExtSet ExtSet::All() {
  ExtSet s;
  s.all_ = true;
  return s;
}

size_t ExtSet::MemoryBytes() const {
  return sizeof(*this) + ids_.capacity() * sizeof(ValueId) +
         (bits_.MemoryBytes() - sizeof(DenseBitmap));
}

bool ExtSet::ContainsSlow(ValueId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool ExtSet::SubsetOf(const ExtSet& other) const {
  if (other.all_) return true;
  if (all_) return false;
  if (has_bitmap() && other.has_bitmap()) {
    return bits_.SubsetOf(other.bits_);
  }
  if (other.has_bitmap()) {
    // Mixed representations: probe our (sorted, usually small) id list
    // against the other side's O(1) membership.
    for (ValueId id : ids_) {
      if (!other.Contains(id)) return false;
    }
    return true;
  }
  return std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                       ids_.end());
}

ExtSet ExtSet::Intersect(const ExtSet& other) const {
  if (all_) return other;
  if (other.all_) return *this;
  if (has_bitmap() && other.has_bitmap()) {
    ExtSet out;
    out.bits_ = DenseBitmap::Intersect(bits_, other.bits_);
    out.ids_ = out.bits_.ToIds();
    if (out.ids_.empty()) out.bits_ = DenseBitmap();
    return out;
  }
  std::vector<ValueId> ids;
  std::set_intersection(ids_.begin(), ids_.end(), other.ids_.begin(),
                        other.ids_.end(), std::back_inserter(ids));
  return Finite(std::move(ids));
}

std::string ExtSet::ToString(const ValuePool& pool) const {
  if (all_) return "Const";
  std::vector<std::string> parts;
  parts.reserve(ids_.size());
  for (ValueId id : ids_) parts.push_back(pool.Get(id).ToString());
  return "{" + Join(parts, ", ") + "}";
}

ExtSet InternValues(const std::vector<Value>& values, ValuePool* pool) {
  std::vector<ValueId> ids;
  ids.reserve(values.size());
  for (const Value& v : values) ids.push_back(pool->Intern(v));
  return ExtSet::Finite(std::move(ids));
}

}  // namespace whynot::onto
