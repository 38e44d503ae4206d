#ifndef WHYNOT_COMMON_ALGORITHM_H_
#define WHYNOT_COMMON_ALGORITHM_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace whynot {

/// Boost-style hash combine; good enough for bucket placement.
inline size_t HashMix(size_t h, size_t x) {
  return h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/// Sorts `v` and drops duplicates — the canonical-set idiom used for
/// extensions, answer lists, and column caches throughout.
template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Grows `v` by `added.size()` elements that land at the final positions
/// `added` (ascending, each below the new size); inserted element `a` is
/// `make(a)`. The old elements keep their order: one backward pass moves
/// each one after the first insertion point once, and leaves the prefix
/// before it untouched — the in-place form of merging a few sorted rows
/// into a long sorted vector.
template <typename T, typename Make>
void InsertAtPositions(std::vector<T>* v, const std::vector<size_t>& added,
                       Make make) {
  size_t src = v->size();
  size_t a = added.size();
  v->resize(src + a);
  for (size_t i = v->size(); a > 0;) {
    --i;
    if (added[a - 1] == i) {
      (*v)[i] = make(--a);
    } else {
      (*v)[i] = std::move((*v)[--src]);
    }
  }
}

}  // namespace whynot

#endif  // WHYNOT_COMMON_ALGORITHM_H_
