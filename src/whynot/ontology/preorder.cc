#include "whynot/ontology/preorder.h"

namespace whynot::onto {

int32_t BoolMatrix::RowCount(int32_t i) const {
  const uint64_t* row = RowWords(i);
  int32_t count = 0;
  for (size_t w = 0; w < words_per_row_; ++w) {
    count += static_cast<int32_t>(__builtin_popcountll(row[w]));
  }
  return count;
}

void ReflexiveTransitiveClosure(BoolMatrix* m) {
  int32_t n = m->size();
  for (int32_t i = 0; i < n; ++i) m->Set(i, i);
  for (int32_t k = 0; k < n; ++k) {
    for (int32_t i = 0; i < n; ++i) {
      if (i != k && m->Get(i, k)) m->RowOr(i, k);
    }
  }
}

namespace {

/// Calls `fn(j)` for every set column j of row i, in increasing order,
/// until fn returns false. Iterates set bits word-by-word, skipping the
/// zero words a sparse closure row mostly consists of.
template <typename Fn>
void ForEachInRow(const BoolMatrix& m, int32_t i, Fn fn) {
  const uint64_t* row = m.RowWords(i);
  for (size_t w = 0; w < m.words_per_row(); ++w) {
    uint64_t word = row[w];
    while (word != 0) {
      int bit = __builtin_ctzll(word);
      if (!fn(static_cast<int32_t>(w * 64 + static_cast<size_t>(bit)))) {
        return;
      }
      word &= word - 1;
    }
  }
}

/// Representative (smallest id) of i's equivalence class under ⊑∩⊒.
int32_t ClassRep(const BoolMatrix& closure, int32_t i) {
  int32_t rep = i;
  ForEachInRow(closure, i, [&](int32_t j) {
    if (closure.Get(j, i)) {
      rep = j;  // smallest such j: bits come in increasing order
      return false;
    }
    return true;
  });
  return rep;
}

/// Any set bit in rows a AND b.
bool AnyRowAnd(const uint64_t* a, const uint64_t* b, size_t nwords) {
  for (size_t w = 0; w < nwords; ++w) {
    if (a[w] & b[w]) return true;
  }
  return false;
}

}  // namespace

std::vector<int32_t> EquivalenceClassReps(const BoolMatrix& closure) {
  int32_t n = closure.size();
  std::vector<int32_t> rep(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    rep[static_cast<size_t>(i)] = ClassRep(closure, i);
  }
  return rep;
}

std::vector<std::pair<int32_t, int32_t>> HasseEdges(const BoolMatrix& closure) {
  int32_t n = closure.size();
  std::vector<int32_t> rep = EquivalenceClassReps(closure);
  // Materialize the strict order as row bitmaps in both directions: row i
  // of `strict_up` is {k : i ⊏ k}, row j of `strict_down` is {k : k ⊏ j}.
  // A strict pair (i, j) is then a cover edge iff strict_up(i) and
  // strict_down(j) share no element — one word-parallel AND-any instead
  // of the scalar k-scan, and intermediates that are non-representatives
  // witness exactly when their representative does, so no rep filtering
  // is needed inside the test.
  BoolMatrix strict_up(n), strict_down(n);
  for (int32_t i = 0; i < n; ++i) {
    ForEachInRow(closure, i, [&](int32_t j) {
      if (i != j && !closure.Get(j, i)) {
        strict_up.Set(i, j);
        strict_down.Set(j, i);
      }
      return true;
    });
  }
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t i = 0; i < n; ++i) {
    if (rep[static_cast<size_t>(i)] != i) continue;
    ForEachInRow(strict_up, i, [&](int32_t j) {
      if (rep[static_cast<size_t>(j)] != j) return true;
      if (!AnyRowAnd(strict_up.RowWords(i), strict_down.RowWords(j),
                     closure.words_per_row())) {
        edges.emplace_back(i, j);
      }
      return true;
    });
  }
  return edges;
}

std::vector<int32_t> MaximalElements(const BoolMatrix& closure) {
  int32_t n = closure.size();
  std::vector<int32_t> out;
  for (int32_t i = 0; i < n; ++i) {
    bool maximal = true;
    // i is maximal iff every j above it (a set bit of row i) is also
    // below it; only the set bits need visiting.
    ForEachInRow(closure, i, [&](int32_t j) {
      if (i != j && !closure.Get(j, i)) {
        maximal = false;
        return false;
      }
      return true;
    });
    if (maximal) out.push_back(i);
  }
  return out;
}

std::string HasseToString(const BoolMatrix& closure,
                          const std::vector<std::string>& names) {
  std::string out;
  for (const auto& [child, parent] : HasseEdges(closure)) {
    out += names[static_cast<size_t>(child)] + " -> " +
           names[static_cast<size_t>(parent)] + "\n";
  }
  return out;
}

}  // namespace whynot::onto
