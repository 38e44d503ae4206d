// Property tests for the word-parallel kernel: the DenseBitmap-backed
// ExtSet operations must agree with the sorted-vector reference semantics
// on randomized pools, and the blocked (64-bit-row) Warshall closure must
// match the per-bit reference algorithm on random preorders.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "test_util.h"

namespace whynot {
namespace {

/// Deterministic LCG so failures reproduce without a seed report.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

std::vector<ValueId> RandomIds(Rng* rng, int32_t universe, size_t count) {
  std::vector<ValueId> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<ValueId>(rng->Below(
        static_cast<uint64_t>(universe))));
  }
  return ids;
}

// A set holding exactly `ids` that keeps a dense mirror however sparse it
// is in `universe`: the intersection of two dense sets (`ids` plus the ids
// ≡ 0 mod 64, and `ids` plus the ids ≡ 32 mod 64), since the bitmap-bitmap
// Intersect keeps its mirror.
onto::ExtSet SparseMirror(const std::vector<ValueId>& ids, int32_t universe) {
  std::vector<ValueId> left = ids;
  std::vector<ValueId> right = ids;
  for (ValueId id = 0; id < universe; id += 64) left.push_back(id);
  for (ValueId id = 32; id < universe; id += 64) right.push_back(id);
  return onto::ExtSet::Finite(std::move(left))
      .Intersect(onto::ExtSet::Finite(std::move(right)));
}

// --- scalar reference implementations ------------------------------------

bool RefContains(const std::vector<ValueId>& sorted, ValueId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

bool RefSubsetOf(const std::vector<ValueId>& a, const std::vector<ValueId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

std::vector<ValueId> RefIntersect(const std::vector<ValueId>& a,
                                  const std::vector<ValueId>& b) {
  std::vector<ValueId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(KernelPropertyTest, BitmapExtSetMatchesSortedVectorReference) {
  Rng rng(0xC0FFEE);
  // Sweep universes across the density switch: tiny (always bitmap),
  // medium, and sparse-in-large (vector-only unless mirrored).
  const int32_t universes[] = {8, 64, 200, 1024, 5000, 100000};
  for (int32_t universe : universes) {
    for (int round = 0; round < 20; ++round) {
      size_t na = rng.Below(static_cast<uint64_t>(universe) / 2 + 2);
      size_t nb = rng.Below(static_cast<uint64_t>(universe) / 2 + 2);
      onto::ExtSet a = onto::ExtSet::Finite(RandomIds(&rng, universe, na));
      onto::ExtSet b = onto::ExtSet::Finite(RandomIds(&rng, universe, nb));
      // Occasionally give both sides a mirror however sparse they are, so
      // the word-parallel paths are exercised on sparse sets too.
      if (round % 3 == 0) {
        a = SparseMirror(a.ids(), universe);
        b = SparseMirror(b.ids(), universe);
      }
      // Also test subset relationships that actually hold, not just
      // random pairs (which are almost never subsets).
      onto::ExtSet sub = a.Intersect(b);

      for (int probe = 0; probe < 50; ++probe) {
        ValueId id = static_cast<ValueId>(
            rng.Below(static_cast<uint64_t>(universe) + 64));
        EXPECT_EQ(a.Contains(id), RefContains(a.ids(), id))
            << "universe=" << universe << " id=" << id;
      }
      EXPECT_EQ(a.SubsetOf(b), RefSubsetOf(a.ids(), b.ids()));
      EXPECT_EQ(b.SubsetOf(a), RefSubsetOf(b.ids(), a.ids()));
      EXPECT_TRUE(sub.SubsetOf(a));
      EXPECT_TRUE(sub.SubsetOf(b));
      EXPECT_EQ(a.Intersect(b).ids(), RefIntersect(a.ids(), b.ids()));
      EXPECT_EQ(a.SubsetOf(a), true);
      EXPECT_EQ(a.Intersect(a), a);
    }
  }
}

TEST(KernelPropertyTest, MixedRepresentationPairsAgree) {
  // One side bitmap-backed, the other sparse vector-only: operations must
  // still agree with the reference (they fall back to the scalar path).
  Rng rng(0xBEEF);
  const int32_t universe = 1 << 20;  // large enough that sparse sets skip
                                     // the bitmap
  for (int round = 0; round < 30; ++round) {
    onto::ExtSet sparse =
        onto::ExtSet::Finite(RandomIds(&rng, universe, 5));
    ASSERT_FALSE(sparse.has_bitmap());
    onto::ExtSet dense = SparseMirror(sparse.ids(), universe);
    ASSERT_TRUE(dense.has_bitmap());
    ASSERT_EQ(dense.ids(), sparse.ids());
    onto::ExtSet other = onto::ExtSet::Finite(RandomIds(&rng, universe, 5));

    EXPECT_EQ(dense.SubsetOf(other), RefSubsetOf(dense.ids(), other.ids()));
    EXPECT_EQ(other.SubsetOf(dense), RefSubsetOf(other.ids(), dense.ids()));
    EXPECT_TRUE(sparse.SubsetOf(dense));
    EXPECT_TRUE(dense.SubsetOf(sparse));
    EXPECT_EQ(dense.Intersect(other).ids(),
              RefIntersect(dense.ids(), other.ids()));
  }
}

TEST(KernelPropertyTest, AllSemanticsUnchangedByBitmaps) {
  onto::ExtSet all = onto::ExtSet::All();
  onto::ExtSet fin = onto::ExtSet::Finite({1, 2, 3});
  ASSERT_TRUE(fin.has_bitmap());
  EXPECT_TRUE(fin.SubsetOf(all));
  EXPECT_FALSE(all.SubsetOf(fin));
  EXPECT_EQ(all.Intersect(fin), fin);
  EXPECT_EQ(fin.Intersect(all), fin);
  EXPECT_TRUE(all.Contains(1 << 30));
}

TEST(KernelPropertyTest, DensitySwitchBuildsBitmapOnlyWhenDense) {
  // Dense set in a small universe: bitmap mirror present.
  std::vector<ValueId> dense_ids;
  for (ValueId i = 0; i < 100; ++i) dense_ids.push_back(i * 3);
  onto::ExtSet dense = onto::ExtSet::Finite(dense_ids);
  EXPECT_TRUE(dense.has_bitmap());

  // A handful of ids spread over a huge universe: vector-only.
  onto::ExtSet sparse = onto::ExtSet::Finite({0, 1 << 28, 1 << 29});
  EXPECT_FALSE(sparse.has_bitmap());
  // Correctness is unaffected.
  EXPECT_TRUE(sparse.Contains(1 << 28));
  EXPECT_FALSE(sparse.Contains(7));
}

TEST(KernelPropertyTest, FreezeLeavesSparseSetsAsIdVectors) {
  // A set too sparse for the density rule keeps its sorted id vector —
  // ExtSet::Finite decides once, over the id-local universe — and every
  // operation still agrees with the reference over it.
  Rng rng(0xF4EE2E);
  const int32_t universe = 1 << 20;
  // A dense set (a mirror over the same universe) for mixed pairs.
  std::vector<ValueId> dense_ids;
  for (ValueId i = 0; i < universe; i += 4) dense_ids.push_back(i);
  onto::ExtSet dense = onto::ExtSet::Finite(dense_ids);
  ASSERT_TRUE(dense.has_bitmap());
  for (int round = 0; round < 30; ++round) {
    onto::ExtSet a = onto::ExtSet::Finite(RandomIds(&rng, universe, 6));
    onto::ExtSet b = onto::ExtSet::Finite(RandomIds(&rng, universe, 6));
    ASSERT_FALSE(a.has_bitmap());
    ASSERT_FALSE(b.has_bitmap());
    onto::ExtSet sub = a.Intersect(b);
    for (ValueId id : a.ids()) EXPECT_TRUE(a.Contains(id));
    for (int probe = 0; probe < 50; ++probe) {
      ValueId id =
          static_cast<ValueId>(rng.Below(static_cast<uint64_t>(universe)));
      EXPECT_EQ(a.Contains(id), RefContains(a.ids(), id)) << "id=" << id;
    }
    EXPECT_EQ(a.SubsetOf(b), RefSubsetOf(a.ids(), b.ids()));
    EXPECT_TRUE(sub.SubsetOf(a));
    EXPECT_TRUE(sub.SubsetOf(b));
    EXPECT_EQ(a.Intersect(b).ids(), RefIntersect(a.ids(), b.ids()));
    // Both argument orders of the mixed pair agree too.
    EXPECT_EQ(a.SubsetOf(dense), RefSubsetOf(a.ids(), dense.ids()));
    EXPECT_FALSE(dense.SubsetOf(a));
    EXPECT_EQ(a.Intersect(dense).ids(), RefIntersect(a.ids(), dense.ids()));
    EXPECT_EQ(dense.Intersect(a).ids(), RefIntersect(dense.ids(), a.ids()));
  }
}

// --- Warshall closure ------------------------------------------------------

/// Per-bit reference Warshall over a vector<vector<bool>> adjacency.
std::vector<std::vector<bool>> RefClosure(std::vector<std::vector<bool>> m) {
  size_t n = m.size();
  for (size_t i = 0; i < n; ++i) m[i][i] = true;
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!m[i][k]) continue;
      for (size_t j = 0; j < n; ++j) {
        if (m[k][j]) m[i][j] = true;
      }
    }
  }
  return m;
}

TEST(KernelPropertyTest, BlockedClosureMatchesPerBitWarshall) {
  Rng rng(0xD1CE);
  // Sizes straddling the 64-bit word boundary: 1 word, exactly 1 word,
  // just over, several words.
  const int32_t sizes[] = {1, 3, 17, 63, 64, 65, 130, 257};
  for (int32_t n : sizes) {
    for (int round = 0; round < 5; ++round) {
      // Random edge density between ~2% and ~30%.
      uint64_t denom = 3 + rng.Below(47);
      onto::BoolMatrix m(n);
      std::vector<std::vector<bool>> ref(
          static_cast<size_t>(n), std::vector<bool>(static_cast<size_t>(n)));
      for (int32_t i = 0; i < n; ++i) {
        for (int32_t j = 0; j < n; ++j) {
          if (rng.Below(denom) == 0) {
            m.Set(i, j);
            ref[static_cast<size_t>(i)][static_cast<size_t>(j)] = true;
          }
        }
      }
      onto::ReflexiveTransitiveClosure(&m);
      std::vector<std::vector<bool>> expected = RefClosure(std::move(ref));
      for (int32_t i = 0; i < n; ++i) {
        for (int32_t j = 0; j < n; ++j) {
          ASSERT_EQ(m.Get(i, j),
                    expected[static_cast<size_t>(i)][static_cast<size_t>(j)])
              << "n=" << n << " round=" << round << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelPropertyTest, RowOpsMatchCellOps) {
  Rng rng(0xFEED);
  onto::BoolMatrix m(130);
  for (int32_t i = 0; i < 130; ++i) {
    for (int32_t j = 0; j < 130; ++j) {
      if (rng.Below(4) == 0) m.Set(i, j);
    }
  }
  for (int32_t i = 0; i < 130; ++i) {
    int32_t count = 0;
    for (int32_t j = 0; j < 130; ++j) count += m.Get(i, j) ? 1 : 0;
    EXPECT_EQ(m.RowCount(i), count);
    for (int32_t other = 0; other < 130; other += 17) {
      bool subset = true;
      for (int32_t j = 0; j < 130 && subset; ++j) {
        if (m.Get(i, j) && !m.Get(other, j)) subset = false;
      }
      EXPECT_EQ(m.RowSubsetOf(i, other), subset);
    }
  }
  // RowOr equals cellwise OR.
  onto::BoolMatrix before = m;
  m.RowOr(3, 7);
  for (int32_t j = 0; j < 130; ++j) {
    EXPECT_EQ(m.Get(3, j), before.Get(3, j) || before.Get(7, j));
  }
}

}  // namespace
}  // namespace whynot
