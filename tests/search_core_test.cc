// Tests for the shared explain search core (search_core.h): the chunked
// candidate filter's order/abort semantics — including the prefix-chunked
// odometer fallback for spaces whose linearized product overflows
// uint64_t — the lex-min outcome sweep, the greedy prefix/suffix AND
// cache, and the CandidateSpace odometer arithmetic they build on. Every
// parallel path is compared against the 1-thread serial reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "whynot/common/parallel.h"
#include "whynot/explain/search_core.h"

namespace whynot::explain {
namespace {

/// Candidate lists of the given sizes; the concept ids themselves are
/// irrelevant to the odometer machinery.
std::vector<std::vector<onto::ConceptId>> ListsOfSizes(
    const std::vector<size_t>& sizes) {
  std::vector<std::vector<onto::ConceptId>> lists(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    for (size_t j = 0; j < sizes[i]; ++j) {
      lists[i].push_back(static_cast<onto::ConceptId>(j));
    }
  }
  return lists;
}

/// Deterministic pseudo-random predicate of the odometer position.
bool HashPred(const std::vector<size_t>& idx) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t v : idx) h = (h ^ v) * 0x2545f4914f6cdd1dull;
  return (h >> 13) % 3 == 0;
}

TEST(CandidateSpaceTest, AdvanceByMatchesRepeatedAdvance) {
  auto lists = ListsOfSizes({3, 4, 2, 5});
  CandidateSpace space(lists);
  ASSERT_FALSE(space.overflow());
  ASSERT_EQ(space.total(), 120u);
  for (size_t start : {size_t{0}, size_t{7}, size_t{59}, size_t{119}}) {
    for (size_t steps : {size_t{0}, size_t{1}, size_t{13}, size_t{60}}) {
      if (start + steps >= space.total()) continue;
      std::vector<size_t> a;
      space.Decode(start, &a);
      std::vector<size_t> b = a;
      space.AdvanceBy(&a, steps);
      for (size_t k = 0; k < steps; ++k) ASSERT_TRUE(space.Advance(&b));
      EXPECT_EQ(a, b) << "start=" << start << " steps=" << steps;
    }
  }
}

TEST(CandidateSpaceTest, RemainingFromMatchesLinearDistance) {
  auto lists = ListsOfSizes({3, 4, 2, 5});
  CandidateSpace space(lists);
  for (size_t linear : {size_t{0}, size_t{1}, size_t{60}, size_t{119}}) {
    std::vector<size_t> idx;
    space.Decode(linear, &idx);
    EXPECT_EQ(space.RemainingFrom(idx), space.total() - linear);
  }
}

TEST(CandidateSpaceTest, WideProductOverflowsWithoutWrapping) {
  // 16 positions × 16 candidates = 16^16 = 2^64: one past SIZE_MAX.
  auto lists = ListsOfSizes(std::vector<size_t>(16, 16));
  CandidateSpace space(lists);
  EXPECT_TRUE(space.overflow());
  // The odometer arithmetic stays exact: remaining saturates, AdvanceBy
  // still lands where repeated Advance does.
  std::vector<size_t> idx(16, 0);
  EXPECT_EQ(space.RemainingFrom(idx), SIZE_MAX);
  std::vector<size_t> a = idx, b = idx;
  space.AdvanceBy(&a, 100000);
  for (int k = 0; k < 100000; ++k) ASSERT_TRUE(space.Advance(&b));
  EXPECT_EQ(a, b);
  // Near the very end the saturation resolves to the exact distance.
  std::vector<size_t> tail(16, 15);
  EXPECT_EQ(space.RemainingFrom(tail), 1u);
  tail[0] = 10;
  EXPECT_EQ(space.RemainingFrom(tail), 6u);
}

TEST(ParallelFilterTest, SurvivorOrderMatchesSerialAtEveryThreadCount) {
  // 70 × 70 × 41 = 200900 candidates: three full chunks plus a partial
  // one, so the chunk loop, the block merge, and the final partial chunk
  // all execute.
  auto lists = ListsOfSizes({70, 70, 41});
  CandidateSpace space(lists);
  ASSERT_EQ(space.total(), 200900u);

  std::vector<std::vector<size_t>> reference;
  par::SetNumThreads(1);
  ASSERT_TRUE(ParallelFilterSpace(space, HashPred,
                                  [&](const std::vector<size_t>& idx) {
                                    reference.push_back(idx);
                                    return true;
                                  })
                  .ok());
  EXPECT_GT(reference.size(), 0u);

  for (int threads : {2, 8}) {
    par::SetNumThreads(threads);
    std::vector<std::vector<size_t>> got;
    ASSERT_TRUE(ParallelFilterSpace(space, HashPred,
                                    [&](const std::vector<size_t>& idx) {
                                      got.push_back(idx);
                                      return true;
                                    })
                    .ok());
    EXPECT_EQ(got, reference) << "threads=" << threads;
  }
  par::SetNumThreads(0);
}

TEST(ParallelFilterTest, ConsumeAbortStopsEnumeration) {
  auto lists = ListsOfSizes({70, 70, 41});
  CandidateSpace space(lists);
  for (int threads : {1, 8}) {
    par::SetNumThreads(threads);
    size_t seen = 0;
    ASSERT_TRUE(ParallelFilterSpace(space,
                                    [](const std::vector<size_t>&) {
                                      return true;
                                    },
                                    [&](const std::vector<size_t>&) {
                                      return ++seen < 1000;
                                    })
                    .ok());
    EXPECT_EQ(seen, 1000u) << "threads=" << threads;
  }
  par::SetNumThreads(0);
}

TEST(ParallelFilterTest, OverflowingSpaceFallsBackToOdometerIteration) {
  // The synthetic wide space: the product (2^64) cannot be linearized, so
  // the filter must take the prefix-chunked odometer route. Enumerate the
  // first 150000 survivors (more than two chunks' worth) and compare the
  // parallel runs against the serial reference.
  auto lists = ListsOfSizes(std::vector<size_t>(16, 16));
  CandidateSpace space(lists);
  ASSERT_TRUE(space.overflow());

  auto collect = [&](int threads, size_t limit) {
    par::SetNumThreads(threads);
    std::vector<std::vector<size_t>> out;
    EXPECT_TRUE(ParallelFilterSpace(space, HashPred,
                                    [&](const std::vector<size_t>& idx) {
                                      out.push_back(idx);
                                      return out.size() < limit;
                                    })
                    .ok());
    return out;
  };
  std::vector<std::vector<size_t>> reference = collect(1, 150000);
  ASSERT_EQ(reference.size(), 150000u);
  // Spot-check the reference against a hand-advanced odometer.
  std::vector<size_t> idx(16, 0);
  std::vector<std::vector<size_t>> manual;
  while (manual.size() < 5) {
    if (HashPred(idx)) manual.push_back(idx);
    ASSERT_TRUE(space.Advance(&idx));
  }
  for (size_t i = 0; i < manual.size(); ++i) EXPECT_EQ(reference[i], manual[i]);

  for (int threads : {2, 8}) {
    EXPECT_EQ(collect(threads, 150000), reference) << "threads=" << threads;
  }
  par::SetNumThreads(0);
}

TEST(GreedyAndCacheTest, RestMatchesNaiveProductAnd) {
  // Random covers over a few positions; Rest(j) must equal the AND of the
  // *current* covers below j and the *initial* covers above j, with
  // position j excluded — including after mid-sweep cover swaps.
  constexpr size_t kWords = 5;
  constexpr size_t kPositions = 4;
  uint64_t full_words[kWords];
  for (size_t w = 0; w < kWords; ++w) full_words[w] = ~uint64_t{0};

  auto word_at = [](size_t pos, size_t gen, size_t w) {
    uint64_t h = (pos + 1) * 0x9e3779b97f4a7c15ull + gen * 0x2545f4914f6cdd1dull +
                 w * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
    return h | (h << 17);
  };
  // covers[pos] regenerated when the sweep "accepts" a swap at pos.
  std::vector<size_t> generation(kPositions, 0);
  std::vector<std::vector<uint64_t>> covers(kPositions,
                                            std::vector<uint64_t>(kWords));
  auto fill = [&](size_t pos) {
    for (size_t w = 0; w < kWords; ++w) {
      covers[pos][w] = word_at(pos, generation[pos], w);
    }
  };
  for (size_t p = 0; p < kPositions; ++p) fill(p);
  std::vector<std::vector<uint64_t>> initial = covers;

  GreedyAndCache cache;
  auto cover_at = [&](size_t k) { return covers[k].data(); };
  cache.Reset(kPositions, kWords, full_words, cover_at);

  for (size_t j = 0; j < kPositions; ++j) {
    const std::vector<uint64_t>& rest = cache.Rest(j, cover_at);
    for (size_t w = 0; w < kWords; ++w) {
      uint64_t want = full_words[w];
      for (size_t k = 0; k < j; ++k) want &= covers[k][w];      // current
      for (size_t k = j + 1; k < kPositions; ++k) want &= initial[k][w];
      EXPECT_EQ(rest[w], want) << "j=" << j << " w=" << w;
    }
    // Accept a swap at j: the final cover differs from the initial one
    // and must be what the prefix absorbs when Rest moves past j.
    generation[j] = j + 1;
    fill(j);
  }
}

}  // namespace
}  // namespace whynot::explain
