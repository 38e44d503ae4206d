#include "whynot/explain/lattice.h"

#include <algorithm>
#include <numeric>

namespace whynot::explain {

namespace {

/// Any set bit in `a AND b` over `nwords` words.
bool AnyAndWords(const uint64_t* a, const uint64_t* b, size_t nwords) {
  for (size_t w = 0; w < nwords; ++w) {
    if (a[w] & b[w]) return true;
  }
  return false;
}

}  // namespace

ConceptLattice::ConceptLattice(onto::BoundOntology* bound)
    : n_(bound->NumConcepts()), leq_(n_), strict_up_(n_), strict_down_(n_) {
  // Warm every extension up front, in concept order, so the pool ids do
  // not depend on which pairs the passes below happen to visit.
  bound->WarmExtensions();
  size_t n = static_cast<size_t>(n_);

  // Pass 1 — the effective order. The subsumption probe gates the SubsetOf
  // test, so the word-parallel extension comparisons run once per ⊑ pair,
  // not once per concept pair.
  for (onto::ConceptId c = 0; c < n_; ++c) {
    const onto::ExtSet& ec = bound->Ext(c);
    for (int32_t d = 0; d < n_; ++d) {
      if (!bound->Subsumes(c, d)) continue;
      if (ec.SubsetOf(bound->Ext(d))) {
        leq_.Set(c, d);
      } else {
        consistent_ = false;
      }
    }
  }

  // Pass 2 — strict rows, from the finished leq_ matrix (it reads
  // columns, so it waits for pass 1).
  for (onto::ConceptId c = 0; c < n_; ++c) {
    for (int32_t d = 0; d < n_; ++d) {
      bool cd = leq_.Get(c, d);
      bool dc = leq_.Get(d, c);
      if (cd && !dc) strict_up_.Set(c, d);
      if (dc && !cd) strict_down_.Set(c, d);
    }
  }

  // Ranks: the strict relation is transitively closed, so a ≺ b implies
  // |strict-upset(a)| > |strict-upset(b)| and processing concepts by
  // increasing upset size sees every strict ancestor first.
  ranks_.assign(n, 0);
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<int32_t> up_count(n);
  for (int32_t c = 0; c < n_; ++c) {
    up_count[static_cast<size_t>(c)] = strict_up_.RowCount(c);
  }
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return up_count[static_cast<size_t>(a)] < up_count[static_cast<size_t>(b)];
  });
  for (int32_t c : order) {
    int32_t r = 0;
    const uint64_t* row = strict_up_.RowWords(c);
    for (size_t w = 0; w < strict_up_.words_per_row(); ++w) {
      uint64_t word = row[w];
      while (word != 0) {
        size_t p = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
        r = std::max(r, ranks_[p] + 1);
        word &= word - 1;
      }
    }
    ranks_[static_cast<size_t>(c)] = r;
    depth_ = std::max(depth_, static_cast<size_t>(r) + 1);
  }
}

std::vector<uint32_t> ConceptLattice::MaximalOf(
    const std::vector<onto::ConceptId>& list) const {
  size_t nwords = words_per_row();
  std::vector<uint64_t> members(nwords, 0);
  for (onto::ConceptId c : list) {
    members[static_cast<size_t>(c) / 64] |= uint64_t{1}
                                            << (static_cast<size_t>(c) % 64);
  }
  std::vector<uint32_t> out;
  for (size_t i = 0; i < list.size(); ++i) {
    if (!AnyAndWords(StrictUpWords(list[i]), members.data(), nwords)) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

std::vector<onto::ConceptId> ConceptLattice::MinimalOf(
    const std::vector<onto::ConceptId>& list) const {
  size_t nwords = words_per_row();
  std::vector<uint64_t> members(nwords, 0);
  for (onto::ConceptId c : list) {
    members[static_cast<size_t>(c) / 64] |= uint64_t{1}
                                            << (static_cast<size_t>(c) % 64);
  }
  std::vector<onto::ConceptId> out;
  for (onto::ConceptId c : list) {
    if (!AnyAndWords(StrictDownWords(c), members.data(), nwords)) {
      out.push_back(c);
    }
  }
  return out;
}

LatticeChoice ChooseStrategy(SearchStrategy strategy,
                             const CandidateSpace& space,
                             size_t max_candidates,
                             onto::BoundOntology* bound,
                             LatticeHandle* handle,
                             std::unique_ptr<LatticeHandle>* local) {
  if (strategy == SearchStrategy::kOdometer) return {};
  bool over_budget = space.overflow() || space.total() > max_candidates;
  if (strategy == SearchStrategy::kAuto && !over_budget) return {};
  LatticeHandle* h = handle;
  if (h == nullptr) {
    *local = std::make_unique<LatticeHandle>(bound);
    h = local->get();
  }
  const ConceptLattice& lattice = h->Get();
  if (strategy == SearchStrategy::kAuto && !lattice.consistent()) return {};
  return {true, &lattice};
}

}  // namespace whynot::explain
