#include "whynot/explain/search_core.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "whynot/common/dense_bitmap.h"

namespace whynot::explain {

namespace {

/// FNV-1a over the frontier node's list indices (the visited-set key).
struct NodeHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t h = 0xcbf29ce484222325ull;
    for (uint32_t x : v) {
      h ^= x;
      h *= 0x100000001b3ull;
    }
    return h;
  }
};

/// One query position's view of the lattice: the candidate list as a
/// concept-id bitmap, its ≼-maximal members (the frontier tops), and the
/// lazily memoized induced cover-children of every expanded member —
/// the ≼-maximal elements of (strict-downset ∩ list). Children are only
/// ever computed for concepts the walk actually expands, so the cost is
/// proportional to the explored frontier, not |list|².
class PositionFrontier {
 public:
  void Init(const ConceptLattice* lattice,
            const std::vector<onto::ConceptId>* list) {
    lattice_ = lattice;
    list_ = list;
    size_t nwords = lattice->words_per_row();
    list_words_.assign(nwords, 0);
    to_index_.assign(static_cast<size_t>(lattice->num_concepts()), -1);
    for (size_t i = 0; i < list->size(); ++i) {
      size_t c = static_cast<size_t>((*list)[i]);
      list_words_[c / 64] |= uint64_t{1} << (c % 64);
      to_index_[c] = static_cast<int32_t>(i);
    }
    tops_ = lattice->MaximalOf(*list);
  }

  const std::vector<uint32_t>& tops() const { return tops_; }

  const std::vector<uint32_t>& Children(uint32_t li) {
    auto it = children_.find(li);
    if (it != children_.end()) return it->second;
    size_t nwords = list_words_.size();
    scratch_.resize(nwords);
    const uint64_t* down = lattice_->StrictDownWords((*list_)[li]);
    for (size_t w = 0; w < nwords; ++w) {
      scratch_[w] = down[w] & list_words_[w];
    }
    std::vector<uint32_t> kids;
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t word = scratch_[w];
      while (word != 0) {
        size_t c = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
        word &= word - 1;
        // A member of the restricted downset is a cover-child iff nothing
        // of the restricted downset sits strictly above it.
        if (!ConceptAnswerCovers::AnyAnd(
                scratch_,
                lattice_->StrictUpWords(static_cast<onto::ConceptId>(c)))) {
          kids.push_back(static_cast<uint32_t>(to_index_[c]));
        }
      }
    }
    return children_.emplace(li, std::move(kids)).first->second;
  }

 private:
  const ConceptLattice* lattice_ = nullptr;
  const std::vector<onto::ConceptId>* list_ = nullptr;
  std::vector<uint64_t> list_words_;
  std::vector<int32_t> to_index_;
  std::vector<uint32_t> tops_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> children_;
  std::vector<uint64_t> scratch_;
};

}  // namespace

Status LatticeFilterSpace(
    const CandidateSpace& space, const ConceptLattice& lattice,
    const std::vector<std::vector<onto::ConceptId>>& lists, size_t max_tested,
    const LatticeFrontierHooks& hooks, PruneStats* stats,
    const exec::ExecContext* exec, exec::Stop* stop) {
  PruneStats ps;
  if (stop != nullptr) *stop = exec::Stop{};
  size_t m = space.arity();
  if (m == 0 || (!space.overflow() && space.total() == 0)) return Status::OK();

  auto exhausted = [] {
    return Status::ResourceExhausted(
        "dominance-pruned enumeration exceeded max_candidates even after "
        "downset pruning (the frontier of tested products is itself "
        "exponential in the query arity, Theorem 5.2)");
  };

  // When a partial result is requested, stops (the budget included) break
  // out to the antichain replay below instead of erroring; `halted`
  // carries the Stop. With no `stop` out-param every stop site returns
  // exactly the historical status, before any consume or stats write.
  std::optional<exec::Stop> halted;

  std::vector<PositionFrontier> pos(m);
  for (size_t i = 0; i < m; ++i) pos[i].Init(&lattice, &lists[i]);

  // ≼ on whole products, in list-index space.
  auto leq_prod = [&](const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b) {
    for (size_t i = 0; i < m; ++i) {
      if (a[i] != b[i] && !lattice.Leq(lists[i][a[i]], lists[i][b[i]])) {
        return false;
      }
    }
    return true;
  };
  auto strictly_below = [&](const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
    return leq_prod(a, b) && !leq_prod(b, a);
  };

  // Wave 0: the product of per-position tops, generated in linearization
  // order by a mini odometer. Budget-checked during generation — a flat
  // lattice degenerates to the full product right here.
  std::vector<std::vector<uint32_t>> frontier;
  {
    std::vector<size_t> ti(m, 0);
    std::vector<uint32_t> node(m);
    for (;;) {
      if (frontier.size() >= max_tested) {
        if (stop == nullptr) return exhausted();
        halted = exec::Stop{exec::StopReason::kBudget, frontier.size()};
        frontier.clear();  // nothing was tested; no partial to salvage
        break;
      }
      for (size_t i = 0; i < m; ++i) node[i] = pos[i].tops()[ti[i]];
      frontier.push_back(node);
      size_t i = 0;
      while (i < m && ++ti[i] == pos[i].tops().size()) {
        ti[i] = 0;
        ++i;
      }
      if (i == m) break;
    }
  }
  std::unordered_set<std::vector<uint32_t>, NodeHash> visited(frontier.begin(),
                                                              frontier.end());

  std::vector<std::vector<uint32_t>> kept;
  auto dominated_by_kept = [&](const std::vector<uint32_t>& node) {
    for (const auto& k : kept) {
      if (strictly_below(node, k)) return true;
    }
    return false;
  };

  std::vector<size_t> scratch_idx(m);
  auto to_idx = [&](const std::vector<uint32_t>& node) -> decltype(auto) {
    for (size_t i = 0; i < m; ++i) scratch_idx[i] = node[i];
    return (scratch_idx);
  };

  std::vector<std::vector<uint32_t>> next;
  while (!halted.has_value() && !frontier.empty()) {
    // Wave-start probe. products_enumerated only advances through the
    // wave merge, so the ordinal sequence — and with it any injected stop
    // and the antichain kept at that point — is deterministic.
    if (std::optional<exec::Stop> s =
            exec::Check(exec, ps.products_enumerated)) {
      if (stop == nullptr) {
        return exec::StopStatus(*s, "dominance-pruned enumeration");
      }
      halted = *s;
      break;
    }
    ++ps.waves;
    if (max_tested - ps.products_enumerated < frontier.size()) {
      if (stop == nullptr) return exhausted();
      halted = exec::Stop{exec::StopReason::kBudget, ps.products_enumerated};
      break;
    }
    ps.products_enumerated += frontier.size();

    // Wave merge, in linearization order (the wave is sorted).
    next.clear();
    for (size_t i = 0; i < frontier.size() && !halted.has_value(); ++i) {
      const std::vector<uint32_t>& node = frontier[i];
      if (hooks.pred(to_idx(node))) {
        if (hooks.on_pass) hooks.on_pass(to_idx(node));
        // ≼-maximal antichain maintenance. A passing node can arrive
        // already dominated (its dominator was kept after this node was
        // generated) or can dominate earlier keeps reached through a
        // shorter cover chain.
        if (dominated_by_kept(node)) {
          ++ps.downset_hits;
          continue;
        }
        kept.erase(std::remove_if(kept.begin(), kept.end(),
                                  [&](const std::vector<uint32_t>& k) {
                                    return strictly_below(k, node);
                                  }),
                   kept.end());
        kept.push_back(node);
        continue;
      }
      if (hooks.expand && !hooks.expand(to_idx(node))) continue;
      for (size_t p = 0; p < m && !halted.has_value(); ++p) {
        for (uint32_t child_li : pos[p].Children(node[p])) {
          std::vector<uint32_t> child = node;
          child[p] = child_li;
          if (visited.size() >= max_tested) {
            if (stop == nullptr) return exhausted();
            halted = exec::Stop{exec::StopReason::kBudget, visited.size()};
            break;
          }
          if (!visited.insert(child).second) continue;
          if (dominated_by_kept(child)) {
            ++ps.downset_hits;
            continue;
          }
          next.push_back(std::move(child));
        }
      }
    }
    if (halted.has_value()) break;
    std::sort(next.begin(), next.end(), LinearOrderLess<std::vector<uint32_t>>);
    frontier.swap(next);
  }

  // Replay the surviving antichain in the serial odometer's order —
  // exactly where ParallelFilterSpace would have consumed them.
  // On a halt this is the sound partial prefix the certificate covers.
  std::sort(kept.begin(), kept.end(), LinearOrderLess<std::vector<uint32_t>>);
  for (const auto& node : kept) {
    if (!hooks.consume(to_idx(node))) break;
  }

  ps.products_skipped =
      space.overflow() ? SIZE_MAX : space.total() - ps.products_enumerated;
  if (stats != nullptr) AccumulatePruneStats(stats, ps);
  if (halted.has_value()) *stop = *halted;  // non-null by construction
  return Status::OK();
}

std::vector<std::vector<onto::ConceptId>> CandidateLists(
    onto::BoundOntology* bound, const Tuple& values) {
  std::vector<std::vector<onto::ConceptId>> lists(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    lists[i] = bound->ConceptsContaining(bound->pool().Intern(values[i]));
    if (lists[i].empty()) break;
  }
  return lists;
}

bool DominatedByAny(const onto::BoundOntology& bound, const Explanation& e,
                    const std::vector<Explanation>& antichain) {
  for (const Explanation& kept : antichain) {
    if (LessGeneral(bound, e, kept)) return true;
  }
  return false;
}

void KeepMaximal(const onto::BoundOntology& bound, const Explanation& e,
                 std::vector<Explanation>* antichain) {
  if (DominatedByAny(bound, e, *antichain)) return;
  antichain->erase(std::remove_if(antichain->begin(), antichain->end(),
                                  [&](const Explanation& kept) {
                                    return StrictlyLessGeneral(bound, kept, e);
                                  }),
                   antichain->end());
  antichain->push_back(e);
}

CoverTable::CoverTable(ConceptAnswerCovers* covers,
                       const std::vector<std::vector<onto::ConceptId>>& lists)
    : num_answers_(covers->num_answers()),
      nwords_(covers->num_words()),
      table_(lists.size()) {
  for (size_t i = 0; i < lists.size(); ++i) {
    table_[i].reserve(lists[i].size());
    for (onto::ConceptId c : lists[i]) table_[i].push_back(covers->Cover(c, i));
  }
}

void CoverTable::ResolveSizes(
    onto::BoundOntology* bound,
    const std::vector<std::vector<onto::ConceptId>>& lists) {
  sizes_.resize(lists.size());
  is_all_.resize(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    sizes_[i].clear();
    is_all_[i].clear();
    sizes_[i].reserve(lists[i].size());
    is_all_[i].reserve(lists[i].size());
    for (onto::ConceptId c : lists[i]) {
      const onto::ExtSet& e = bound->Ext(c);
      is_all_[i].push_back(e.is_all() ? 1 : 0);
      sizes_[i].push_back(e.is_all() ? 0 : e.size());
    }
  }
}

}  // namespace whynot::explain
