#include "whynot/explain/existence.h"

#include <optional>
#include <set>

#include "whynot/explain/search_core.h"

namespace whynot::explain {

namespace {

/// Backtracking state: at position i with a bitmap of still-alive answers
/// (answers not yet excluded at any earlier position). An explanation
/// exists below this state iff every alive answer can be excluded at some
/// remaining position. Narrowing the alive set by a candidate concept is
/// one word-parallel AND with its answer-cover bitmap.
class Search {
 public:
  Search(onto::BoundOntology* bound, const WhyNotInstance& wni,
         const ExistenceOptions& options, ConceptAnswerCovers* covers,
         LatticeHandle* lattice)
      : options_(options), covers_(covers) {
    if (covers_ == nullptr) {
      local_covers_.emplace(bound, InternAnswers(bound, wni));
      covers_ = &*local_covers_;
    }
    m_ = wni.arity();
    candidates_ = CandidateLists(bound, wni.missing);
    if (options.strategy == SearchStrategy::kLattice) {
      // Keep only ≼-minimal candidates per position: a minimal concept's
      // cover narrows the alive set at least as much as anything above
      // it, so an explanation exists iff one over minimal concepts does.
      // The restriction preserves per-position candidate order, so the
      // traversal stays deterministic — but the witness can differ from
      // the unrestricted backtracker's.
      std::unique_ptr<LatticeHandle> local_lattice;
      LatticeHandle* h = lattice;
      if (h == nullptr) {
        local_lattice = std::make_unique<LatticeHandle>(bound);
        h = local_lattice.get();
      }
      const ConceptLattice& lat = h->Get();
      for (size_t i = 0; i < m_; ++i) {
        candidates_[i] = lat.MinimalOf(candidates_[i]);
      }
    }
    chosen_.resize(m_);
  }

  Result<bool> Run(Explanation* witness) {
    for (const auto& list : candidates_) {
      if (list.empty()) {
        exec::FillCertificate(options_.cert, exec::Stop{}, exec::Progress{},
                              0);
        return false;
      }
    }
    bool found = false;
    WHYNOT_RETURN_IF_ERROR(Descend(0, covers_->full_words(), &found));
    if (found && witness != nullptr) *witness = chosen_;
    if (options_.cert != nullptr) {
      // A stop and a found witness are mutually exclusive (descent
      // unwinds on either), so a witness is always definitive.
      exec::Stop stop = halted_.value_or(exec::Stop{});
      exec::Progress progress;
      progress.tested = halted_.has_value() ? halted_->at : nodes_;
      exec::FillCertificate(options_.cert, stop, progress, found ? 1 : 0);
    }
    return found;
  }

 private:
  static bool Any(const std::vector<uint64_t>& words) {
    for (uint64_t w : words) {
      if (w != 0) return true;
    }
    return false;
  }

  Status Descend(size_t pos, const std::vector<uint64_t>& alive,
                 bool* found) {
    if (*found || halted_.has_value()) return Status::OK();
    size_t probe = nodes_;  // 0-based node ordinal, thread-invariant
    if (++nodes_ > options_.max_nodes) {
      if (options_.cert == nullptr) {
        return Status::ResourceExhausted(
            "existence search exceeded max_nodes (the problem is "
            "NP-complete, Theorem 5.1.2)");
      }
      halted_ = exec::Stop{exec::StopReason::kBudget, options_.max_nodes};
      return Status::OK();
    }
    if (std::optional<exec::Stop> s = exec::Check(options_.exec, probe)) {
      if (options_.cert == nullptr) {
        return exec::StopStatus(*s, "existence search");
      }
      halted_ = *s;  // unwind the whole descent via the guard above
      return Status::OK();
    }
    if (pos == m_) {
      if (!Any(alive)) *found = true;
      return Status::OK();
    }
    // Memoize defeated (pos, alive) states.
    auto key = std::make_pair(pos, alive);
    if (defeated_.count(key) > 0) return Status::OK();

    const std::vector<onto::ConceptId>& cands = candidates_[pos];
    size_t nwords = alive.size();
    std::vector<uint64_t> next(nwords);
    for (onto::ConceptId c : cands) {
      const uint64_t* cover = covers_->Cover(c, pos);
      for (size_t w = 0; w < nwords; ++w) next[w] = alive[w] & cover[w];
      chosen_[pos] = c;
      WHYNOT_RETURN_IF_ERROR(Descend(pos + 1, next, found));
      if (*found || halted_.has_value()) return Status::OK();
    }
    defeated_.emplace(std::move(key));
    return Status::OK();
  }

  ExistenceOptions options_;
  size_t m_ = 0;
  std::vector<std::vector<onto::ConceptId>> candidates_;
  ConceptAnswerCovers* covers_;
  std::optional<ConceptAnswerCovers> local_covers_;
  Explanation chosen_;
  std::set<std::pair<size_t, std::vector<uint64_t>>> defeated_;
  size_t nodes_ = 0;
  std::optional<exec::Stop> halted_;
};

}  // namespace

Result<bool> ExistsExplanation(onto::BoundOntology* bound,
                               const WhyNotInstance& wni,
                               Explanation* witness,
                               const ExistenceOptions& options,
                               ConceptAnswerCovers* covers,
                               LatticeHandle* lattice) {
  Search search(bound, wni, options, covers, lattice);
  return search.Run(witness);
}

}  // namespace whynot::explain
