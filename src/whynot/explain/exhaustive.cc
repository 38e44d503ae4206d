#include "whynot/explain/exhaustive.h"

#include <algorithm>
#include <optional>

#include "whynot/explain/search_core.h"

namespace whynot::explain {

Result<std::vector<Explanation>> PrunedSearchAllMge(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExhaustiveOptions& options, ConceptAnswerCovers* covers,
    LatticeHandle* lattice) {
  std::vector<std::vector<onto::ConceptId>> lists =
      CandidateLists(bound, wni.missing);
  ProductSearch search(lists, options, bound, lattice);
  std::vector<Explanation> antichain;
  if (!search.empty()) {
    std::optional<ConceptAnswerCovers> local;
    if (covers == nullptr) {
      local.emplace(bound, InternAnswers(bound, wni));
      covers = &*local;
    }
    // Line 2: the candidates that avoid Ans — one m-way AND over the
    // pre-resolved covers per candidate.
    CoverTable table(covers, lists);
    Explanation current(wni.arity());
    WHYNOT_RETURN_IF_ERROR(search.Run(
        "candidate enumeration exceeded max_candidates (the space is "
        "exponential in the query arity, Theorem 5.2)",
        [&](const std::vector<size_t>& idx) {
          return !table.ProductAnyAt(idx);
        },
        [&](const std::vector<size_t>& idx) {
          for (size_t i = 0; i < current.size(); ++i) {
            current[i] = lists[i][idx[i]];
          }
          KeepMaximal(*bound, current, &antichain);
          return true;
        }));
    std::sort(antichain.begin(), antichain.end());
  }
  search.Certify(antichain.size());
  return antichain;
}

}  // namespace whynot::explain
