#include "whynot/explain/why_explanation.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "whynot/common/algorithm.h"
#include "whynot/concepts/ls_eval.h"
#include "whynot/explain/derived_sweep.h"
#include "whynot/explain/search_core.h"
#include "whynot/relational/cq_eval.h"

namespace whynot::explain {

Result<WhyInstance> MakeWhyInstance(const rel::Instance* instance,
                                    const rel::UnionQuery& query,
                                    Tuple present) {
  WHYNOT_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                          rel::Evaluate(query, *instance));
  if (query.arity() != present.size()) {
    return Status::InvalidArgument("tuple arity does not match query arity");
  }
  if (!std::binary_search(answers.begin(), answers.end(), present)) {
    return Status::InvalidArgument(
        "tuple " + TupleToString(present) +
        " is not in the answer set; ask a why-not question instead");
  }
  WhyInstance wi;
  wi.instance = instance;
  wi.answers = std::move(answers);
  wi.present = std::move(present);
  return wi;
}

std::vector<std::vector<ValueId>> InternedUniqueAnswers(
    onto::BoundOntology* bound, const std::vector<Tuple>& answers) {
  std::vector<std::vector<ValueId>> rows;
  rows.reserve(answers.size());
  for (const Tuple& t : answers) {
    std::vector<ValueId> ids;
    ids.reserve(t.size());
    for (const Value& v : t) ids.push_back(bound->pool().Intern(v));
    rows.push_back(std::move(ids));
  }
  SortUnique(&rows);
  return rows;
}

Result<bool> IsWhyExplanation(onto::BoundOntology* bound,
                              const WhyInstance& wi, const Explanation& e,
                              ConceptAnswerCovers* covers) {
  if (e.size() != wi.arity()) {
    return Status::InvalidArgument(
        "explanation arity does not match the tuple");
  }
  for (size_t i = 0; i < e.size(); ++i) {
    ValueId id = bound->pool().Intern(wi.present[i]);
    if (!bound->Ext(e[i]).Contains(id)) return false;
  }
  std::optional<ConceptAnswerCovers> local;
  if (covers == nullptr) {
    local.emplace(bound, InternedUniqueAnswers(bound, wi.answers));
    covers = &*local;
  }
  return covers->ProductInside(e);
}

Result<std::vector<Explanation>> AllMostGeneralWhyExplanations(
    onto::BoundOntology* bound, const WhyInstance& wi,
    const ExhaustiveOptions& options, ConceptAnswerCovers* covers,
    LatticeHandle* lattice) {
  // "product ⊆ Ans" is ≼-downward closed just like avoidance (a smaller
  // product stays inside Ans), so the walk is the exhaustive search's.
  std::vector<std::vector<onto::ConceptId>> lists =
      CandidateLists(bound, wi.present);
  ProductSearch search(lists, options, bound, lattice);
  std::vector<Explanation> antichain;
  if (!search.empty()) {
    std::optional<ConceptAnswerCovers> local;
    if (covers == nullptr) {
      local.emplace(bound, InternedUniqueAnswers(bound, wi.answers));
      covers = &*local;
    }
    // The product-containment test — the counting AND with its
    // finite-size pre-checks, by far the dominant cost — is a pure
    // function of the candidate, so the pooled odometer shards it against
    // a pre-resolved cover table; the antichain pass replays serially
    // over the survivors in candidate order. A candidate the filter
    // admits but a kept explanation dominates is dropped at the replay
    // (domination is checked before insertion), so the antichain is
    // exactly the serial reference's. The table resolves covers for
    // *every* list concept up front — worth it only when workers will
    // hammer it; the serial odometer keeps the lazy per-probe covers
    // (most candidates never get probed past the domination prefilter
    // below). The frontier resolves the table too: it has no prefilter,
    // so it probes every node it reaches.
    std::optional<CoverTable> table;
    if (search.frontier() || par::NumThreads() > 1) {
      table.emplace(covers, lists);
      table->ResolveSizes(bound, lists);
    }
    size_t m = wi.arity();
    Explanation current(m);
    WHYNOT_RETURN_IF_ERROR(search.Run(
        "why-explanation enumeration exceeded max_candidates",
        [&](const std::vector<size_t>& idx) {
          if (table.has_value()) return table->ProductInsideAt(idx);
          for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
          return covers->ProductInside(current);
        },
        [&](const std::vector<size_t>& idx) {
          for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
          KeepMaximal(*bound, current, &antichain);
          return true;
        },
        // Serial prefilter: the domination check is two subsumption
        // matrix probes against a short antichain — far cheaper than the
        // counting containment test it saves (the parallel path filters
        // first and re-checks domination at the replay above, same
        // output).
        [&](const std::vector<size_t>& idx) {
          for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
          return DominatedByAny(*bound, current, antichain);
        }));
    std::sort(antichain.begin(), antichain.end());
  }
  search.Certify(antichain.size());
  return antichain;
}

// --- Why-explanations w.r.t. the derived ontology OI ----------------------

Result<bool> IsLsWhyExplanation(const WhyInstance& wi, const LsExplanation& e,
                                ls::EvalCache* cache, LsAnswerCovers* covers) {
  if (e.size() != wi.arity()) {
    return Status::InvalidArgument(
        "explanation arity does not match the tuple");
  }
  WHYNOT_RETURN_IF_ERROR(
      RequireCoverStores(covers, cache != nullptr, "IsLsWhyExplanation"));
  std::optional<ls::EvalCache> local_cache;
  if (cache == nullptr) cache = &local_cache.emplace(wi.instance);
  // The counting form needs Ans duplicate-free. MakeWhyInstance
  // guarantees that, but WhyInstance is a plain struct callers may fill by
  // hand, so local covers index a sort-deduped copy.
  std::optional<std::vector<Tuple>> sorted;
  std::optional<LsAnswerCovers> local_covers;
  if (covers == nullptr) {
    SortUnique(&sorted.emplace(wi.answers));
    covers = &local_covers.emplace(wi.instance, &*sorted);
  }
  return IsDualExplanation<WhyDual>(wi.instance, wi.present, e, cache, covers);
}

Result<LsExplanation> IncrementalWhySearch(const WhyInstance& wi,
                                           bool with_selections,
                                           ls::LubContext* lub_context,
                                           ls::EvalCache* cache,
                                           LsAnswerCovers* covers,
                                           ls::ConceptCache* concept_cache,
                                           const exec::ExecContext* exec,
                                           exec::Certificate* cert) {
  DerivedStores stores("IncrementalWhySearch", wi.instance, wi.answers,
                       /*dedup_answers=*/true, with_selections, {}, lub_context,
                       cache, covers, concept_cache);
  WHYNOT_RETURN_IF_ERROR(stores.status());
  return GreedySweep<WhyDual>(wi.instance, wi.present, &stores, exec, cert);
}

Result<bool> CheckWhyMgeDerived(const WhyInstance& wi,
                                const LsExplanation& candidate,
                                bool with_selections,
                                ls::LubContext* lub_context,
                                ls::EvalCache* cache,
                                LsAnswerCovers* covers,
                                ls::ConceptCache* concept_cache,
                                const exec::ExecContext* exec) {
  if (candidate.size() != wi.arity()) {
    return Status::InvalidArgument(
        "explanation arity does not match the tuple");
  }
  DerivedStores stores("CheckWhyMgeDerived", wi.instance, wi.answers,
                       /*dedup_answers=*/true, with_selections, {}, lub_context,
                       cache, covers, concept_cache);
  WHYNOT_RETURN_IF_ERROR(stores.status());
  return CheckMaximal<WhyDual>(wi.instance, wi.present, candidate, &stores,
                               exec);
}

}  // namespace whynot::explain
