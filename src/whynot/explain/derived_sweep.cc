#include "whynot/explain/derived_sweep.h"

#include "whynot/common/algorithm.h"

namespace whynot::explain {

DerivedStores::DerivedStores(const char* where, const rel::Instance* instance,
                             const std::vector<Tuple>& answers,
                             bool dedup_answers, bool with_selections,
                             const ls::LubOptions& lub_options,
                             ls::LubContext* lub_context,
                             ls::EvalCache* cache, LsAnswerCovers* covers,
                             ls::ConceptCache* concept_cache)
    : status_(RequireCoverStores(covers, concept_cache != nullptr, where)) {
  if (!status_.ok()) return;
  if (lub_context == nullptr) {
    lub_context = &local_lub_.emplace(instance, lub_options);
  }
  if (covers == nullptr) {
    const std::vector<Tuple>* indexed = &answers;
    if (dedup_answers) {
      sorted_answers_.emplace(answers);
      SortUnique(&*sorted_answers_);
      indexed = &*sorted_answers_;
    }
    covers = &local_covers_.emplace(instance, indexed);
  }
  covers_ = covers;
  if (concept_cache == nullptr) {
    concept_cache = &local_concept_cache_.emplace(instance);
  }
  concept_cache_ = concept_cache;
  cache_ = cache != nullptr ? cache : &concept_cache->evals();
  overlay_.emplace(concept_cache, with_selections, lub_context);
}

}  // namespace whynot::explain
