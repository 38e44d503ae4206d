#include "whynot/explain/incremental.h"

#include "whynot/explain/derived_sweep.h"

namespace whynot::explain {

Result<LsExplanation> IncrementalSearch(const WhyNotInstance& wni,
                                        const IncrementalOptions& options,
                                        ls::LubContext* lub_context,
                                        ls::EvalCache* cache,
                                        LsAnswerCovers* covers,
                                        ls::ConceptCache* concept_cache) {
  DerivedStores stores("IncrementalSearch", wni.instance, wni.answers,
                       /*dedup_answers=*/false, options.with_selections,
                       options.lub, lub_context, cache, covers, concept_cache);
  WHYNOT_RETURN_IF_ERROR(stores.status());
  return GreedySweep<WhyNotDual>(wni.instance, wni.missing, &stores,
                                 options.exec, options.cert);
}

}  // namespace whynot::explain
