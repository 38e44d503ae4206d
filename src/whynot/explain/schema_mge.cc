#include "whynot/explain/schema_mge.h"

namespace whynot::explain {

Result<std::vector<LsExplanation>> ComputeAllMgeDerived(
    const WhyNotInstance& wni, const DerivedMgeOptions& options) {
  ls::MaterializeOptions mat;
  mat.fragment = options.fragment;
  mat.mode = options.mode;
  mat.max_concepts = options.max_concepts;
  mat.schema_options = options.schema_options;
  // Deduplication by extension identifies concepts modulo ≡_{O_I}; for
  // ⊑_S-based ontologies, concepts equal on I may still differ under ⊑_S
  // (Example 4.9: E7 vs E8), so representatives must not be merged.
  mat.dedup_by_extension = options.mode == ls::SubsumptionMode::kInstance;

  WHYNOT_ASSIGN_OR_RETURN(
      std::unique_ptr<ls::LsOntology> ontology,
      ls::LsOntology::Materialize(wni.instance, wni.missing, mat));
  onto::BoundOntology bound(ontology.get(), wni.instance);
  WHYNOT_ASSIGN_OR_RETURN(
      std::vector<Explanation> mges,
      PrunedSearchAllMge(&bound, wni, options.exhaustive));
  std::vector<LsExplanation> out;
  out.reserve(mges.size());
  for (const Explanation& e : mges) {
    LsExplanation le;
    le.reserve(e.size());
    for (onto::ConceptId id : e) le.push_back(ontology->Concept(id));
    out.push_back(std::move(le));
  }
  return out;
}

Result<LsExplanation> ComputeOneMgeDerived(const WhyNotInstance& wni,
                                           const DerivedMgeOptions& options) {
  WHYNOT_ASSIGN_OR_RETURN(std::vector<LsExplanation> all,
                          ComputeAllMgeDerived(wni, options));
  if (all.empty()) {
    return Status::NotFound(
        "no most-general explanation found (with nominals in the language "
        "this cannot happen; check the materialization fragment)");
  }
  return all.front();
}

}  // namespace whynot::explain
