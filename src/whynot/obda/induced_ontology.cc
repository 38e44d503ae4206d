#include "whynot/obda/induced_ontology.h"

namespace whynot::obda {

ObdaInducedOntology::ObdaInducedOntology(const ObdaSpec* spec) : spec_(spec) {
  concepts_ = spec->tbox().BasicConcepts();
  for (size_t i = 0; i < concepts_.size(); ++i) {
    index_[concepts_[i]] = static_cast<onto::ConceptId>(i);
  }
}

onto::ConceptId ObdaInducedOntology::FindConcept(
    const dl::BasicConcept& b) const {
  auto it = index_.find(b);
  return it == index_.end() ? -1 : it->second;
}

bool ObdaInducedOntology::Subsumes(onto::ConceptId sub,
                                   onto::ConceptId super) const {
  return spec_->reasoner().Subsumed(concepts_[static_cast<size_t>(sub)],
                                    concepts_[static_cast<size_t>(super)]);
}

onto::ExtSet ObdaInducedOntology::ComputeExt(onto::ConceptId id,
                                             const rel::Instance& instance,
                                             ValuePool* pool) const {
  if (cached_instance_ != &instance || cached_version_ != instance.version() ||
      cached_saturation_ == nullptr) {
    Result<Saturation> sat = spec_->Saturate(instance);
    if (!sat.ok()) {
      // Saturation only fails on malformed mappings, which Validate()
      // rejects up front; treat as empty extension defensively.
      return onto::ExtSet();
    }
    cached_saturation_ =
        std::make_unique<Saturation>(std::move(sat).value());
    cached_instance_ = &instance;
    cached_version_ = instance.version();
  }
  const std::set<Value>& members =
      cached_saturation_->Members(concepts_[static_cast<size_t>(id)]);
  std::vector<ValueId> ids;
  ids.reserve(members.size());
  for (const Value& v : members) ids.push_back(pool->Intern(v));
  return onto::ExtSet::Finite(std::move(ids));
}

}  // namespace whynot::obda
