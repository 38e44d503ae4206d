#ifndef WHYNOT_OBDA_INDUCED_ONTOLOGY_H_
#define WHYNOT_OBDA_INDUCED_ONTOLOGY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "whynot/dllite/expressions.h"
#include "whynot/obda/obda_spec.h"
#include "whynot/ontology/ontology.h"

namespace whynot::obda {

/// The S-ontology O_B induced by an OBDA specification (Definition 4.4):
///
///  * concepts: all basic concept expressions occurring in the TBox,
///  * subsumption: ⊑_OB = {(C1, C2) | T ⊨ C1 ⊑ C2} via the DL-Lite
///    reasoner (PTIME, Theorem 4.1.1),
///  * ext_OB(C, I) = certain(C, I, B), computed by saturation (PTIME,
///    Theorem 4.1.2).
///
/// Construction is polynomial in the specification size (Theorem 4.2).
/// Saturations are cached per instance state (keyed by address and
/// version()) so that binding the ontology to an instance costs one
/// saturation, not one per concept, and a write forces a fresh one.
class ObdaInducedOntology : public onto::FiniteOntology {
 public:
  explicit ObdaInducedOntology(const ObdaSpec* spec);

  /// Id of a basic concept, or -1 if it does not occur in the TBox.
  onto::ConceptId FindConcept(const dl::BasicConcept& b) const;

  const dl::BasicConcept& Concept(onto::ConceptId id) const {
    return concepts_[static_cast<size_t>(id)];
  }

  // FiniteOntology:
  int32_t NumConcepts() const override {
    return static_cast<int32_t>(concepts_.size());
  }
  std::string ConceptName(onto::ConceptId id) const override {
    return concepts_[static_cast<size_t>(id)].ToString();
  }
  bool Subsumes(onto::ConceptId sub, onto::ConceptId super) const override;
  onto::ExtSet ComputeExt(onto::ConceptId id, const rel::Instance& instance,
                          ValuePool* pool) const override;

 private:
  const ObdaSpec* spec_;
  std::vector<dl::BasicConcept> concepts_;
  std::map<dl::BasicConcept, onto::ConceptId> index_;
  // Single-entry saturation cache: explanation algorithms bind exactly one
  // instance at a time. The version keeps an AddFact on the same instance
  // from serving the old certain answers.
  mutable const rel::Instance* cached_instance_ = nullptr;
  mutable uint64_t cached_version_ = 0;
  mutable std::unique_ptr<Saturation> cached_saturation_;
};

}  // namespace whynot::obda

#endif  // WHYNOT_OBDA_INDUCED_ONTOLOGY_H_
