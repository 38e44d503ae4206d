#include "whynot/ontology/ontology.h"

#include <optional>

namespace whynot::onto {

BoundOntology::BoundOntology(const FiniteOntology* ontology,
                             const rel::Instance* instance)
    : ontology_(ontology), instance_(instance) {
  cache_.resize(static_cast<size_t>(ontology->NumConcepts()));
  cached_.resize(static_cast<size_t>(ontology->NumConcepts()), false);
}

const ExtSet& BoundOntology::ExtSlow(ConceptId id) {
  size_t idx = static_cast<size_t>(id);
  cache_[idx] = ontology_->ComputeExt(id, *instance_, &pool_);
  cached_[idx] = true;
  return cache_[idx];
}

Status BoundOntology::WarmExtensions(const exec::ExecContext* exec) {
  int32_t n = NumConcepts();
  std::vector<ConceptId> todo;
  for (ConceptId c = 0; c < n; ++c) {
    if (!cached_[static_cast<size_t>(c)]) todo.push_back(c);
  }
  if (todo.empty()) return Status::OK();
  // Injected warm failure: an allocation-failure stand-in fired before any
  // mutation, so the cache is untouched and the call is safely retryable.
  if (exec != nullptr && exec->fault != nullptr && exec->fault->fail_warm) {
    return Status::ResourceExhausted(
        "extension warm-up failed (injected fault)");
  }
  for (size_t k = 0; k < todo.size(); ++k) {
    if (std::optional<exec::Stop> s = exec::Check(exec, k)) {
      return exec::StopStatus(*s, "extension warm-up");
    }
    Ext(todo[k]);
  }
  return Status::OK();
}

std::vector<ConceptId> BoundOntology::ConceptsContaining(ValueId id) {
  WarmExtensions();
  int32_t n = NumConcepts();
  std::vector<ConceptId> out;
  for (ConceptId c = 0; c < n; ++c) {
    if (cache_[static_cast<size_t>(c)].Contains(id)) out.push_back(c);
  }
  return out;
}

Status BoundOntology::CheckConsistent() {
  int32_t n = NumConcepts();
  for (ConceptId c1 = 0; c1 < n; ++c1) {
    for (ConceptId c2 = 0; c2 < n; ++c2) {
      if (c1 == c2 || !Subsumes(c1, c2)) continue;
      if (!Ext(c1).SubsetOf(Ext(c2))) {
        return Status::InvalidArgument(
            "instance inconsistent with ontology: " + ConceptName(c1) +
            " ⊑ " + ConceptName(c2) + " but ext(" + ConceptName(c1) +
            ") ⊄ ext(" + ConceptName(c2) + ")");
      }
    }
  }
  return Status::OK();
}

BoundOntology::MemoryStats BoundOntology::ExtMemoryStats() const {
  MemoryStats s;
  for (size_t i = 0; i < cache_.size(); ++i) {
    if (!cached_[i]) continue;
    const ExtSet& e = cache_[i];
    if (e.is_all()) continue;
    s.ext_bytes += e.MemoryBytes();
    if (e.has_bitmap()) {
      ++s.dense_sets;
    } else {
      ++s.flat_sets;
    }
  }
  return s;
}

}  // namespace whynot::onto
