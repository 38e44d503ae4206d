#include "whynot/ontology/ontology.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "whynot/common/parallel.h"

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
  if (par::NumThreads() <= 1 || n < 1024) {
    for (ConceptId c = 0; c < n; ++c) {
      if (cache_[static_cast<size_t>(c)].Contains(id)) out.push_back(c);
    }
    return out;
  }
  // Warm extensions are immutable; scan concept-id ranges in parallel and
  // concatenate the per-block hits in range order (ids stay ascending).
  std::vector<std::pair<size_t, std::vector<ConceptId>>> found;
  std::mutex mutex;
  par::ParallelFor(static_cast<size_t>(n), 256, [&](size_t begin, size_t end) {
    std::vector<ConceptId> local;
    for (size_t c = begin; c < end; ++c) {
      if (cache_[c].Contains(id)) local.push_back(static_cast<ConceptId>(c));
    }
    std::lock_guard<std::mutex> lock(mutex);
    found.emplace_back(begin, std::move(local));
  });
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [begin, part] : found) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Status BoundOntology::CheckConsistent() {
  int32_t n = NumConcepts();
  if (par::NumThreads() > 1 && n >= 8) {
    // Warm first (parallel), then the pairwise scan is read-only. Blocks
    // report their first offending pair; the merge keeps the (c1, c2)-lex
    // smallest so the error matches the serial scan's.
    WarmExtensions();
    std::optional<std::pair<ConceptId, ConceptId>> first;
    std::mutex mutex;
    par::ParallelFor(static_cast<size_t>(n), 1, [&](size_t begin, size_t end) {
      for (size_t c1 = begin; c1 < end; ++c1) {
        for (int32_t c2 = 0; c2 < n; ++c2) {
          ConceptId a = static_cast<ConceptId>(c1);
          if (a == c2 || !Subsumes(a, c2)) continue;
          if (!cache_[c1].SubsetOf(cache_[static_cast<size_t>(c2)])) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!first.has_value() || std::make_pair(a, c2) < *first) {
              first = std::make_pair(a, c2);
            }
            return;  // later pairs in this block are lex-greater
          }
        }
      }
    });
    if (!first.has_value()) return Status::OK();
    auto [c1, c2] = *first;
    return Status::InvalidArgument(
        "instance inconsistent with ontology: " + ConceptName(c1) + " ⊑ " +
        ConceptName(c2) + " but ext(" + ConceptName(c1) + ") ⊄ ext(" +
        ConceptName(c2) + ")");
  }
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
