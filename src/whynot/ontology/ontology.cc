#include "whynot/ontology/ontology.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "whynot/common/parallel.h"

namespace whynot::onto {

namespace {

/// Below this many uncached concepts the per-shard pools plus the merge
/// pass cost more than the serial loop.
constexpr size_t kMinConceptsToShard = 4;

}  // namespace

BoundOntology::BoundOntology(const FiniteOntology* ontology,
                             const rel::Instance* instance)
    : ontology_(ontology), instance_(instance) {
  cache_.resize(static_cast<size_t>(ontology->NumConcepts()));
  cached_.resize(static_cast<size_t>(ontology->NumConcepts()), false);
}

const ExtSet& BoundOntology::ExtSlow(ConceptId id) {
  size_t idx = static_cast<size_t>(id);
  cache_[idx] = ontology_->ComputeExt(id, *instance_, &pool_);
  cache_[idx].Freeze(pool_.size());
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
  if (par::NumThreads() <= 1 || todo.size() < kMinConceptsToShard) {
    for (size_t k = 0; k < todo.size(); ++k) {
      if (std::optional<exec::Stop> s = exec::Check(exec, k)) {
        return exec::StopStatus(*s, "extension warm-up");
      }
      Ext(todo[k]);
    }
    return Status::OK();
  }
  // Serially compute the first concept through the normal path: any
  // once-per-ontology lazy state a ComputeExt keeps (e.g. the OBDA induced
  // ontology's saturation cache) is built here on the calling thread,
  // making the sharded calls below read-only on the ontology side.
  if (std::optional<exec::Stop> s = exec::Check(exec, 0)) {
    return exec::StopStatus(*s, "extension warm-up");
  }
  Ext(todo.front());
  todo.erase(todo.begin());
  if (todo.empty()) return Status::OK();

  // Sharded warm-up. ComputeExt interns into the bound pool, which is
  // single-threaded, so each shard computes into a concept-local pool and
  // a serial merge replays the interning in concept order afterwards. The
  // replay assigns exactly the ids the serial loop would: within one
  // concept the local pool's id order *is* the first-intern order of the
  // computation, and Intern is idempotent across concepts. The instance's
  // lazy caches are forced up front so the parallel ComputeExt calls are
  // genuinely read-only.
  instance_->WarmForConcurrentReads();
  struct Shard {
    ExtSet ext;
    ValuePool pool;
  };
  std::vector<Shard> shards(todo.size());
  const FiniteOntology* ontology = ontology_;
  const rel::Instance* instance = instance_;
  // An abandoned compute wave has holes, so it is discarded whole below —
  // already-warmed concepts stay cached and a later call resumes.
  std::atomic<bool> abandon{false};
  par::ParallelFor(todo.size(), 1, &abandon, [&](size_t begin, size_t end) {
    if (exec::ShouldAbandon(exec)) {
      abandon.store(true, std::memory_order_relaxed);
      return;
    }
    for (size_t k = begin; k < end; ++k) {
      shards[k].ext = ontology->ComputeExt(todo[k], *instance, &shards[k].pool);
    }
  });
  if (abandon.load(std::memory_order_relaxed)) {
    exec::Stop s = exec->PollNow(1).value_or(
        exec::Stop{exec::StopReason::kCancelled, 1});
    return exec::StopStatus(s, "extension warm-up");
  }
  std::vector<ValueId> remap;
  std::vector<ValueId> ids;
  for (size_t k = 0; k < todo.size(); ++k) {
    // Merge-order probe: ordinal k+1 continues the serial loop's count
    // (the first un-warmed concept consumed ordinal 0 above).
    if (std::optional<exec::Stop> s = exec::Check(exec, k + 1)) {
      return exec::StopStatus(*s, "extension warm-up");
    }
    size_t idx = static_cast<size_t>(todo[k]);
    ExtSet& ext = shards[k].ext;
    if (ext.is_all()) {
      cache_[idx] = ExtSet::All();
    } else {
      const ValuePool& local = shards[k].pool;
      remap.resize(static_cast<size_t>(local.size()));
      for (ValueId lid = 0; lid < local.size(); ++lid) {
        remap[static_cast<size_t>(lid)] = pool_.Intern(local.Get(lid));
      }
      ids.clear();
      ids.reserve(ext.ids().size());
      for (ValueId lid : ext.ids()) ids.push_back(remap[static_cast<size_t>(lid)]);
      cache_[idx] = ExtSet::Finite(std::move(ids));
    }
    // Representation universe = pool size right after this concept's
    // interning, exactly as the serial ExtSlow would have sized it.
    cache_[idx].Freeze(pool_.size());
    cached_[idx] = true;
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
