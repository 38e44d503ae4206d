#ifndef WHYNOT_ONTOLOGY_ONTOLOGY_H_
#define WHYNOT_ONTOLOGY_ONTOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "whynot/common/exec_control.h"
#include "whynot/common/status.h"
#include "whynot/common/value.h"
#include "whynot/ontology/ext_set.h"
#include "whynot/relational/instance.h"

namespace whynot::onto {

/// Dense handle for a concept inside one ontology object.
using ConceptId = int32_t;

/// A *finite* S-ontology (C, ⊑, ext) in the sense of Definition 3.1.
///
/// `C` is finite here; the infinite instance/schema-derived ontologies OI
/// and OS of Section 4.2 are deliberately *not* materialized (the paper's
/// Algorithm 2 works against them directly via `lub`), but their finite
/// restrictions OI[K] / OS[K] can be materialized into this interface
/// (concepts/materialize.h), which is what Propositions 5.1 and 5.3 exploit.
class FiniteOntology {
 public:
  virtual ~FiniteOntology() = default;

  virtual int32_t NumConcepts() const = 0;
  virtual std::string ConceptName(ConceptId id) const = 0;

  /// The subsumption pre-order: true iff `sub` ⊑ `super`. Must be reflexive
  /// and transitive.
  virtual bool Subsumes(ConceptId sub, ConceptId super) const = 0;

  /// ext(C, I): the extension of concept `id` in `instance`, with constants
  /// interned into `pool`. Must be polynomial-time computable
  /// (Definition 3.1). BoundOntology calls it serially.
  virtual ExtSet ComputeExt(ConceptId id, const rel::Instance& instance,
                            ValuePool* pool) const = 0;
};

/// A finite ontology bound to one instance: caches extensions, owns the
/// value pool, and checks consistency (Definition 3.1: I is consistent with
/// O iff C1 ⊑ C2 implies ext(C1, I) ⊆ ext(C2, I)).
///
/// All explanation algorithms over external ontologies operate on a
/// BoundOntology.
class BoundOntology {
 public:
  BoundOntology(const FiniteOntology* ontology, const rel::Instance* instance);

  const FiniteOntology& ontology() const { return *ontology_; }
  const rel::Instance& instance() const { return *instance_; }
  ValuePool& pool() { return pool_; }
  const ValuePool& pool() const { return pool_; }

  int32_t NumConcepts() const { return ontology_->NumConcepts(); }
  bool Subsumes(ConceptId sub, ConceptId super) const {
    return ontology_->Subsumes(sub, super);
  }
  std::string ConceptName(ConceptId id) const {
    return ontology_->ConceptName(id);
  }

  /// Cached ext(C, I). A cached ExtSet dense enough for ExtSet's density
  /// rule carries a DenseBitmap mirror, so membership probes are O(1) word
  /// tests; sparser sets are probed by binary search. Inline fast path:
  /// one flag test once the extension is cached.
  const ExtSet& Ext(ConceptId id) {
    size_t idx = static_cast<size_t>(id);
    if (cached_[idx]) return cache_[idx];
    return ExtSlow(id);
  }

  /// Computes every concept extension up front, serially in concept order
  /// (the pool ids therefore never depend on the thread count). Called
  /// implicitly by ConceptsContaining; cheap to call again.
  ///
  /// `exec` (optional) is observed once per un-warmed concept, so a stop
  /// ordinal is thread-invariant. A stop — or an injected warm
  /// failure (test::FaultInjector::fail_warm) — returns the matching error
  /// status; concepts already warmed stay cached (warm-up is idempotent
  /// and resumable), and there is no partial warm table to certify.
  Status WarmExtensions(const exec::ExecContext* exec = nullptr);

  /// C(a): all concepts whose extension contains `id` (line 1 of
  /// Algorithm 1). One word-parallel pass over the precomputed extension
  /// table; shared by the exhaustive, existence, cardinality, and why
  /// explanation searches.
  std::vector<ConceptId> ConceptsContaining(ValueId id);

  /// Checks Definition 3.1 consistency of the bound instance with the
  /// ontology. Returns InvalidArgument naming the offending pair otherwise.
  Status CheckConsistent();

  /// Memory accounting for the warm extension table: resident bytes and
  /// how many finite extensions carry a dense mirror. `hybrid_sets` is
  /// always 0 — the chunked hybrid form is gone, and the field stays only
  /// for readers that still report it.
  struct MemoryStats {
    size_t ext_bytes = 0;
    size_t dense_sets = 0;   // carries a dense mirror
    size_t hybrid_sets = 0;  // always 0
    size_t flat_sets = 0;    // id vector only
  };
  MemoryStats ExtMemoryStats() const;

 private:
  const ExtSet& ExtSlow(ConceptId id);

  const FiniteOntology* ontology_;
  const rel::Instance* instance_;
  ValuePool pool_;
  std::vector<ExtSet> cache_;
  std::vector<bool> cached_;
};

}  // namespace whynot::onto

#endif  // WHYNOT_ONTOLOGY_ONTOLOGY_H_
