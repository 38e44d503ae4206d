#include "whynot/concepts/materialize.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "whynot/concepts/ls_eval.h"
#include "whynot/concepts/lub.h"

namespace whynot::ls {

namespace {

/// Key identifying an extension for deduplication. All extensions here are
/// evaluated against one instance, so the (canonical, rank-sorted) pool id
/// vector plus the boxed out-of-pool extras identify the set — integer
/// comparisons instead of boxed Value vectors for the common case.
using ExtKey = std::tuple<bool, std::vector<ValueId>, std::vector<Value>>;

ExtKey KeyOf(const Extension& e) { return {e.all, e.ids(), e.extras()}; }

bool ShorterRepresentative(const LsConcept& a, const LsConcept& b) {
  if (a.Length() != b.Length()) return a.Length() < b.Length();
  return a < b;
}

}  // namespace

Result<std::vector<LsConcept>> EnumerateConjunctConcepts(
    const rel::Instance& instance, const std::vector<Value>& constants,
    Fragment fragment, size_t max_concepts) {
  std::vector<LsConcept> out;
  out.push_back(LsConcept::Top());
  for (const Value& c : constants) out.push_back(LsConcept::Nominal(c));
  for (const rel::RelationDef& def : instance.schema().relations()) {
    for (size_t a = 0; a < def.arity(); ++a) {
      out.push_back(LsConcept::Projection(def.name(), static_cast<int>(a)));
    }
  }
  if (fragment == Fragment::kFull) {
    LubContext ctx(&instance);
    for (const rel::RelationDef& def : instance.schema().relations()) {
      WHYNOT_ASSIGN_OR_RETURN(std::vector<LsConcept> sel,
                              ctx.CanonicalSelectionConcepts(def.name()));
      for (LsConcept& c : sel) out.push_back(std::move(c));
      if (out.size() > max_concepts * 4) {
        return Status::ResourceExhausted(
            "conjunct enumeration exceeded the concept cap; full LS[K] is "
            "double-exponential (Proposition 4.2)");
      }
    }
  }
  return out;
}

Result<std::unique_ptr<LsOntology>> LsOntology::Materialize(
    const rel::Instance* instance, std::vector<Value> extra_constants,
    const MaterializeOptions& options) {
  std::vector<Value> constants = instance->ActiveDomain();
  for (Value& v : extra_constants) constants.push_back(std::move(v));
  std::sort(constants.begin(), constants.end());
  constants.erase(std::unique(constants.begin(), constants.end()),
                  constants.end());

  WHYNOT_ASSIGN_OR_RETURN(
      std::vector<LsConcept> base,
      EnumerateConjunctConcepts(*instance, constants, options.fragment,
                                options.max_concepts));

  std::vector<LsConcept> concepts;
  if (options.fragment == Fragment::kMinimal) {
    concepts = std::move(base);
  } else if (!options.dedup_by_extension) {
    // Syntactic closure under intersection (needed for ⊑_S ontologies,
    // where extension-equal concepts may differ schema-wise; Example 4.9
    // E7 vs E8). Exponential — capped.
    std::set<LsConcept> all(base.begin(), base.end());
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<LsConcept> snapshot(all.begin(), all.end());
      for (const LsConcept& c : snapshot) {
        for (const LsConcept& b : base) {
          LsConcept meet = c.Intersect(b);
          if (all.insert(meet).second) {
            changed = true;
            if (all.size() > options.max_concepts) {
              return Status::ResourceExhausted(
                  "syntactic closure exceeded max_concepts (selection-free "
                  "LS[K] is single-exponential, Proposition 4.2)");
            }
          }
        }
      }
    }
    concepts.assign(all.begin(), all.end());
  } else {
    // Close the base conjuncts under intersection, deduplicating by
    // extension on I (i.e. modulo ≡_{O_I}) and keeping a shortest
    // representative per class. The closure is the lattice of achievable
    // extensions, which is what Algorithm 1 over OI[K] operates on.
    std::map<ExtKey, LsConcept> by_ext;
    for (const LsConcept& c : base) {
      ExtKey key = KeyOf(Eval(c, *instance));
      auto it = by_ext.find(key);
      if (it == by_ext.end()) {
        by_ext.emplace(std::move(key), c);
      } else if (ShorterRepresentative(c, it->second)) {
        it->second = c;
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<std::pair<ExtKey, LsConcept>> snapshot(by_ext.begin(),
                                                         by_ext.end());
      for (const auto& [key, concept_expr] : snapshot) {
        for (const LsConcept& b : base) {
          LsConcept meet = concept_expr.Intersect(b);
          ExtKey meet_key = KeyOf(Eval(meet, *instance));
          auto it = by_ext.find(meet_key);
          if (it == by_ext.end()) {
            by_ext.emplace(std::move(meet_key), std::move(meet));
            changed = true;
            if (by_ext.size() > options.max_concepts) {
              return Status::ResourceExhausted(
                  "materialized OI[K] exceeded max_concepts; derived "
                  "ontologies are typically infinite and not meant to be "
                  "materialized (Section 4.2)");
            }
          } else if (ShorterRepresentative(meet, it->second)) {
            it->second = std::move(meet);
            // Representative change only; no new extension class.
          }
        }
      }
    }
    concepts.reserve(by_ext.size());
    for (auto& [key, c] : by_ext) concepts.push_back(std::move(c));
  }
  if (concepts.size() > options.max_concepts) {
    return Status::ResourceExhausted("materialization exceeded max_concepts");
  }
  return FromConcepts(instance, std::move(concepts), options);
}

Result<std::unique_ptr<LsOntology>> LsOntology::FromConcepts(
    const rel::Instance* instance, std::vector<LsConcept> concepts,
    const MaterializeOptions& options) {
  std::sort(concepts.begin(), concepts.end());
  concepts.erase(std::unique(concepts.begin(), concepts.end()),
                 concepts.end());
  std::unique_ptr<LsOntology> onto(
      new LsOntology(instance, std::move(concepts)));
  WHYNOT_RETURN_IF_ERROR(onto->BuildMatrix(options));
  return onto;
}

Status LsOntology::BuildMatrix(const MaterializeOptions& options) {
  int32_t n = NumConcepts();
  matrix_ = onto::BoolMatrix(n);
  if (options.mode == SubsumptionMode::kInstance) {
    std::vector<Extension> exts;
    exts.reserve(static_cast<size_t>(n));
    for (const LsConcept& c : concepts_) exts.push_back(Eval(c, *instance_));
    for (int32_t i = 0; i < n; ++i) {
      for (int32_t j = 0; j < n; ++j) {
        if (exts[static_cast<size_t>(i)].SubsetOf(
                exts[static_cast<size_t>(j)])) {
          matrix_.Set(i, j);
        }
      }
    }
    return Status::OK();
  }
  for (int32_t i = 0; i < n; ++i) {
    for (int32_t j = 0; j < n; ++j) {
      if (i == j) {
        matrix_.Set(i, j);
        continue;
      }
      WHYNOT_ASSIGN_OR_RETURN(
          bool sub,
          SubsumedS(concepts_[static_cast<size_t>(i)],
                    concepts_[static_cast<size_t>(j)], instance_->schema(),
                    options.schema_options));
      if (sub) matrix_.Set(i, j);
    }
  }
  return Status::OK();
}

std::string LsOntology::ConceptName(onto::ConceptId id) const {
  return concepts_[static_cast<size_t>(id)].ToString(&instance_->schema());
}

bool LsOntology::Subsumes(onto::ConceptId sub, onto::ConceptId super) const {
  return matrix_.Get(sub, super);
}

onto::ExtSet LsOntology::ComputeExt(onto::ConceptId id,
                                    const rel::Instance& instance,
                                    ValuePool* pool) const {
  Extension e = Eval(concepts_[static_cast<size_t>(id)], instance);
  if (e.all) return onto::ExtSet::All();
  // Re-intern from the instance pool ids (plus the boxed extras) into the
  // ontology pool — no intermediate boxed vector.
  const ValuePool& instance_pool = instance.pool();
  std::vector<ValueId> ids;
  ids.reserve(e.ids().size() + e.extras().size());
  for (ValueId vid : e.ids()) ids.push_back(pool->Intern(instance_pool.Get(vid)));
  for (const Value& v : e.extras()) ids.push_back(pool->Intern(v));
  return onto::ExtSet::Finite(std::move(ids));
}

}  // namespace whynot::ls
