#include "whynot/relational/constraints.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "whynot/common/strings.h"
#include "whynot/relational/instance.h"
#include "whynot/relational/schema.h"

namespace whynot::rel {

namespace {

Status ValidateAttrs(const Schema& schema, const std::string& relation,
                     const std::vector<int>& attrs, const char* what) {
  const RelationDef* def = schema.Find(relation);
  if (def == nullptr) {
    return Status::NotFound(std::string(what) + " references unknown relation '" +
                            relation + "'");
  }
  for (int a : attrs) {
    if (a < 0 || static_cast<size_t>(a) >= def->arity()) {
      return Status::InvalidArgument(
          std::string(what) + " attribute index " + std::to_string(a) +
          " out of range for " + relation);
    }
  }
  return Status::OK();
}

std::vector<std::string> AttrNames(const Schema& schema,
                                   const std::string& relation,
                                   const std::vector<int>& attrs) {
  std::vector<std::string> names;
  const RelationDef* def = schema.Find(relation);
  names.reserve(attrs.size());
  for (int a : attrs) {
    names.push_back(def != nullptr ? def->AttrName(a) : std::to_string(a));
  }
  return names;
}

/// Id-space row projection over the columnar store. Value interning is
/// injective, so id equality is exactly Value equality and the FD/ID checks
/// never need to touch boxed Values except to render a violation.
std::vector<ValueId> ProjectIds(const StoredRelation& rel, size_t row,
                                const std::vector<int>& attrs) {
  std::vector<ValueId> out;
  out.reserve(attrs.size());
  for (int a : attrs) out.push_back(rel.At(row, static_cast<size_t>(a)));
  return out;
}

Tuple IdsToTuple(const ValuePool& pool, const std::vector<ValueId>& ids) {
  Tuple out;
  out.reserve(ids.size());
  for (ValueId id : ids) out.push_back(pool.Get(id));
  return out;
}

struct IdVecHash {
  size_t operator()(const std::vector<ValueId>& ids) const {
    return static_cast<size_t>(StoredRelation::HashIds(ids));
  }
};

}  // namespace

Status FunctionalDependency::Validate(const Schema& schema) const {
  WHYNOT_RETURN_IF_ERROR(ValidateAttrs(schema, relation, lhs, "FD"));
  WHYNOT_RETURN_IF_ERROR(ValidateAttrs(schema, relation, rhs, "FD"));
  if (rhs.empty()) return Status::InvalidArgument("FD with empty RHS");
  return Status::OK();
}

std::string FunctionalDependency::ToString(const Schema& schema) const {
  return relation + " : " + Join(AttrNames(schema, relation, lhs), ", ") +
         " -> " + Join(AttrNames(schema, relation, rhs), ", ");
}

Status InclusionDependency::Validate(const Schema& schema) const {
  WHYNOT_RETURN_IF_ERROR(ValidateAttrs(schema, lhs_relation, lhs_attrs, "ID"));
  WHYNOT_RETURN_IF_ERROR(ValidateAttrs(schema, rhs_relation, rhs_attrs, "ID"));
  if (lhs_attrs.size() != rhs_attrs.size() || lhs_attrs.empty()) {
    return Status::InvalidArgument("ID attribute lists must be equal-length "
                                   "and non-empty");
  }
  return Status::OK();
}

std::string InclusionDependency::ToString(const Schema& schema) const {
  return lhs_relation + "[" +
         Join(AttrNames(schema, lhs_relation, lhs_attrs), ", ") + "] <= " +
         rhs_relation + "[" +
         Join(AttrNames(schema, rhs_relation, rhs_attrs), ", ") + "]";
}

bool SatisfiesFd(const Instance& instance, const FunctionalDependency& fd,
                 std::string* violation) {
  const StoredRelation* rel = instance.Find(fd.relation);
  if (rel == nullptr || rel->empty()) return true;
  // lhs id projection -> rhs id projection
  std::unordered_map<std::vector<ValueId>, std::vector<ValueId>, IdVecHash>
      seen;
  seen.reserve(rel->num_rows());
  for (size_t row = 0; row < rel->num_rows(); ++row) {
    std::vector<ValueId> key = ProjectIds(*rel, row, fd.lhs);
    std::vector<ValueId> val = ProjectIds(*rel, row, fd.rhs);
    auto [it, inserted] = seen.emplace(std::move(key), val);
    if (!inserted && it->second != val) {
      if (violation != nullptr) {
        *violation = fd.ToString(instance.schema()) + " on tuples with key " +
                     TupleToString(IdsToTuple(instance.pool(), it->first));
      }
      return false;
    }
  }
  return true;
}

bool SatisfiesId(const Instance& instance, const InclusionDependency& id,
                 std::string* violation) {
  const StoredRelation* lhs = instance.Find(id.lhs_relation);
  if (lhs == nullptr || lhs->empty()) return true;
  const StoredRelation* rhs = instance.Find(id.rhs_relation);

  // Unary IDs over index-worthy relations reduce to word-parallel
  // containment of the distinct-value bitmaps of the two columns.
  if (id.lhs_attrs.size() == 1 && rhs != nullptr && !rhs->empty() &&
      lhs->num_rows() >= StoredRelation::kIndexMinRows &&
      rhs->num_rows() >= StoredRelation::kIndexMinRows) {
    const StoredRelation::ColumnIndex& lix =
        lhs->Index(static_cast<size_t>(id.lhs_attrs[0]));
    const StoredRelation::ColumnIndex& rix =
        rhs->Index(static_cast<size_t>(id.rhs_attrs[0]));
    if (lix.distinct.SubsetOf(rix.distinct)) return true;
    if (violation != nullptr) {
      for (ValueId key : lix.keys) {
        if (!rix.distinct.Test(key)) {
          *violation = id.ToString(instance.schema()) + " misses " +
                       TupleToString({instance.pool().Get(key)});
          break;
        }
      }
    }
    return false;
  }

  std::unordered_set<std::vector<ValueId>, IdVecHash> rhs_keys;
  if (rhs != nullptr) {
    rhs_keys.reserve(rhs->num_rows());
    for (size_t row = 0; row < rhs->num_rows(); ++row) {
      rhs_keys.insert(ProjectIds(*rhs, row, id.rhs_attrs));
    }
  }
  for (size_t row = 0; row < lhs->num_rows(); ++row) {
    std::vector<ValueId> key = ProjectIds(*lhs, row, id.lhs_attrs);
    if (rhs_keys.count(key) == 0) {
      if (violation != nullptr) {
        *violation = id.ToString(instance.schema()) + " misses " +
                     TupleToString(IdsToTuple(instance.pool(), key));
      }
      return false;
    }
  }
  return true;
}

}  // namespace whynot::rel
