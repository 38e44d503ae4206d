#include "whynot/concepts/ls_eval.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "whynot/common/algorithm.h"
#include "whynot/common/strings.h"
#include "whynot/relational/interval.h"

namespace whynot::ls {

namespace {

/// Below this many ids a linear scan beats materializing the pool-universe
/// bitmap; probes on nominal-sized extensions stay allocation-free.
constexpr size_t kSmallLinearIds = 8;

}  // namespace

Extension Extension::Of(std::vector<Value> vals) {
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  Extension e;
  e.extras_ = std::move(vals);
  return e;
}

Extension Extension::OfIds(const ValuePool* pool, std::vector<ValueId> ids) {
  auto rank_less = [pool](ValueId a, ValueId b) {
    return pool->Rank(a) < pool->Rank(b);
  };
  if (!std::is_sorted(ids.begin(), ids.end(), rank_less)) {
    std::sort(ids.begin(), ids.end(), rank_less);
  }
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  Extension e;
  e.pool_ = pool;
  e.ids_ = std::move(ids);
  return e;
}

Extension Extension::Nominal(const ValuePool* pool, const Value& v) {
  Extension e;
  e.pool_ = pool;
  ValueId id = pool->Lookup(v);
  if (id >= 0) {
    e.ids_.push_back(id);
  } else {
    e.extras_.push_back(v);
  }
  return e;
}

const std::vector<Value>& Extension::values() const {
  if (boxed_ == nullptr) {
    auto out = std::make_shared<std::vector<Value>>();
    out->reserve(ids_.size() + extras_.size());
    // ids are rank-sorted, so Get() yields them ascending in the Value
    // order; merge with the (disjoint) sorted extras.
    size_t i = 0;
    size_t j = 0;
    while (i < ids_.size() && j < extras_.size()) {
      const Value& a = pool_->Get(ids_[i]);
      if (a < extras_[j]) {
        out->push_back(a);
        ++i;
      } else {
        out->push_back(extras_[j]);
        ++j;
      }
    }
    for (; i < ids_.size(); ++i) out->push_back(pool_->Get(ids_[i]));
    for (; j < extras_.size(); ++j) out->push_back(extras_[j]);
    boxed_ = std::move(out);
  }
  return *boxed_;
}

const DenseBitmap& Extension::bits() const {
  if (bits_ == nullptr) {
    // The bitmap wants ids ascending by *id*; rank order is a permutation.
    std::vector<ValueId> sorted = ids_;
    std::sort(sorted.begin(), sorted.end());
    bits_ = std::make_shared<const DenseBitmap>(
        sorted, pool_ == nullptr ? 0 : pool_->size());
  }
  return *bits_;
}

bool Extension::ContainsIdSlow(ValueId id) const {
  if (ids_.size() <= kSmallLinearIds) {
    return std::find(ids_.begin(), ids_.end(), id) != ids_.end();
  }
  return bits().Test(id);
}

bool Extension::ContainsBoxedSlow(const Value& v) const {
  return std::binary_search(extras_.begin(), extras_.end(), v);
}

bool Extension::Contains(const Value& v) const {
  if (all) return true;
  if (pool_ != nullptr) {
    ValueId id = pool_->Lookup(v);
    if (id >= 0 && ContainsId(id)) return true;
    // Fall through to the extras even when the value is interned: a
    // member recorded as an extra stays one if the pool later interns the
    // value (pools only grow; the id probe cannot see extras).
  }
  return ContainsBoxedSlow(v);
}

bool Extension::SubsetOf(const Extension& o) const {
  if (o.all) return true;
  if (all) return false;
  if (pool_ != nullptr && pool_ == o.pool_) {
    if (!std::includes(o.extras_.begin(), o.extras_.end(), extras_.begin(),
                       extras_.end())) {
      return false;
    }
    if (ids_.empty()) return true;
    if (ids_.size() > o.ids_.size()) return false;
    if (has_bitmap() && o.has_bitmap()) return bits_->SubsetOf(*o.bits_);
    if (o.has_bitmap()) {
      // Probe our ids against the superset's O(1) membership — no
      // universe-sized temporary on our side.
      for (ValueId id : ids_) {
        if (!o.bits_->Test(id)) return false;
      }
      return true;
    }
    // No bitmap on the superset side: rank-order includes, no allocation
    // (one-shot SubsumedI calls and Eval temporaries land here; cached
    // extensions that have answered a ContainsId keep their bitmap and
    // take the word paths above).
    const ValuePool& pool = *pool_;
    auto rank_less = [&pool](ValueId a, ValueId b) {
      return pool.Rank(a) < pool.Rank(b);
    };
    return std::includes(o.ids_.begin(), o.ids_.end(), ids_.begin(),
                         ids_.end(), rank_less);
  }
  const std::vector<Value>& sub = values();
  const std::vector<Value>& super = o.values();
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

Extension Extension::Intersect(const Extension& o) const {
  if (all) return o;
  if (o.all) return *this;
  if (pool_ != nullptr && pool_ == o.pool_) {
    Extension out;
    out.pool_ = pool_;
    const Extension* small = this;
    const Extension* big = &o;
    if (small->ids_.size() > big->ids_.size()) std::swap(small, big);
    if (!small->ids_.empty()) {
      out.ids_.reserve(small->ids_.size());
      if (big->has_bitmap()) {
        // One O(1) probe per element of the smaller side; iteration order
        // of `small` keeps the result rank-sorted. Only an *existing*
        // representation is used — cached conjunct extensions keep theirs
        // across calls, while one-shot temporaries in an Eval chain never
        // pay a pool-universe allocation.
        const DenseBitmap& bb = big->bits();
        for (ValueId id : small->ids_) {
          if (bb.Test(id)) out.ids_.push_back(id);
        }
      } else {
        // Rank-order merge: integer rank loads, no allocation.
        const ValuePool& pool = *pool_;
        auto a = small->ids_.begin();
        auto b = big->ids_.begin();
        while (a != small->ids_.end() && b != big->ids_.end()) {
          int32_t ra = pool.Rank(*a);
          int32_t rb = pool.Rank(*b);
          if (ra < rb) {
            ++a;
          } else if (rb < ra) {
            ++b;
          } else {
            out.ids_.push_back(*a);
            ++a;
            ++b;
          }
        }
      }
    }
    std::set_intersection(extras_.begin(), extras_.end(), o.extras_.begin(),
                          o.extras_.end(), std::back_inserter(out.extras_));
    return out;
  }
  const std::vector<Value>& a = values();
  const std::vector<Value>& b = o.values();
  std::vector<Value> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return Extension::Of(std::move(both));
}

size_t Extension::MemoryBytes() const {
  size_t bytes = sizeof(*this) + ids_.capacity() * sizeof(ValueId) +
                 extras_.capacity() * sizeof(Value);
  if (bits_ != nullptr) bytes += bits_->MemoryBytes();
  if (boxed_ != nullptr) {
    bytes += sizeof(*boxed_) + boxed_->capacity() * sizeof(Value);
  }
  return bytes;
}

size_t Extension::CardinalityOrInfinite() const {
  return all ? std::numeric_limits<size_t>::max()
             : ids_.size() + extras_.size();
}

std::string Extension::ToString() const {
  if (all) return "Const";
  std::vector<std::string> parts;
  parts.reserve(values().size());
  for (const Value& v : values()) parts.push_back(v.ToString());
  return "{" + Join(parts, ", ") + "}";
}

Extension Eval(const Conjunct& conjunct, const rel::Instance& instance) {
  const ValuePool& pool = instance.pool();
  switch (conjunct.kind) {
    case Conjunct::Kind::kTop:
      return Extension::All();
    case Conjunct::Kind::kNominal:
      return Extension::Nominal(&pool, conjunct.nominal);
    case Conjunct::Kind::kProjection: {
      const rel::StoredRelation* rel = instance.Find(conjunct.relation);
      if (rel == nullptr || rel->empty()) return Extension();
      size_t attr = static_cast<size_t>(conjunct.attr);

      // Selection-free projection: exactly the distinct column, which the
      // columnar store already keeps as the index keys (for relations big
      // enough to index; small ones dedup a direct column copy). No Value
      // is ever boxed: the ids go straight into the extension.
      if (conjunct.selections.empty()) {
        if (rel->num_rows() >= rel::StoredRelation::kIndexMinRows) {
          return Extension::OfIds(&pool, rel->Index(attr).keys);
        }
        return Extension::OfIds(&pool, rel->Column(attr));
      }

      // Pre-resolve every selection to a rank range (values only pass if
      // interned); pick an equality selection's posting list as the driver
      // when one exists, otherwise scan the columns.
      std::vector<rel::RankRange> ranges;
      ranges.reserve(conjunct.selections.size());
      const Selection* eq_driver = nullptr;
      for (const Selection& s : conjunct.selections) {
        rel::RankRange r = rel::ResolveCmpRange(pool, s.op, s.constant);
        if (r.empty()) return Extension();
        ranges.push_back(r);
        if (eq_driver == nullptr && s.op == rel::CmpOp::kEq) eq_driver = &s;
      }

      auto row_passes = [&](size_t row) {
        for (size_t i = 0; i < ranges.size(); ++i) {
          const Selection& s = conjunct.selections[i];
          ValueId id = rel->At(row, static_cast<size_t>(s.attr));
          if (!ranges[i].Contains(pool.Rank(id))) return false;
        }
        return true;
      };

      if (rel->num_rows() < rel::StoredRelation::kIndexMinRows) {
        eq_driver = nullptr;  // scanning a tiny relation beats indexing it
      }
      std::vector<ValueId> out;
      if (eq_driver != nullptr) {
        ValueId id = pool.Lookup(eq_driver->constant);
        if (id < 0) return Extension();
        auto [begin, end] =
            rel->RowsEqual(static_cast<size_t>(eq_driver->attr), id);
        for (const uint32_t* r = begin; r != end; ++r) {
          if (row_passes(*r)) out.push_back(rel->At(*r, attr));
        }
      } else {
        for (size_t row = 0; row < rel->num_rows(); ++row) {
          if (row_passes(row)) out.push_back(rel->At(row, attr));
        }
      }
      return Extension::OfIds(&pool, std::move(out));
    }
  }
  return Extension::All();
}

Extension Eval(const LsConcept& concept_expr, const rel::Instance& instance) {
  Extension ext = Extension::All();
  for (const Conjunct& c : concept_expr.conjuncts()) {
    ext = ext.Intersect(Eval(c, instance));
    if (ext.empty()) break;
  }
  return ext;
}

size_t ConceptHash::operator()(const LsConcept& concept_expr) const {
  size_t h = concept_expr.conjuncts().size();
  for (const Conjunct& cj : concept_expr.conjuncts()) {
    h = HashMix(h, static_cast<size_t>(cj.kind));
    switch (cj.kind) {
      case Conjunct::Kind::kTop:
        break;
      case Conjunct::Kind::kNominal:
        h = HashMix(h, cj.nominal.Hash());
        break;
      case Conjunct::Kind::kProjection:
        h = HashMix(h, std::hash<std::string>{}(cj.relation));
        h = HashMix(h, static_cast<size_t>(cj.attr));
        for (const Selection& s : cj.selections) {
          h = HashMix(h, static_cast<size_t>(s.attr));
          h = HashMix(h, static_cast<size_t>(s.op));
          h = HashMix(h, s.constant.Hash());
        }
        break;
    }
  }
  return h;
}

const Extension& EvalCache::EvalConjunct(const Conjunct& conjunct) {
  auto it = conjunct_exts_.find(conjunct);
  if (it == conjunct_exts_.end()) {
    read_rows_ = read_rows_ || !conjunct.selections.empty();
    it = conjunct_exts_.emplace(conjunct, ls::Eval(conjunct, *instance_))
             .first;
  }
  return it->second;
}

const Extension& EvalCache::Eval(const LsConcept& concept_expr) {
  auto it = concept_exts_.find(concept_expr);
  if (it != concept_exts_.end()) return it->second;
  return EvalNode(concept_expr).second;
}

const EvalCache::ConceptMap::value_type& EvalCache::EvalNode(
    LsConcept concept_expr) {
  // One hash: try_emplace both probes and claims the slot.
  auto [it, inserted] = concept_exts_.try_emplace(std::move(concept_expr));
  if (inserted) {
    Extension ext = Extension::All();
    for (const Conjunct& c : it->first.conjuncts()) {
      ext = ext.Intersect(EvalConjunct(c));
      if (ext.empty()) break;
    }
    it->second = std::move(ext);
  }
  return *it;
}

void EvalCache::Clear() {
  conjunct_exts_.clear();
  concept_exts_.clear();
  read_rows_ = false;
}

size_t EvalCache::MemoryBytes() const {
  // Per concept node: the key's conjunct list, the extension and the
  // node's next pointer and cached hash.
  constexpr size_t kNodeOverhead = 2 * sizeof(void*);
  size_t bytes = sizeof(*this);
  for (const auto& [key, ext] : conjunct_exts_) bytes += ext.MemoryBytes();
  for (const auto& [key, ext] : concept_exts_) {
    bytes += sizeof(key) + key.conjuncts().capacity() * sizeof(Conjunct) +
             ext.MemoryBytes() + kNodeOverhead;
  }
  return bytes + concept_exts_.bucket_count() * sizeof(void*);
}

bool SubsumedI(const LsConcept& c1, const LsConcept& c2,
               const rel::Instance& instance) {
  return Eval(c1, instance).SubsetOf(Eval(c2, instance));
}

bool EquivalentI(const LsConcept& c1, const LsConcept& c2,
                 const rel::Instance& instance) {
  return Eval(c1, instance) == Eval(c2, instance);
}

bool StrictlySubsumedI(const LsConcept& c1, const LsConcept& c2,
                       const rel::Instance& instance) {
  Extension e1 = Eval(c1, instance);
  Extension e2 = Eval(c2, instance);
  return e1.SubsetOf(e2) && !(e1 == e2);
}

}  // namespace whynot::ls
