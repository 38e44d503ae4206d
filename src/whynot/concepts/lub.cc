#include "whynot/concepts/lub.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "whynot/common/algorithm.h"
#include "whynot/concepts/ls_eval.h"

namespace whynot::ls {

LubContext::LubContext(const rel::Instance* instance, LubOptions options)
    : instance_(instance), options_(options) {
  const auto& relations = instance_->schema().relations();
  rel_index_.reserve(relations.size());
  for (size_t i = 0; i < relations.size(); ++i) {
    rel_index_.emplace(relations[i].name(), i);
    for (size_t a = 0; a < relations[i].arity(); ++a) {
      sig_columns_.push_back({i, static_cast<int>(a)});
    }
  }
  sig_words_ = (sig_columns_.size() + 63) / 64;
  empty_sig_.assign(sig_words_, 0);
  boxes_.resize(relations.size());
  columns_.resize(relations.size());
  id_columns_.resize(relations.size());
  columns_built_.resize(relations.size(), false);
}

size_t LubContext::RelIndex(const std::string& relation) const {
  auto it = rel_index_.find(relation);
  return it == rel_index_.end() ? SIZE_MAX : it->second;
}

void LubContext::BuildColumns(size_t rel_idx) const {
  const rel::RelationDef& def = instance_->schema().relations()[rel_idx];
  const rel::StoredRelation* rel = instance_->Find(def.name());
  const ValuePool& pool = instance_->pool();
  std::vector<std::vector<Value>>& cols = columns_[rel_idx];
  std::vector<IdColumn>& id_cols = id_columns_[rel_idx];
  cols.resize(def.arity());
  id_cols.resize(def.arity());
  for (size_t a = 0; a < def.arity(); ++a) {
    cols[a].clear();
    if (rel == nullptr || rel->empty()) continue;
    // The columnar store already keeps the distinct column; re-order it
    // by the pool's rank index instead of rescanning and re-sorting
    // boxed Values. The rank-ordered ids are what the box enumeration
    // probes; the boxed copy only feeds selection constants.
    std::vector<ValueId> ids = rel->Index(a).keys;
    std::sort(ids.begin(), ids.end(), [&pool](ValueId x, ValueId y) {
      return pool.Rank(x) < pool.Rank(y);
    });
    cols[a].reserve(ids.size());
    for (ValueId id : ids) cols[a].push_back(pool.Get(id));
    id_cols[a].rank_sorted = std::move(ids);
  }
  columns_built_[rel_idx] = true;
}

const std::vector<std::vector<Value>>& LubContext::ColumnsFor(
    size_t rel_idx) const {
  // Kept small so the built-already fast path inlines into the lub loops.
  if (!columns_built_[rel_idx]) BuildColumns(rel_idx);
  return columns_[rel_idx];
}

const std::vector<LubContext::IdColumn>& LubContext::IdColumnsFor(
    size_t rel_idx) const {
  if (!columns_built_[rel_idx]) BuildColumns(rel_idx);
  return id_columns_[rel_idx];
}

void LubContext::BuildSignatures() const {
  const ValuePool& pool = instance_->pool();
  const auto& relations = instance_->schema().relations();
  sig_table_.assign(static_cast<size_t>(pool.size()) * sig_words_, 0);
  for (size_t c = 0; c < sig_columns_.size(); ++c) {
    const SigColumn& col = sig_columns_[c];
    const rel::StoredRelation* rel =
        instance_->Find(relations[col.rel_idx].name());
    if (rel == nullptr || rel->empty()) continue;
    const uint64_t bit = uint64_t{1} << (c % 64);
    const std::vector<uint64_t>& words =
        rel->Index(static_cast<size_t>(col.attr)).distinct.words();
    for (size_t w = 0; w < words.size(); ++w) {
      uint64_t bits = words[w];
      while (bits != 0) {
        size_t id = (w << 6) + static_cast<size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        sig_table_[id * sig_words_ + c / 64] |= bit;
      }
    }
  }
  sig_built_ = true;
}

LsConcept LubContext::LubOfSignature(const uint64_t* sig,
                                     const Value* nominal) const {
  std::vector<Conjunct> conjuncts;
  if (nominal != nullptr) conjuncts.push_back(Conjunct::Nominal(*nominal));
  const auto& relations = instance_->schema().relations();
  for (size_t w = 0; w < sig_words_; ++w) {
    uint64_t bits = sig[w];
    while (bits != 0) {
      const SigColumn& col =
          sig_columns_[(w << 6) + static_cast<size_t>(__builtin_ctzll(bits))];
      bits &= bits - 1;
      conjuncts.push_back(
          Conjunct::Projection(relations[col.rel_idx].name(), col.attr));
    }
  }
  return LsConcept(std::move(conjuncts));
}

std::vector<uint64_t> LubContext::SignatureOf(
    const std::vector<Value>& x) const {
  std::vector<uint64_t> sig(sig_words_, ~uint64_t{0});
  const ValuePool& pool = instance_->pool();
  for (const Value& v : x) {
    const uint64_t* sv = Signature(pool.Lookup(v));
    for (size_t w = 0; w < sig_words_; ++w) sig[w] &= sv[w];
  }
  return sig;
}

LsConcept LubContext::LubSelectionFree(const std::vector<Value>& x) const {
  std::vector<Value> sorted_x = x;
  SortUnique(&sorted_x);
  // A value outside the pool empties sig(X), leaving at most the nominal.
  return LubOfSignature(SignatureOf(sorted_x).data(),
                        sorted_x.size() == 1 ? &sorted_x.front() : nullptr);
}

Status LubContext::BuildBoxes(size_t rel_idx, RelationBoxes* out) const {
  const rel::RelationDef& def = instance_->schema().relations()[rel_idx];
  const std::string& relation = def.name();
  const rel::StoredRelation* rel = instance_->Find(relation);
  const ValuePool& pool = instance_->pool();
  size_t m = def.arity();
  size_t n = rel == nullptr ? 0 : rel->num_rows();
  if (n == 0) return Status::OK();

  // Sorted distinct values per attribute, and each tuple's value index.
  // In id space the per-tuple position comes from the cached rank-sorted
  // distinct column plus one dense array probe per cell — no boxed binary
  // searches, no hashing.
  const std::vector<std::vector<Value>>& distinct = ColumnsFor(rel_idx);
  const std::vector<IdColumn>& id_cols = IdColumnsFor(rel_idx);
  std::vector<std::vector<int>> tuple_value_index(m,
                                                  std::vector<int>(n, 0));
  std::vector<int> pos(static_cast<size_t>(pool.size()), -1);
  for (size_t j = 0; j < m; ++j) {
    const std::vector<ValueId>& ordered = id_cols[j].rank_sorted;
    for (size_t k = 0; k < ordered.size(); ++k) {
      pos[static_cast<size_t>(ordered[k])] = static_cast<int>(k);
    }
    for (size_t i = 0; i < n; ++i) {
      tuple_value_index[j][i] = pos[static_cast<size_t>(rel->At(i, j))];
    }
    for (ValueId id : ordered) pos[static_cast<size_t>(id)] = -1;
  }

  // Columnar run-length narrowing state. The selected tuple set lives in a
  // word vector; narrowing to a run [a..b] of attribute j is then one
  // AND-with-mask sweep (prefix mode) or one set-bit walk (scalar mode)
  // instead of the old per-tuple trace copy.
  size_t nwords = (n + 63) / 64;

  // Prefix mode precomputes, per attribute, k+1 prefix bitmaps P[v] with
  // bit i set iff tuple_value_index[j][i] < v, so the run mask for [a..b]
  // is P[b+1] &~ P[a] — O(nwords) per candidate run, independent of how
  // many tuples the run matches. That costs (k+1)*nwords words of memory,
  // which is ~n²/64 on near-unique columns; those fall back to the scalar
  // walk over the selected bits (same O(popcount) as the old trace copy,
  // without the allocation). Both strategies narrow to identical sets, so
  // the choice is invisible in the output.
  std::vector<std::vector<std::vector<uint64_t>>> prefix(m);
  std::vector<bool> use_prefix(m, false);
  for (size_t j = 0; j < m; ++j) {
    size_t k = distinct[j].size();
    if ((k + 1) * nwords > std::max<size_t>(64 * nwords, 8 * n)) continue;
    use_prefix[j] = true;
    std::vector<std::vector<uint64_t>>& P = prefix[j];
    P.assign(k + 1, std::vector<uint64_t>(nwords, 0));
    for (size_t i = 0; i < n; ++i) {
      size_t vi = static_cast<size_t>(tuple_value_index[j][i]);
      P[vi + 1][i >> 6] |= uint64_t{1} << (i & 63);
    }
    for (size_t v = 1; v <= k; ++v) {
      for (size_t w = 0; w < nwords; ++w) P[v][w] |= P[v - 1][w];
    }
  }

  auto none_set = [nwords](const std::vector<uint64_t>& words) {
    for (size_t w = 0; w < nwords; ++w) {
      if (words[w] != 0) return false;
    }
    return true;
  };

  // Recursive enumeration of per-attribute runs. The trace (selected tuple
  // set, as its word vector) canonicalizes boxes; duplicates keep the
  // first (fewest selections, because the unconstrained option is
  // enumerated first).
  std::map<std::vector<uint64_t>, size_t> seen;
  size_t enumerated = 0;
  std::vector<Selection> current_sel;
  std::vector<uint64_t> all_tuples(nwords, 0);
  for (size_t i = 0; i < n; ++i) {
    all_tuples[i >> 6] |= uint64_t{1} << (i & 63);
  }

  // Iterative stack-free recursion via std::function-free lambda recursion.
  Status status = Status::OK();
  auto recurse = [&](auto&& self, size_t j,
                     std::vector<uint64_t> selected) -> void {
    if (!status.ok()) return;
    if (none_set(selected)) return;
    if (j == m) {
      if (++enumerated > options_.max_boxes_per_relation) {
        status = Status::ResourceExhausted(
            "canonical box enumeration for relation '" + relation +
            "' exceeded max_boxes_per_relation; lub with selections is "
            "exponential in schema arity (Lemma 5.2)");
        return;
      }
      auto [it, inserted] = seen.emplace(selected, out->boxes.size());
      if (inserted) {
        Box box;
        box.selections = current_sel;
        // Decode set bits ascending: tuple_indices stays index-sorted,
        // which the projection fill and minimality includes rely on.
        for (size_t w = 0; w < nwords; ++w) {
          uint64_t bits = selected[w];
          while (bits != 0) {
            uint32_t i = static_cast<uint32_t>(
                (w << 6) + static_cast<size_t>(__builtin_ctzll(bits)));
            box.tuple_indices.push_back(i);
            bits &= bits - 1;
          }
        }
        box.id_projections.resize(m);
        out->boxes.push_back(std::move(box));
      }
      return;
    }
    // Option 1: no constraint on attribute j.
    self(self, j + 1, selected);
    // Option 2: every run [a..b] over the distinct values of attribute j.
    int k = static_cast<int>(distinct[j].size());
    std::vector<uint64_t> narrowed(nwords);
    for (int a = 0; a < k; ++a) {
      for (int b = a; b < k; ++b) {
        if (a == 0 && b == k - 1) continue;  // same trace as unconstrained
        bool any = false;
        if (use_prefix[j]) {
          const std::vector<uint64_t>& lo = prefix[j][static_cast<size_t>(a)];
          const std::vector<uint64_t>& hi =
              prefix[j][static_cast<size_t>(b) + 1];
          for (size_t w = 0; w < nwords; ++w) {
            narrowed[w] = selected[w] & hi[w] & ~lo[w];
            any |= narrowed[w] != 0;
          }
        } else {
          std::fill(narrowed.begin(), narrowed.end(), 0);
          for (size_t w = 0; w < nwords; ++w) {
            uint64_t bits = selected[w];
            while (bits != 0) {
              size_t i = (w << 6) + static_cast<size_t>(__builtin_ctzll(bits));
              bits &= bits - 1;
              int vi = tuple_value_index[j][i];
              if (vi >= a && vi <= b) {
                narrowed[w] |= uint64_t{1} << (i & 63);
                any = true;
              }
            }
          }
        }
        if (!any) continue;
        size_t sel_mark = current_sel.size();
        int ja = static_cast<int>(j);
        if (a == b) {
          current_sel.push_back({ja, rel::CmpOp::kEq, distinct[j][a]});
        } else {
          if (a > 0) {
            current_sel.push_back({ja, rel::CmpOp::kGe, distinct[j][a]});
          }
          if (b < k - 1) {
            current_sel.push_back({ja, rel::CmpOp::kLe, distinct[j][b]});
          }
        }
        self(self, j + 1, narrowed);
        current_sel.resize(sel_mark);
        if (!status.ok()) return;
      }
    }
  };
  recurse(recurse, 0, std::move(all_tuples));
  return status;
}

LubContext::RelationBoxes& LubContext::BoxesFor(size_t rel_idx) {
  RelationBoxes& rb = boxes_[rel_idx];
  if (!rb.built) {
    rb.build_status = BuildBoxes(rel_idx, &rb);
    rb.built = true;
  }
  return rb;
}

size_t LubContext::NumBoxes(const std::string& relation) {
  size_t idx = RelIndex(relation);
  if (idx == SIZE_MAX) return 0;
  return BoxesFor(idx).boxes.size();
}

Result<std::vector<LsConcept>> LubContext::CanonicalSelectionConcepts(
    const std::string& relation) {
  size_t idx = RelIndex(relation);
  if (idx == SIZE_MAX) {
    return Status::NotFound("unknown relation " + relation);
  }
  RelationBoxes& rb = BoxesFor(idx);
  if (!rb.build_status.ok()) return rb.build_status;
  const rel::RelationDef& def = instance_->schema().relations()[idx];
  std::vector<LsConcept> out;
  for (const Box& box : rb.boxes) {
    for (size_t a = 0; a < def.arity(); ++a) {
      out.push_back(LsConcept::Projection(relation, static_cast<int>(a),
                                          box.selections));
    }
  }
  return out;
}

Result<LsConcept> LubContext::LubWithSelections(const std::vector<Value>& x) {
  std::vector<Value> sorted_x = x;
  SortUnique(&sorted_x);
  return LubWithSelectionsSorted(sorted_x);
}

Result<LsConcept> LubContext::LubWithSelectionsSorted(
    const std::vector<Value>& sorted_x) {
  std::vector<Conjunct> conjuncts;
  if (sorted_x.size() == 1) {
    conjuncts.push_back(Conjunct::Nominal(sorted_x.front()));
  }

  // Id space: box projections are rank-sorted pool ids, the validity test
  // an integer std::includes. An X value outside the pool invalidates
  // every box (no fact mentions it), leaving just the nominal.
  const ValuePool& pool = instance_->pool();
  std::vector<ValueId> x_ids;
  x_ids.reserve(sorted_x.size());
  bool all_interned = true;
  for (const Value& v : sorted_x) {
    ValueId id = pool.Lookup(v);
    if (id < 0) {
      all_interned = false;
      break;
    }
    x_ids.push_back(id);
  }
  auto rank_less = [&pool](ValueId l, ValueId r) {
    return pool.Rank(l) < pool.Rank(r);
  };
  std::sort(x_ids.begin(), x_ids.end(), rank_less);

  const auto& relations = instance_->schema().relations();
  for (size_t r = 0; r < relations.size() && all_interned; ++r) {
    const rel::RelationDef& def = relations[r];
    RelationBoxes& rb = BoxesFor(r);
    if (!rb.build_status.ok()) return rb.build_status;
    const rel::StoredRelation* rel = instance_->Find(def.name());
    for (size_t a = 0; a < def.arity(); ++a) {
      int attr = static_cast<int>(a);
      // Valid boxes: A-projection contains X.
      std::vector<Box*> valid;
      for (Box& box : rb.boxes) {
        std::vector<ValueId>& proj = box.id_projections[a];
        if (proj.empty()) {
          proj.reserve(box.tuple_indices.size());
          for (uint32_t idx : box.tuple_indices) {
            proj.push_back(rel->At(idx, a));
          }
          std::sort(proj.begin(), proj.end(), rank_less);
          proj.erase(std::unique(proj.begin(), proj.end()), proj.end());
        }
        if (std::includes(proj.begin(), proj.end(), x_ids.begin(),
                          x_ids.end(), rank_less)) {
          valid.push_back(&box);
        }
      }
      // Keep inclusion-minimal traces: validity is upward closed in the
      // trace, so the intersection over all valid conjuncts equals the
      // intersection over the minimal ones.
      std::sort(valid.begin(), valid.end(), [](const Box* l, const Box* r) {
        return l->tuple_indices.size() < r->tuple_indices.size();
      });
      std::vector<Box*> minimal;
      for (Box* candidate : valid) {
        bool dominated = false;
        for (Box* kept : minimal) {
          if (std::includes(candidate->tuple_indices.begin(),
                            candidate->tuple_indices.end(),
                            kept->tuple_indices.begin(),
                            kept->tuple_indices.end())) {
            dominated = true;
            break;
          }
        }
        if (!dominated) minimal.push_back(candidate);
      }
      for (Box* box : minimal) {
        conjuncts.push_back(
            Conjunct::Projection(def.name(), attr, box->selections));
      }
    }
  }
  return LsConcept(std::move(conjuncts));
}

}  // namespace whynot::ls
