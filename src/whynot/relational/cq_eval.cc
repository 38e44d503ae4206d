#include "whynot/relational/cq_eval.h"

#include <algorithm>
#include <limits>
#include <string>

#include "whynot/relational/interval.h"

namespace whynot::rel {

namespace {

/// Shared id-space evaluation state for one CQ over one instance. All
/// constants, comparisons, and variable occurrences are compiled to dense
/// ids up front; the backtracking join then runs entirely on ValueId
/// columns.
class Evaluator {
 public:
  Evaluator(const ConjunctiveQuery& query, const Instance& instance)
      : query_(query), instance_(instance), pool_(instance.pool()) {
    Compile();
    if (feasible_) OrderAtoms();
  }

  /// Runs the backtracking join. If `first_only`, stops after one match.
  /// Appends head projections of matches to `out` (unsorted, may contain
  /// duplicates).
  bool Run(bool first_only, std::vector<std::vector<ValueId>>* out) {
    found_ = false;
    if (!feasible_) return false;
    first_only_ = first_only;
    out_ = out;
    Descend(0);
    return found_;
  }

 private:
  struct CompiledTerm {
    bool is_var = false;
    int var = -1;           // dense variable index when is_var
    ValueId const_id = -1;  // interned constant id otherwise
  };

  struct CompiledAtom {
    const StoredRelation* rel = nullptr;
    std::vector<CompiledTerm> terms;
    // Large enough that posting lists and semi-join bitmaps pay for their
    // construction; small relations are scanned directly.
    bool indexed = false;
  };

  /// Per-variable join state, consolidated so setup is one allocation.
  struct VarState {
    ValueId binding = -1;  // -1 = unbound
    RankRange range{0, 0};
    bool has_filter = false;
  };

  // CQs have a handful of variables; a linear scan over a small vector of
  // name pointers (the strings live in the query) beats tree/hash lookups
  // and their node allocations in the one-shot queries the ⊑_S deciders
  // evaluate over canonical instances.
  int VarIndex(const std::string& name) {
    for (size_t i = 0; i < var_names_.size(); ++i) {
      if (*var_names_[i] == name) return static_cast<int>(i);
    }
    var_names_.push_back(&name);
    return static_cast<int>(var_names_.size()) - 1;
  }

  int FindVar(const std::string& name) const {
    for (size_t i = 0; i < var_names_.size(); ++i) {
      if (*var_names_[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  void Compile() {
    // Atoms: resolve relations and intern constants. A constant that was
    // never interned, or an empty relation, makes the CQ unsatisfiable.
    atoms_.reserve(query_.atoms.size());
    for (const Atom& atom : query_.atoms) {
      CompiledAtom ca;
      ca.rel = instance_.Find(atom.relation);
      if (ca.rel == nullptr || ca.rel->empty()) {
        feasible_ = false;
        return;
      }
      ca.indexed = ca.rel->num_rows() >= StoredRelation::kIndexMinRows;
      ca.terms.reserve(atom.args.size());
      for (const Term& term : atom.args) {
        CompiledTerm ct;
        if (term.is_var()) {
          ct.is_var = true;
          ct.var = VarIndex(term.var());
        } else {
          ct.const_id = pool_.Lookup(term.constant());
          if (ct.const_id < 0) {
            feasible_ = false;
            return;
          }
        }
        ca.terms.push_back(ct);
      }
      atoms_.push_back(std::move(ca));
    }

    vars_.assign(var_names_.size(), VarState());

    // Comparison predicates, pre-resolved to rank ranges of the pool's
    // order-preserving index (variables only bind to interned values).
    for (const Comparison& cmp : query_.comparisons) {
      int v = FindVar(cmp.var);
      if (v < 0) continue;  // Validate() rejects this
      VarState& state = vars_[static_cast<size_t>(v)];
      if (!state.has_filter) {
        state.range = FullRankRange(pool_);
        state.has_filter = true;
      }
      state.range.IntersectWith(ResolveCmpRange(pool_, cmp.op, cmp.constant));
    }

    // Head projection indices, resolved once (emitting an answer must not
    // re-scan variable names per match).
    head_vars_.reserve(query_.head.size());
    for (const std::string& v : query_.head) head_vars_.push_back(FindVar(v));

    // Semi-join filters: the distinct-value bitmap of every *indexed*
    // column each variable occurs in. A candidate binding absent from any
    // of them cannot extend to a full match and is pruned at bind time.
    // Kept flat (var, bitmap) — the list is tiny and usually empty.
    for (const CompiledAtom& ca : atoms_) {
      if (!ca.indexed) continue;
      for (size_t pos = 0; pos < ca.terms.size(); ++pos) {
        const CompiledTerm& ct = ca.terms[pos];
        if (!ct.is_var) continue;
        filters_.emplace_back(ct.var, &ca.rel->Index(pos));
      }
    }
  }

  void OrderAtoms() {
    // Greedy: repeatedly pick the unplaced atom sharing the most variables
    // with already-bound ones (ties: more constants, then original order).
    std::vector<const CompiledAtom*> remaining;
    remaining.reserve(atoms_.size());
    for (const CompiledAtom& a : atoms_) remaining.push_back(&a);
    std::vector<bool> bound(var_names_.size(), false);
    while (!remaining.empty()) {
      size_t best = 0;
      int best_score = -1;
      for (size_t i = 0; i < remaining.size(); ++i) {
        int shared = 0;
        int consts = 0;
        for (const CompiledTerm& t : remaining[i]->terms) {
          if (t.is_var) {
            if (bound[static_cast<size_t>(t.var)]) ++shared;
          } else {
            ++consts;
          }
        }
        int score = shared * 100 + consts;
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      for (const CompiledTerm& t : remaining[best]->terms) {
        if (t.is_var) bound[static_cast<size_t>(t.var)] = true;
      }
      ordered_.push_back(remaining[best]);
      remaining.erase(remaining.begin() + static_cast<long>(best));
    }
  }

  bool AdmitsBinding(int var, ValueId id) const {
    const VarState& state = vars_[static_cast<size_t>(var)];
    if (state.has_filter && !state.range.Contains(pool_.Rank(id))) {
      return false;
    }
    for (const auto& [v, ix] : filters_) {
      if (v == var && !ix->distinct.Test(id)) return false;
    }
    return true;
  }

  /// Checks row `row` of `atom` against constants, bound variables, and
  /// filters; binds previously unbound variables (pushed onto the shared
  /// bind stack). On a non-match, already-made bindings are rolled back by
  /// the caller via the stack mark.
  bool MatchRow(const CompiledAtom& atom, size_t row) {
    for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const CompiledTerm& term = atom.terms[pos];
      ValueId id = atom.rel->At(row, pos);
      if (!term.is_var) {
        if (term.const_id != id) return false;
        continue;
      }
      VarState& state = vars_[static_cast<size_t>(term.var)];
      if (state.binding >= 0) {
        if (state.binding != id) return false;
      } else if (!AdmitsBinding(term.var, id)) {
        return false;
      } else {
        state.binding = id;
        bind_stack_.push_back(term.var);
      }
    }
    return true;
  }

  void Descend(size_t atom_idx) {
    if (found_ && first_only_) return;
    if (atom_idx == ordered_.size()) {
      found_ = true;
      if (out_ != nullptr) {
        std::vector<ValueId> head;
        head.reserve(head_vars_.size());
        for (int v : head_vars_) {
          head.push_back(vars_[static_cast<size_t>(v)].binding);
        }
        out_->push_back(std::move(head));
      }
      return;
    }
    const CompiledAtom& atom = *ordered_[atom_idx];

    // Access path: probe the sorted posting list of the most selective
    // bound position (constant or already-bound variable); fall back to a
    // column-order scan when nothing is bound or the relation is too
    // small to be worth indexing.
    const uint32_t* begin = nullptr;
    const uint32_t* end = nullptr;
    bool have_posting = false;
    if (atom.indexed) {
      for (size_t pos = 0; pos < atom.terms.size(); ++pos) {
        const CompiledTerm& term = atom.terms[pos];
        ValueId id;
        if (!term.is_var) {
          id = term.const_id;
        } else {
          id = vars_[static_cast<size_t>(term.var)].binding;
          if (id < 0) continue;
        }
        auto [b, e] = atom.rel->RowsEqual(pos, id);
        if (!have_posting || e - b < end - begin) {
          begin = b;
          end = e;
          have_posting = true;
        }
        if (begin == end) break;  // provably empty
      }
    }

    size_t mark = bind_stack_.size();
    auto try_row = [&](size_t row) {
      if (MatchRow(atom, row)) {
        Descend(atom_idx + 1);
      }
      while (bind_stack_.size() > mark) {
        vars_[static_cast<size_t>(bind_stack_.back())].binding = -1;
        bind_stack_.pop_back();
      }
    };

    if (have_posting) {
      for (const uint32_t* r = begin; r != end; ++r) {
        try_row(*r);
        if (found_ && first_only_) return;
      }
    } else {
      size_t n = atom.rel->num_rows();
      for (size_t row = 0; row < n; ++row) {
        try_row(row);
        if (found_ && first_only_) return;
      }
    }
  }

  const ConjunctiveQuery& query_;
  const Instance& instance_;
  const ValuePool& pool_;
  bool feasible_ = true;

  std::vector<const std::string*> var_names_;
  std::vector<int> head_vars_;
  std::vector<CompiledAtom> atoms_;
  std::vector<const CompiledAtom*> ordered_;
  std::vector<VarState> vars_;
  // (var, column index) semi-join filters; the index pointer is stable
  // (indexes_ is sized at relation construction) and its distinct bitmap
  // is the probe.
  std::vector<std::pair<int, const StoredRelation::ColumnIndex*>> filters_;
  std::vector<int> bind_stack_;  // vars bound, in bind order

  std::vector<std::vector<ValueId>>* out_ = nullptr;
  bool found_ = false;
  bool first_only_ = false;
};

/// Sorts id rows lexicographically in the Value total order (via the
/// pool's rank index) and deduplicates.
void SortDedupIds(const ValuePool& pool,
                  std::vector<std::vector<ValueId>>* rows) {
  std::sort(rows->begin(), rows->end(),
            [&pool](const std::vector<ValueId>& a,
                    const std::vector<ValueId>& b) {
              size_t n = std::min(a.size(), b.size());
              for (size_t i = 0; i < n; ++i) {
                if (a[i] != b[i]) return pool.Rank(a[i]) < pool.Rank(b[i]);
              }
              return a.size() < b.size();
            });
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

std::vector<Tuple> IdsToTuples(const ValuePool& pool,
                               const std::vector<std::vector<ValueId>>& rows) {
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (const std::vector<ValueId>& row : rows) {
    Tuple t;
    t.reserve(row.size());
    for (ValueId id : row) t.push_back(pool.Get(id));
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

Result<std::vector<std::vector<ValueId>>> EvaluateIds(
    const ConjunctiveQuery& query, const Instance& instance) {
  WHYNOT_RETURN_IF_ERROR(query.Validate(instance.schema()));
  std::vector<std::vector<ValueId>> out;
  Evaluator eval(query, instance);
  eval.Run(/*first_only=*/false, &out);
  SortDedupIds(instance.pool(), &out);
  return out;
}

Result<std::vector<std::vector<ValueId>>> EvaluateIds(
    const UnionQuery& query, const Instance& instance) {
  WHYNOT_RETURN_IF_ERROR(query.Validate(instance.schema()));
  std::vector<std::vector<ValueId>> out;
  for (const ConjunctiveQuery& cq : query.disjuncts) {
    Evaluator eval(cq, instance);
    eval.Run(/*first_only=*/false, &out);
  }
  SortDedupIds(instance.pool(), &out);
  return out;
}

Result<std::vector<Tuple>> Evaluate(const ConjunctiveQuery& query,
                                    const Instance& instance) {
  WHYNOT_ASSIGN_OR_RETURN(std::vector<std::vector<ValueId>> ids,
                          EvaluateIds(query, instance));
  return IdsToTuples(instance.pool(), ids);
}

Result<std::vector<Tuple>> Evaluate(const UnionQuery& query,
                                    const Instance& instance) {
  WHYNOT_ASSIGN_OR_RETURN(std::vector<std::vector<ValueId>> ids,
                          EvaluateIds(query, instance));
  return IdsToTuples(instance.pool(), ids);
}

Result<bool> HasMatch(const ConjunctiveQuery& query,
                      const Instance& instance) {
  WHYNOT_RETURN_IF_ERROR(query.Validate(instance.schema()));
  Evaluator eval(query, instance);
  return eval.Run(/*first_only=*/true, nullptr);
}

}  // namespace whynot::rel
