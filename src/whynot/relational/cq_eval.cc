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
  }

  /// True iff some assignment over all rows satisfies the body.
  bool HasMatch() {
    if (!feasible_) return false;
    first_only_ = true;
    OrderAtoms(nullptr);
    Descend(0);
    return found_;
  }

  /// Appends the head projection of every derivation that reads at least
  /// one row at or past its relation's mark in `since` to `out` (flat,
  /// one id per head variable per match; unsorted, may repeat); returns
  /// the number of matches. One pass per atom j with new rows: atoms before j read
  /// their old rows, atom j its new rows, atoms after j all rows. With
  /// every mark 0 only the first pass runs, over all rows. A body without
  /// atoms reads no rows: its one derivation counts as new only for the
  /// full evaluation (`since` empty).
  size_t RunDelta(const RowMarks& since, std::vector<ValueId>* out) {
    if (!feasible_) return 0;
    out_ = out;
    if (atoms_.empty()) {
      if (since.empty()) Descend(0);
      return matches_;
    }
    std::vector<size_t> marks(atoms_.size());
    for (size_t j = 0; j < atoms_.size(); ++j) {
      auto it = since.find(query_.atoms[j].relation);
      marks[j] = it == since.end()
                     ? 0
                     : std::min(it->second, atoms_[j].rel->num_rows());
    }
    for (size_t j = 0; j < atoms_.size(); ++j) {
      if (marks[j] < atoms_[j].rel->num_rows()) {
        for (size_t i = 0; i < atoms_.size(); ++i) {
          atoms_[i].lo = 0;
          atoms_[i].hi = i < j ? marks[i] : atoms_[i].rel->num_rows();
        }
        RunPass(j, marks[j]);
      }
      // Every later pass reads atom j's old rows: none left.
      if (marks[j] == 0) break;
    }
    return matches_;
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
    // The row window [lo, hi) the current pass reads.
    size_t lo = 0;
    size_t hi = 0;
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
      ca.hi = ca.rel->num_rows();
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

  /// One backtracking join over the atoms' current windows. A delta
  /// atom that reads only a suffix of its rows (`delta_lo` > 0) is placed
  /// first, so the pass starts from the few new rows and probes the rest.
  void RunPass(size_t delta_atom, size_t delta_lo) {
    atoms_[delta_atom].lo = delta_lo;
    OrderAtoms(delta_lo > 0 ? &atoms_[delta_atom] : nullptr);
    Descend(0);
  }

  void OrderAtoms(const CompiledAtom* first) {
    // Greedy: repeatedly pick the unplaced atom sharing the most variables
    // with already-bound ones (ties: more constants, then original order).
    ordered_.clear();
    std::vector<const CompiledAtom*> remaining;
    remaining.reserve(atoms_.size());
    for (const CompiledAtom& a : atoms_) {
      if (&a != first) remaining.push_back(&a);
    }
    std::vector<bool> bound(var_names_.size(), false);
    if (first != nullptr) {
      for (const CompiledTerm& t : first->terms) {
        if (t.is_var) bound[static_cast<size_t>(t.var)] = true;
      }
      ordered_.push_back(first);
    }
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
      ++matches_;
      if (out_ != nullptr) {
        for (int v : head_vars_) {
          out_->push_back(vars_[static_cast<size_t>(v)].binding);
        }
      }
      return;
    }
    const CompiledAtom& atom = *ordered_[atom_idx];
    const bool windowed = atom.lo > 0 || atom.hi < atom.rel->num_rows();

    // Access path: probe the sorted posting list of the most selective
    // bound position (constant or already-bound variable), narrowed to the
    // atom's row window (posting lists hold row ids ascending); fall back
    // to a scan of the window when nothing is bound, the relation is too
    // small to be worth indexing, or the window is the smaller range.
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
        if (windowed) {
          b = std::lower_bound(b, e, static_cast<uint32_t>(atom.lo));
          e = std::lower_bound(b, e, static_cast<uint32_t>(atom.hi));
        }
        if (!have_posting || e - b < end - begin) {
          begin = b;
          end = e;
          have_posting = true;
        }
        if (begin == end) break;  // provably empty
      }
      if (have_posting &&
          static_cast<size_t>(end - begin) > atom.hi - atom.lo) {
        have_posting = false;
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
      for (size_t row = atom.lo; row < atom.hi; ++row) {
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

  std::vector<ValueId>* out_ = nullptr;
  size_t matches_ = 0;
  bool found_ = false;
  bool first_only_ = false;
};

/// The distinct rows of `flat` (`width` ids per row, `matches` rows),
/// sorted lexicographically in the Value total order. Each id is
/// translated to its pool rank once, so the sort compares flat rank keys
/// instead of looking ranks up twice per comparison.
std::vector<std::vector<ValueId>> SortDedupIds(const ValuePool& pool,
                                               size_t width, size_t matches,
                                               const std::vector<ValueId>& flat) {
  // A Boolean head: one empty answer iff anything matched.
  if (width == 0) {
    return std::vector<std::vector<ValueId>>(matches > 0 ? 1 : 0);
  }
  std::vector<int32_t> ranks(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) ranks[i] = pool.Rank(flat[i]);
  std::vector<uint32_t> order(matches);
  for (size_t r = 0; r < matches; ++r) order[r] = static_cast<uint32_t>(r);
  const int32_t* key = ranks.data();
  auto row_less = [key, width](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(key + a * width, key + (a + 1) * width,
                                        key + b * width, key + (b + 1) * width);
  };
  std::sort(order.begin(), order.end(), row_less);
  std::vector<std::vector<ValueId>> out;
  out.reserve(matches);
  for (size_t k = 0; k < matches; ++k) {
    if (k > 0 && !row_less(order[k - 1], order[k])) continue;  // duplicate
    const ValueId* row = flat.data() + order[k] * width;
    out.emplace_back(row, row + width);
  }
  return out;
}

/// Δ of `disjuncts` since `since` (the full answer set for empty marks),
/// sorted and deduplicated. The one evaluation every entry point shares.
std::vector<std::vector<ValueId>> EvaluateDisjuncts(
    const std::vector<const ConjunctiveQuery*>& disjuncts,
    const Instance& instance, const RowMarks& since) {
  std::vector<ValueId> flat;
  size_t matches = 0;
  size_t width = disjuncts.empty() ? 0 : disjuncts.front()->head.size();
  for (const ConjunctiveQuery* cq : disjuncts) {
    Evaluator eval(*cq, instance);
    matches += eval.RunDelta(since, &flat);
  }
  return SortDedupIds(instance.pool(), width, matches, flat);
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
  return EvaluateDisjuncts({&query}, instance, {});
}

RowMarks MarkRows(const UnionQuery& query, const Instance& instance) {
  RowMarks marks;
  for (const ConjunctiveQuery& cq : query.disjuncts) {
    for (const Atom& atom : cq.atoms) {
      const StoredRelation* rel = instance.Find(atom.relation);
      marks[atom.relation] = rel == nullptr ? 0 : rel->num_rows();
    }
  }
  return marks;
}

Result<std::vector<std::vector<ValueId>>> EvaluateIds(
    const UnionQuery& query, const Instance& instance, const RowMarks& since) {
  WHYNOT_RETURN_IF_ERROR(query.Validate(instance.schema()));
  std::vector<const ConjunctiveQuery*> disjuncts;
  for (const ConjunctiveQuery& cq : query.disjuncts) disjuncts.push_back(&cq);
  return EvaluateDisjuncts(disjuncts, instance, since);
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
  return eval.HasMatch();
}

}  // namespace whynot::rel
