#include "oracle.h"

#include <algorithm>
#include <iterator>

#include "common.h"

namespace e2e {

namespace {

std::string ExplToString(const Expl& e) {
  std::string s = "(";
  for (size_t i = 0; i < e.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(e[i]);
  }
  return s + ")";
}

std::string TupleStr(const Tuple& t) {
  std::string s = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) s += ", ";
    s += t[i].ToString();
  }
  return s + ")";
}

std::string LsExplToString(const LsExpl& e) {
  std::string s = "(";
  for (size_t i = 0; i < e.size(); ++i) {
    if (i > 0) s += ", ";
    s += e[i].ToString();
  }
  return s + ")";
}

bool Compare(const Value& lhs, whynot::rel::CmpOp op, const Value& rhs) {
  using whynot::rel::CmpOp;
  switch (op) {
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kGt: return rhs < lhs;
    case CmpOp::kLe: return !(rhs < lhs);
    case CmpOp::kGe: return !(lhs < rhs);
  }
  return false;
}

}  // namespace

// --- FiniteOracle ----------------------------------------------------------

FiniteOracle::FiniteOracle(std::vector<std::vector<Value>> ext,
                           std::vector<std::vector<bool>> leq,
                           std::vector<Tuple> answers)
    : ext_(std::move(ext)),
      leq_(std::move(leq)),
      answers_(std::move(answers)),
      words_((answers_.size() + 63) / 64) {
  for (std::vector<Value>& e : ext_) {
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
  }
  // Definition 3.1: the maximality checks below rely on ext growing along ⊑.
  for (size_t c = 0; c < ext_.size(); ++c) {
    for (size_t d = 0; d < ext_.size(); ++d) {
      if (leq_[c][d] && !std::includes(ext_[d].begin(), ext_[d].end(),
                                       ext_[c].begin(), ext_[c].end())) {
        throw CheckFailure("reference ontology is inconsistent at concepts " +
                           std::to_string(c) + " <= " + std::to_string(d));
      }
    }
  }
  size_t arity = answers_.empty() ? 0 : answers_.front().size();
  covers_.assign(arity, std::vector<std::vector<uint64_t>>(ext_.size()));
}

bool FiniteOracle::InExt(int32_t c, const Value& v) const {
  const std::vector<Value>& e = ext_[static_cast<size_t>(c)];
  return std::binary_search(e.begin(), e.end(), v);
}

const std::vector<uint64_t>& FiniteOracle::Cover(int32_t c, size_t pos) {
  std::vector<uint64_t>& row = covers_[pos][static_cast<size_t>(c)];
  if (row.empty() && words_ > 0) {
    row.assign(words_, 0);
    for (size_t k = 0; k < answers_.size(); ++k) {
      if (InExt(c, answers_[k][pos])) row[k / 64] |= uint64_t{1} << (k % 64);
    }
  }
  return row;
}

size_t FiniteOracle::CountCovered(const Expl& e) {
  if (answers_.empty()) return 0;
  size_t count = 0;
  for (size_t w = 0; w < words_; ++w) {
    uint64_t acc = ~uint64_t{0};
    for (size_t i = 0; i < e.size() && acc != 0; ++i) acc &= Cover(e[i], i)[w];
    count += static_cast<size_t>(__builtin_popcountll(acc));
  }
  return count;
}

bool FiniteOracle::IsExplanation(const Tuple& missing, const Expl& e) {
  if (e.size() != missing.size()) return false;
  for (size_t i = 0; i < e.size(); ++i) {
    if (e[i] < 0 || static_cast<size_t>(e[i]) >= ext_.size()) return false;
    if (!InExt(e[i], missing[i])) return false;
  }
  if (answers_.empty()) return true;
  if (answers_.front().size() != e.size()) return false;
  for (size_t w = 0; w < words_; ++w) {
    uint64_t acc = ~uint64_t{0};
    for (size_t i = 0; i < e.size() && acc != 0; ++i) acc &= Cover(e[i], i)[w];
    if (acc != 0) return false;
  }
  return true;
}

bool FiniteOracle::IsWhyExplanation(const Tuple& present, const Expl& e) {
  if (e.size() != present.size() || answers_.empty()) return false;
  double product = 1.0;
  for (size_t i = 0; i < e.size(); ++i) {
    if (e[i] < 0 || static_cast<size_t>(e[i]) >= ext_.size()) return false;
    if (!InExt(e[i], present[i])) return false;
    product *= static_cast<double>(ExtSize(e[i]));
  }
  // Ans is duplicate-free, so the product lies in Ans iff as many answers
  // fall in it as it has tuples.
  if (product > static_cast<double>(answers_.size())) return false;
  return static_cast<double>(CountCovered(e)) == product;
}

bool FiniteOracle::IsMaximal(const Tuple& a, const Expl& e, bool why) {
  for (size_t i = 0; i < e.size(); ++i) {
    for (size_t d = 0; d < ext_.size(); ++d) {
      int32_t dc = static_cast<int32_t>(d);
      if (!Leq(e[i], dc) || Leq(dc, e[i])) continue;  // not strictly above
      Expl g = e;
      g[i] = dc;
      if (why ? IsWhyExplanation(a, g) : IsExplanation(a, g)) return false;
    }
  }
  return true;
}

void FiniteOracle::CheckMgeSet(const Tuple& missing,
                               const std::vector<Expl>& set,
                               const std::string& what) {
  for (const Expl& e : set) {
    if (!IsExplanation(missing, e)) {
      throw CheckFailure(what + ": " + ExplToString(e) +
                         " is not an explanation for " + TupleStr(missing));
    }
    if (!IsMaximal(missing, e, /*why=*/false)) {
      throw CheckFailure(what + ": " + ExplToString(e) + " for " +
                         TupleStr(missing) + " has a more general explanation");
    }
  }
  for (size_t x = 0; x < set.size(); ++x) {
    for (size_t y = 0; y < set.size(); ++y) {
      if (x == y) continue;
      bool below = true;
      for (size_t i = 0; i < set[x].size() && below; ++i) {
        below = Leq(set[x][i], set[y][i]);
      }
      if (below) {
        throw CheckFailure(what + ": not an antichain, " +
                           ExplToString(set[x]) + " <= " +
                           ExplToString(set[y]));
      }
    }
  }
}

void FiniteOracle::CheckWhyMgeSet(const Tuple& present,
                                  const std::vector<Expl>& set,
                                  const std::string& what) {
  for (const Expl& e : set) {
    if (!IsWhyExplanation(present, e)) {
      throw CheckFailure(what + ": " + ExplToString(e) +
                         " is not a why-explanation for " + TupleStr(present));
    }
    if (!IsMaximal(present, e, /*why=*/true)) {
      throw CheckFailure(what + ": " + ExplToString(e) +
                         " has a more general why-explanation");
    }
  }
  for (size_t x = 0; x < set.size(); ++x) {
    for (size_t y = 0; y < set.size(); ++y) {
      if (x == y) continue;
      bool below = true;
      for (size_t i = 0; i < set[x].size() && below; ++i) {
        below = Leq(set[x][i], set[y][i]);
      }
      if (below) throw CheckFailure(what + ": why-MGEs not an antichain");
    }
  }
}

std::vector<Expl> FiniteOracle::BruteForceMges(const Tuple& missing) {
  const size_t m = missing.size();
  std::vector<std::vector<int32_t>> lists(m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t c = 0; c < ext_.size(); ++c) {
      if (InExt(static_cast<int32_t>(c), missing[i])) {
        lists[i].push_back(static_cast<int32_t>(c));
      }
    }
    if (lists[i].empty()) return {};
  }
  // Minimal strict superconcepts. Because ext grows along ⊑ (checked in
  // the constructor), an explanation has a strictly more general one at
  // position i iff it has one whose i-th concept is such a cover.
  std::vector<std::vector<int32_t>> covers_above(ext_.size());
  for (size_t c = 0; c < ext_.size(); ++c) {
    std::vector<int32_t> strict;
    for (size_t d = 0; d < ext_.size(); ++d) {
      if (leq_[c][d] && !leq_[d][c]) strict.push_back(static_cast<int32_t>(d));
    }
    for (int32_t d : strict) {
      bool minimal = true;
      for (int32_t x : strict) {
        if (x != d && Leq(x, d) && !Leq(d, x)) {
          minimal = false;
          break;
        }
      }
      if (minimal) covers_above[c].push_back(d);
    }
  }
  std::vector<Expl> out;
  Expl e(m);
  std::vector<size_t> idx(m, 0);
  while (true) {
    for (size_t i = 0; i < m; ++i) e[i] = lists[i][idx[i]];
    if (IsExplanation(missing, e)) {
      bool maximal = true;
      for (size_t i = 0; i < m && maximal; ++i) {
        for (int32_t d : covers_above[static_cast<size_t>(e[i])]) {
          Expl g = e;
          g[i] = d;
          if (IsExplanation(missing, g)) {
            maximal = false;
            break;
          }
        }
      }
      if (maximal) out.push_back(e);
    }
    size_t i = 0;
    while (i < m && ++idx[i] == lists[i].size()) idx[i++] = 0;
    if (i == m) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

double FiniteOracle::Degree(const Expl& e) const {
  double d = 0;
  for (int32_t c : e) d += static_cast<double>(ExtSize(c));
  return d;
}

// --- LsOracle --------------------------------------------------------------

bool LsExt::SubsetOf(const LsExt& o) const {
  if (o.all) return true;
  if (all) return false;
  return std::includes(o.vals.begin(), o.vals.end(), vals.begin(),
                       vals.end());
}

LsOracle::LsOracle(std::map<std::string, std::vector<Tuple>> rows,
                   std::vector<Tuple> answers)
    : rows_(std::move(rows)), answers_(std::move(answers)) {
  answer_set_.insert(answers_.begin(), answers_.end());
  std::set<std::set<Value>> projections;
  std::set<Value> adom;
  for (const auto& [name, facts] : rows_) {
    if (facts.empty()) continue;
    for (size_t a = 0; a < facts.front().size(); ++a) {
      std::set<Value> col;
      for (const Tuple& t : facts) col.insert(t[a]);
      adom.insert(col.begin(), col.end());
      projections.insert(std::move(col));
    }
  }
  adom_.assign(adom.begin(), adom.end());
  const size_t words = (projections.size() + 63) / 64;
  none_.assign(words, 0);
  size_t k = 0;
  for (const std::set<Value>& f : projections) {
    for (const Value& v : f) {
      Bits& bits = members_[v];
      if (bits.empty()) bits.assign(words, 0);
      bits[k / 64] |= uint64_t{1} << (k % 64);
    }
    ++k;
  }
}

LsExt LsOracle::Eval(const whynot::ls::LsConcept& c) const {
  using Kind = whynot::ls::Conjunct::Kind;
  LsExt acc;
  acc.all = true;
  for (const whynot::ls::Conjunct& cj : c.conjuncts()) {
    LsExt one;
    if (cj.kind == Kind::kTop) {
      one.all = true;
    } else if (cj.kind == Kind::kNominal) {
      one.vals.insert(cj.nominal);
    } else {
      auto it = rows_.find(cj.relation);
      if (it != rows_.end()) {
        for (const Tuple& t : it->second) {
          bool keep = static_cast<size_t>(cj.attr) < t.size();
          for (const whynot::ls::Selection& s : cj.selections) {
            keep = keep && static_cast<size_t>(s.attr) < t.size() &&
                   Compare(t[static_cast<size_t>(s.attr)], s.op, s.constant);
          }
          if (keep) one.vals.insert(t[static_cast<size_t>(cj.attr)]);
        }
      }
    }
    if (one.all) continue;
    if (acc.all) {
      acc = std::move(one);
    } else {
      std::set<Value> both;
      std::set_intersection(acc.vals.begin(), acc.vals.end(), one.vals.begin(),
                            one.vals.end(), std::inserter(both, both.end()));
      acc.vals = std::move(both);
    }
  }
  return acc;
}

std::vector<LsExt> LsOracle::EvalAll(const LsExpl& e) const {
  std::vector<LsExt> out;
  out.reserve(e.size());
  for (const whynot::ls::LsConcept& c : e) out.push_back(Eval(c));
  return out;
}

const LsOracle::Bits& LsOracle::MembersOf(const Value& v) const {
  auto it = members_.find(v);
  return it == members_.end() ? none_ : it->second;
}

LsOracle::Bits LsOracle::ContainingAll(const std::set<Value>& s) const {
  Bits acc(none_.size(), ~uint64_t{0});
  for (const Value& v : s) acc = And(acc, MembersOf(v));
  return acc;
}

bool LsOracle::Empty(const Bits& b) {
  for (uint64_t w : b) {
    if (w != 0) return false;
  }
  return true;
}

bool LsOracle::SubsetOf(const Bits& a, const Bits& b) {
  for (size_t w = 0; w < a.size(); ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

LsOracle::Bits LsOracle::And(const Bits& a, const Bits& b) {
  Bits out(a.size());
  for (size_t w = 0; w < a.size(); ++w) out[w] = a[w] & b[w];
  return out;
}

bool LsOracle::IsExplanation(const Tuple& missing, const LsExpl& e) const {
  if (e.size() != missing.size()) return false;
  std::vector<LsExt> ext = EvalAll(e);
  for (size_t i = 0; i < e.size(); ++i) {
    if (!ext[i].Contains(missing[i])) return false;
  }
  for (const Tuple& t : answers_) {
    bool inside = true;
    for (size_t i = 0; i < e.size() && inside; ++i) inside = ext[i].Contains(t[i]);
    if (inside) return false;
  }
  return true;
}

bool LsOracle::IsWhyExplanation(const Tuple& present, const LsExpl& e) const {
  if (e.size() != present.size()) return false;
  std::vector<LsExt> ext = EvalAll(e);
  double product = 1.0;
  for (size_t i = 0; i < e.size(); ++i) {
    if (!ext[i].Contains(present[i]) || ext[i].all) return false;
    product *= static_cast<double>(ext[i].vals.size());
  }
  if (product > static_cast<double>(answers_.size())) return false;
  // Every combination must be an answer.
  std::vector<std::set<Value>::const_iterator> it(e.size());
  for (size_t i = 0; i < e.size(); ++i) it[i] = ext[i].vals.begin();
  Tuple t(e.size());
  while (true) {
    for (size_t i = 0; i < e.size(); ++i) t[i] = *it[i];
    if (answer_set_.count(t) == 0) return false;
    size_t i = 0;
    while (i < e.size() && ++it[i] == ext[i].vals.end()) {
      it[i] = ext[i].vals.begin();
      ++i;
    }
    if (i == e.size()) break;
  }
  return true;
}

void LsOracle::CheckMge(const Tuple& missing, const LsExpl& e,
                        const std::string& what) const {
  if (!IsExplanation(missing, e)) {
    throw CheckFailure(what + ": " + LsExplToString(e) +
                       " is not an explanation for " + TupleStr(missing));
  }
  std::vector<LsExt> ext = EvalAll(e);
  for (size_t i = 0; i < e.size(); ++i) {
    if (ext[i].all) continue;  // ⊤ has no strict generalisation
    // Blockers: values at position i of the answers that match every other
    // position. A generalisation stays an explanation iff it avoids them.
    std::set<Value> blockers;
    for (const Tuple& t : answers_) {
      bool match = true;
      for (size_t j = 0; j < e.size() && match; ++j) {
        if (j != i) match = ext[j].Contains(t[j]);
      }
      if (match) blockers.insert(t[i]);
    }
    if (blockers.empty()) {
      throw CheckFailure(what + ": position " + std::to_string(i) + " of " +
                         LsExplToString(e) + " generalises to top");
    }
    // Every strict generalisation contains ext_i ∪ {y} for some y outside
    // ext_i, hence contains lub(ext_i ∪ {y}) = ∩ of the projections holding
    // all of it (⊤ if none; nominals hold one value only). It avoids the
    // blockers iff no blocker lies in every one of those projections.
    const Bits base = ContainingAll(ext[i].vals);
    for (const Value& y : adom_) {
      if (ext[i].vals.count(y) > 0) continue;
      const Bits mask = And(base, MembersOf(y));
      if (Empty(mask)) continue;  // lub is ⊤, which holds the blockers
      bool blocked = false;
      for (const Value& b : blockers) {
        if (SubsetOf(mask, MembersOf(b))) {
          blocked = true;
          break;
        }
      }
      if (!blocked) {
        throw CheckFailure(what + ": position " + std::to_string(i) + " of " +
                           LsExplToString(e) + " for " + TupleStr(missing) +
                           " generalises by adding " + y.ToString());
      }
    }
  }
}

void LsOracle::CheckWhyMge(const Tuple& present, const LsExpl& e,
                           const std::string& what) const {
  if (!IsWhyExplanation(present, e)) {
    throw CheckFailure(what + ": " + LsExplToString(e) +
                       " is not a why-explanation for " + TupleStr(present));
  }
  std::vector<LsExt> ext = EvalAll(e);
  for (size_t i = 0; i < e.size(); ++i) {
    // good[y]: every combination of the other positions' values with y at
    // position i is an answer. A finite generalisation D keeps the product
    // inside Ans iff ext(D) ⊆ good.
    std::vector<std::vector<Value>> others;
    for (size_t j = 0; j < e.size(); ++j) {
      if (j != i) others.emplace_back(ext[j].vals.begin(), ext[j].vals.end());
    }
    auto all_combos_answers = [&](const Value& y) {
      std::vector<size_t> idx(others.size(), 0);
      Tuple t(e.size());
      while (true) {
        for (size_t j = 0, k = 0; j < e.size(); ++j) {
          t[j] = j == i ? y : others[k][idx[k]];
          if (j != i) ++k;
        }
        if (answer_set_.count(t) == 0) return false;
        size_t k = 0;
        while (k < others.size() && ++idx[k] == others[k].size()) idx[k++] = 0;
        if (k == others.size()) return true;
      }
    };
    std::set<Value> good;
    for (const Value& y : adom_) {
      if (all_combos_answers(y)) good.insert(y);
    }
    const Bits base = ContainingAll(ext[i].vals);
    for (const Value& y : adom_) {
      if (ext[i].vals.count(y) > 0) continue;
      const Bits mask = And(base, MembersOf(y));
      if (Empty(mask)) continue;  // lub is ⊤: an infinite product
      bool inside = true;  // ext(lub) ⊆ good
      for (const Value& z : adom_) {
        if (SubsetOf(mask, MembersOf(z)) && good.count(z) == 0) {
          inside = false;
          break;
        }
      }
      if (inside) {
        throw CheckFailure(what + ": position " + std::to_string(i) + " of " +
                           LsExplToString(e) + " for " + TupleStr(present) +
                           " generalises by adding " + y.ToString());
      }
    }
  }
}

void LsOracle::CheckAntichain(const std::vector<LsExpl>& set,
                              const std::string& what) const {
  std::vector<std::vector<LsExt>> exts;
  for (const LsExpl& e : set) exts.push_back(EvalAll(e));
  for (size_t x = 0; x < set.size(); ++x) {
    for (size_t y = 0; y < set.size(); ++y) {
      if (x == y) continue;
      bool below = true;
      for (size_t i = 0; i < exts[x].size() && below; ++i) {
        below = exts[x][i].SubsetOf(exts[y][i]);
      }
      if (below) {
        throw CheckFailure(what + ": not an antichain, " +
                           LsExplToString(set[x]) + " <= " +
                           LsExplToString(set[y]));
      }
    }
  }
}

bool LsOracle::ContainsEquivalent(const std::vector<LsExpl>& set,
                                  const LsExpl& e) const {
  std::vector<LsExt> target = EvalAll(e);
  for (const LsExpl& other : set) {
    std::vector<LsExt> ext = EvalAll(other);
    bool same = ext.size() == target.size();
    for (size_t i = 0; i < ext.size() && same; ++i) {
      same = ext[i].all == target[i].all && ext[i].vals == target[i].vals;
    }
    if (same) return true;
  }
  return false;
}

}  // namespace e2e
