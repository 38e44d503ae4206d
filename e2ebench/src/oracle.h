// Checkers that judge the engine's outputs against computations the
// benchmark makes on its own: its own concept extensions, its own
// subsumption closure, its own answer set and its own evaluation of LS
// concepts over its own copy of the rows. They share only the value and
// tuple types with the library, and read the engine's LS concepts only as
// syntax.
#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "whynot/common/value.h"
#include "whynot/concepts/ls_concept.h"

namespace e2e {

using whynot::Tuple;
using whynot::Value;
using Expl = std::vector<int32_t>;  // one concept id per position
using LsExpl = std::vector<whynot::ls::LsConcept>;

/// A finite ontology given by explicit extensions and a subsumption
/// closure, with one fixed answer set: the reference for the external-
/// ontology requests (Definitions 3.2 and 3.3, Section 6 degree).
class FiniteOracle {
 public:
  /// `ext[c]` is ext(c) sorted; `leq[c][d]` is c ⊑ d (reflexive and
  /// transitive); `answers` is Ans (any order, duplicate-free).
  FiniteOracle(std::vector<std::vector<Value>> ext,
               std::vector<std::vector<bool>> leq, std::vector<Tuple> answers);

  size_t num_concepts() const { return ext_.size(); }
  bool InExt(int32_t c, const Value& v) const;
  size_t ExtSize(int32_t c) const { return ext_[static_cast<size_t>(c)].size(); }
  bool Leq(int32_t c, int32_t d) const {
    return leq_[static_cast<size_t>(c)][static_cast<size_t>(d)];
  }

  /// Definition 3.2: a_i ∈ ext(E_i) and the extension product avoids Ans.
  bool IsExplanation(const Tuple& missing, const Expl& e);
  /// The why dual: a_i ∈ ext(E_i) and the extension product lies in Ans.
  bool IsWhyExplanation(const Tuple& present, const Expl& e);

  /// Throws CheckFailure unless every member is an explanation, no single-
  /// position strict generalisation of a member is one, and the set is an
  /// antichain under ≤_O.
  void CheckMgeSet(const Tuple& missing, const std::vector<Expl>& set,
                   const std::string& what);
  /// The same three conditions for why-explanations.
  void CheckWhyMgeSet(const Tuple& present, const std::vector<Expl>& set,
                      const std::string& what);

  /// Every most-general explanation, by testing every tuple of the full
  /// candidate product; sorted.
  std::vector<Expl> BruteForceMges(const Tuple& missing);

  /// |ext(E_1)| × ... × |ext(E_m)|, the Section 6 cardinality degree.
  double Degree(const Expl& e) const;

 private:
  const std::vector<uint64_t>& Cover(int32_t c, size_t pos);
  size_t CountCovered(const Expl& e);
  bool IsMaximal(const Tuple& a, const Expl& e, bool why);

  std::vector<std::vector<Value>> ext_;
  std::vector<std::vector<bool>> leq_;
  std::vector<Tuple> answers_;
  size_t words_;
  // covers_[pos][c]: bitmap over answer indices k with Ans[k][pos] ∈ ext(c).
  std::vector<std::vector<std::vector<uint64_t>>> covers_;
};

/// One extension of an LS concept: all values (⊤) or a finite set.
struct LsExt {
  bool all = false;
  std::set<Value> vals;
  bool Contains(const Value& v) const { return all || vals.count(v) > 0; }
  bool SubsetOf(const LsExt& o) const;
};

/// The derived ontology O_I over the benchmark's own copy of the rows, in
/// selection-free LS (the engine's default concept language). A
/// generalisation is judged through the lub of its extension: the
/// intersection of every projection π_A(R) holding it.
class LsOracle {
 public:
  /// `rows[r]` are the facts of relation r; `answers` is Ans.
  LsOracle(std::map<std::string, std::vector<Tuple>> rows,
           std::vector<Tuple> answers);

  LsExt Eval(const whynot::ls::LsConcept& c) const;

  bool IsExplanation(const Tuple& missing, const LsExpl& e) const;
  bool IsWhyExplanation(const Tuple& present, const LsExpl& e) const;
  /// Throws CheckFailure unless `e` is an explanation and no strict
  /// generalisation of one position (the lub of the position's extension
  /// plus one further active-domain value) is one.
  void CheckMge(const Tuple& missing, const LsExpl& e,
                const std::string& what) const;
  void CheckWhyMge(const Tuple& present, const LsExpl& e,
                   const std::string& what) const;
  /// Antichain under pointwise extension inclusion.
  void CheckAntichain(const std::vector<LsExpl>& set,
                      const std::string& what) const;
  /// True iff some member of `set` has the same extensions as `e`.
  bool ContainsEquivalent(const std::vector<LsExpl>& set,
                          const LsExpl& e) const;
  const std::set<Tuple>& answer_set() const { return answer_set_; }

 private:
  using Bits = std::vector<uint64_t>;  // one bit per projection

  std::vector<LsExt> EvalAll(const LsExpl& e) const;
  /// The projections holding `v` (none for a value outside adom).
  const Bits& MembersOf(const Value& v) const;
  /// The projections holding every value of `s`.
  Bits ContainingAll(const std::set<Value>& s) const;
  static bool Empty(const Bits& b);
  static bool SubsetOf(const Bits& a, const Bits& b);
  static Bits And(const Bits& a, const Bits& b);

  std::map<std::string, std::vector<Tuple>> rows_;
  std::vector<Tuple> answers_;
  std::set<Tuple> answer_set_;
  std::vector<Value> adom_;
  std::map<Value, Bits> members_;
  Bits none_;
};

}  // namespace e2e

#endif  // E2EBENCH_ORACLE_H_
