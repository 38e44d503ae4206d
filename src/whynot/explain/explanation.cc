#include "whynot/explain/explanation.h"

#include "whynot/common/strings.h"
#include "whynot/explain/derived_sweep.h"

namespace whynot::explain {

std::vector<std::vector<ValueId>> InternAnswers(onto::BoundOntology* bound,
                                                const WhyNotInstance& wni) {
  std::vector<std::vector<ValueId>> out;
  out.reserve(wni.answers.size());
  for (const Tuple& t : wni.answers) {
    std::vector<ValueId> ids;
    ids.reserve(t.size());
    for (const Value& v : t) ids.push_back(bound->pool().Intern(v));
    out.push_back(std::move(ids));
  }
  return out;
}

bool ProductIntersectsAnswers(
    onto::BoundOntology* bound, const std::vector<onto::ConceptId>& concepts,
    const std::vector<std::vector<ValueId>>& interned_answers) {
  for (const std::vector<ValueId>& ans : interned_answers) {
    bool inside = true;
    for (size_t i = 0; i < concepts.size() && inside; ++i) {
      inside = bound->Ext(concepts[i]).Contains(ans[i]);
    }
    if (inside) return true;
  }
  return false;
}

Result<bool> IsExplanation(onto::BoundOntology* bound,
                           const WhyNotInstance& wni, const Explanation& e) {
  if (e.size() != wni.arity()) {
    return Status::InvalidArgument(
        "explanation arity does not match the missing tuple");
  }
  for (size_t i = 0; i < e.size(); ++i) {
    ValueId id = bound->pool().Intern(wni.missing[i]);
    if (!bound->Ext(e[i]).Contains(id)) return false;
  }
  std::vector<std::vector<ValueId>> answers = InternAnswers(bound, wni);
  return !ProductIntersectsAnswers(bound, e, answers);
}

bool LessGeneral(const onto::BoundOntology& bound, const Explanation& e,
                 const Explanation& other) {
  for (size_t i = 0; i < e.size(); ++i) {
    if (!bound.Subsumes(e[i], other[i])) return false;
  }
  return true;
}

bool StrictlyLessGeneral(const onto::BoundOntology& bound,
                         const Explanation& e, const Explanation& other) {
  return LessGeneral(bound, e, other) && !LessGeneral(bound, other, e);
}

std::string ExplanationToString(const onto::BoundOntology& bound,
                                const Explanation& e) {
  std::vector<std::string> parts;
  parts.reserve(e.size());
  for (onto::ConceptId c : e) parts.push_back(bound.ConceptName(c));
  return "(" + Join(parts, ", ") + ")";
}

bool IsLsExplanation(const WhyNotInstance& wni, const LsExplanation& e) {
  ls::EvalCache cache(wni.instance);
  LsAnswerCovers covers(wni.instance, &wni.answers);
  return IsLsExplanation(wni, e, &cache, &covers);
}

bool IsLsExplanation(const WhyNotInstance& wni, const LsExplanation& e,
                     ls::EvalCache* cache, LsAnswerCovers* covers) {
  return IsDualExplanation<WhyNotDual>(wni.instance, wni.missing, e, cache,
                                       covers);
}

bool LessGeneralI(const rel::Instance& instance, const LsExplanation& e,
                  const LsExplanation& other) {
  for (size_t i = 0; i < e.size(); ++i) {
    if (!ls::SubsumedI(e[i], other[i], instance)) return false;
  }
  return true;
}

bool StrictlyLessGeneralI(const rel::Instance& instance,
                          const LsExplanation& e, const LsExplanation& other) {
  return LessGeneralI(instance, e, other) && !LessGeneralI(instance, other, e);
}

std::string LsExplanationToString(const rel::Schema& schema,
                                  const LsExplanation& e) {
  std::vector<std::string> parts;
  parts.reserve(e.size());
  for (const ls::LsConcept& c : e) parts.push_back(c.ToString(&schema));
  return "(" + Join(parts, ",  ") + ")";
}

}  // namespace whynot::explain
