#ifndef WHYNOT_RELATIONAL_CQ_EVAL_H_
#define WHYNOT_RELATIONAL_CQ_EVAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "whynot/common/status.h"
#include "whynot/common/value.h"
#include "whynot/relational/cq.h"
#include "whynot/relational/instance.h"

namespace whynot::rel {

/// Evaluates a conjunctive query over an instance under set semantics.
/// Answers are returned sorted and deduplicated. Comparisons are evaluated
/// under the Value total order.
///
/// The evaluator is an *id-space* backtracking join over the instance's
/// interned columns: atoms are reordered greedily so that atoms sharing
/// variables with already-bound atoms come first; constants and comparison
/// predicates are pre-resolved to ValueIds / rank ranges of the instance
/// pool; bound positions probe per-column sorted posting lists instead of
/// scanning; and candidate bindings are pruned early through the
/// DenseBitmap distinct-value filters of every column the variable occurs
/// in (word-parallel semi-join reduction). No boxed Value is touched until
/// answers are rendered.
Result<std::vector<Tuple>> Evaluate(const ConjunctiveQuery& query,
                                    const Instance& instance);

/// Evaluates a union of conjunctive queries (set semantics, sorted).
Result<std::vector<Tuple>> Evaluate(const UnionQuery& query,
                                    const Instance& instance);

/// Id-space evaluation: answers as rows of instance-pool ValueIds, sorted
/// lexicographically in the Value total order (same order as Evaluate) and
/// deduplicated. The zero-boxing path used by MaterializeViews and other
/// id-space consumers.
Result<std::vector<std::vector<ValueId>>> EvaluateIds(
    const ConjunctiveQuery& query, const Instance& instance);

/// Row count per relation name, taken at one observation of an instance:
/// rows [0, mark) are "old", the rows past it were appended since. A
/// relation absent from the map reads as mark 0 (all of its rows new).
using RowMarks = std::unordered_map<std::string, size_t>;

/// The current row count of every relation `query` reads (0 for a
/// relation that holds no fact yet).
RowMarks MarkRows(const UnionQuery& query, const Instance& instance);

/// Id-space evaluation of a union of conjunctive queries, semi-naive over
/// the rows appended since `since`: returns, sorted and deduplicated like
/// EvaluateIds, every answer with at least one derivation that uses a row
/// at or past its relation's mark. For a CQ with atoms 1..k that is
/// Δ = ∪_j (atoms before j over their old rows) ⋈ (atom j over its new
/// rows) ⋈ (atoms after j over all rows), which finds each new
/// derivation once, at its first atom that reads a new row. CQs are
/// monotone, so q(I) = q(I_old) ∪ Δ. With `since` empty (every mark 0) Δ
/// is the full answer set q(I), through the same join.
///
/// Precondition: `since` was taken from this instance at the current
/// generation() — only appends happened in between. The answers Δ shares
/// with q(I_old) are not filtered out; merging callers skip them.
Result<std::vector<std::vector<ValueId>>> EvaluateIds(
    const UnionQuery& query, const Instance& instance,
    const RowMarks& since = {});

/// True iff the Boolean query (head ignored) has at least one satisfying
/// assignment.
Result<bool> HasMatch(const ConjunctiveQuery& query, const Instance& instance);

}  // namespace whynot::rel

#endif  // WHYNOT_RELATIONAL_CQ_EVAL_H_
