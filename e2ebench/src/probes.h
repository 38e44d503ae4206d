// Per-layer probes: each calls one layer's public functions directly on a
// workload's inputs, kProbeReps times, inside spans named after the
// per-layer metrics; the traced run reports each span's median. Figures
// that are counts, not times, go straight into the report.
#ifndef E2EBENCH_PROBES_H_
#define E2EBENCH_PROBES_H_

#include <string>
#include <vector>

#include "trace.h"
#include "whynot/dllite/tbox.h"
#include "whynot/obda/mapping.h"
#include "whynot/ontology/ontology.h"
#include "whynot/relational/cq.h"
#include "whynot/relational/instance.h"
#include "workload.h"

namespace e2e {

/// How often each probe repeats.
constexpr int kProbeReps = 5;

/// relational.*: query evaluation, one AddFact and the read warm-up after
/// it, and |Ans|.
void ProbeRelational(const whynot::rel::Instance& instance,
                     const whynot::rel::UnionQuery& query,
                     const std::string& write_relation,
                     const whynot::Tuple& write_fact, Tracer* tracer,
                     LayerReport* out);

/// dllite.* and obda.*: reasoner closure and saturation (Theorem 4.2).
void ProbeObda(const whynot::dl::TBox& tbox, const whynot::rel::Schema& schema,
               const std::vector<whynot::obda::GavMapping>& mappings,
               const whynot::rel::Instance& instance, Tracer* tracer,
               LayerReport* out);

/// ontology.* and the external-ontology explain.* figures: extension
/// warm-up, answer covers, lattice build, the frontier search at 1 and at
/// `pool_threads` threads with its PruneStats, CardMaximal and, when
/// `report_check`, CHECK-MGE of the frontier's MGEs.
void ProbeExternal(const whynot::onto::FiniteOntology& ontology,
                   const whynot::rel::Instance& instance,
                   const std::vector<whynot::Tuple>& answers,
                   const std::vector<whynot::Tuple>& missing, int pool_threads,
                   bool report_check, Tracer* tracer, LayerReport* out);

/// concepts.* and the derived-ontology explain.* figures: LubContext
/// construction, LS answer covers, Algorithm 2, enumeration with its
/// EnumerateStats, the why search, ls::Eval of the returned concepts and,
/// when `report_check`, CHECK-MGE of the enumerated MGEs.
void ProbeDerived(const whynot::rel::Instance& instance,
                  const std::vector<whynot::Tuple>& answers,
                  const std::vector<whynot::Tuple>& missing,
                  const std::vector<whynot::Tuple>& present, bool report_check,
                  Tracer* tracer, LayerReport* out);

}  // namespace e2e

#endif  // E2EBENCH_PROBES_H_
