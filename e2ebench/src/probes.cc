#include "probes.h"

#include <memory>

#include "whynot/common/parallel.h"
#include "whynot/concepts/ls_eval.h"
#include "whynot/concepts/lub.h"
#include "whynot/dllite/reasoner.h"
#include "whynot/explain/answer_cover.h"
#include "whynot/explain/cardinality.h"
#include "whynot/explain/check_mge.h"
#include "whynot/explain/enumerate.h"
#include "whynot/explain/exhaustive.h"
#include "whynot/explain/explanation.h"
#include "whynot/explain/incremental.h"
#include "whynot/explain/lattice.h"
#include "whynot/explain/why_explanation.h"
#include "whynot/obda/obda_spec.h"
#include "whynot/relational/cq_eval.h"

namespace e2e {

namespace wn = whynot;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// The frontier search at the pooled thread count; only its ratio to the
// 1-thread span is reported.
constexpr const char* kFrontierPooled = "explain.frontier_pooled_ms";

template <typename T>
T Take(wn::Result<T> r, const char* what) {
  if (!r.ok()) throw EngineError(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

}  // namespace

void ProbeRelational(const wn::rel::Instance& instance,
                     const wn::rel::UnionQuery& query,
                     const std::string& write_relation,
                     const wn::Tuple& write_fact, Tracer* tracer,
                     LayerReport* out) {
  size_t answers = 0;
  for (int r = 0; r < kProbeReps; ++r) {
    tracer->Span("relational.eval_ms", [&] {
      answers = Take(wn::rel::Evaluate(query, instance), "Evaluate").size();
    });
    wn::rel::Instance copy(instance);
    copy.WarmForConcurrentReads();
    tracer->Span("relational.addfact_us", [&] {
      wn::Status st = copy.AddFact(write_relation, write_fact);
      if (!st.ok()) throw EngineError("AddFact: " + st.ToString());
    });
    tracer->Span("relational.warm_reads_ms", [&] { copy.WarmForConcurrentReads(); });
  }
  (*out)["relational.answers"] = static_cast<double>(answers);
}

void ProbeObda(const wn::dl::TBox& tbox, const wn::rel::Schema& schema,
               const std::vector<wn::obda::GavMapping>& mappings,
               const wn::rel::Instance& instance, Tracer* tracer,
               LayerReport* out) {
  size_t members = 0;
  size_t universe = 0;
  for (int r = 0; r < kProbeReps; ++r) {
    tracer->Span("dllite.reasoner_ms", [&] {
      wn::dl::Reasoner reasoner(&tbox);
      universe = reasoner.Universe().size();
    });
    wn::obda::ObdaSpec spec(tbox, &schema, mappings);
    tracer->Span("obda.saturate_ms", [&] {
      wn::obda::Saturation sat = Take(spec.Saturate(instance), "Saturate");
      members = 0;
      for (const auto& [b, vs] : sat.concept_members) members += vs.size();
    });
  }
  if (universe == 0) throw EngineError("reasoner has an empty universe");
  (*out)["obda.certain_members"] = static_cast<double>(members);
}

void ProbeExternal(const wn::onto::FiniteOntology& ontology,
                   const wn::rel::Instance& instance,
                   const std::vector<wn::Tuple>& answers,
                   const std::vector<wn::Tuple>& missing, int pool_threads,
                   bool report_check, Tracer* tracer, LayerReport* out) {
  wn::onto::BoundOntology::MemoryStats ext_stats;
  size_t cover_bytes = 0;
  wn::explain::PruneStats prune;
  size_t mges_total = 0;
  for (int r = 0; r < kProbeReps; ++r) {
    wn::onto::BoundOntology bound(&ontology, &instance);
    tracer->Span("ontology.warm_ms", [&] {
      wn::Status st = bound.WarmExtensions();
      if (!st.ok()) throw EngineError("WarmExtensions: " + st.ToString());
    });
    ext_stats = bound.ExtMemoryStats();
    std::vector<wn::explain::WhyNotInstance> wnis;
    for (const wn::Tuple& t : missing) {
      wnis.push_back(Take(wn::explain::MakeWhyNotInstanceFromAnswers(
                              &instance, answers, t),
                          "MakeWhyNotInstanceFromAnswers"));
    }
    std::unique_ptr<wn::explain::ConceptAnswerCovers> covers;
    tracer->Span("explain.covers_ms", [&] {
      covers = std::make_unique<wn::explain::ConceptAnswerCovers>(
          &bound, wn::explain::InternAnswers(&bound, wnis.front()));
      for (size_t pos = 0; pos < wnis.front().arity(); ++pos) {
        for (int32_t c = 0; c < bound.NumConcepts(); ++c) covers->Cover(c, pos);
      }
    });
    cover_bytes = covers->MemoryBytes();
    wn::explain::LatticeHandle lattice(&bound);
    tracer->Span("explain.lattice_ms", [&] { lattice.Get(); });
    std::vector<std::vector<wn::explain::Explanation>> mges(wnis.size());
    for (int threads : {1, pool_threads}) {
      wn::par::SetNumThreads(threads);
      wn::explain::PruneStats ps;
      wn::explain::ExhaustiveOptions opts;
      opts.strategy = wn::explain::SearchStrategy::kLattice;
      opts.prune_stats = &ps;
      tracer->Span(threads == 1 ? "explain.frontier_ms" : kFrontierPooled, [&] {
        for (size_t k = 0; k < wnis.size(); ++k) {
          mges[k] = Take(wn::explain::PrunedSearchAllMge(&bound, wnis[k], opts,
                                                         covers.get(), &lattice),
                         "PrunedSearchAllMge");
        }
      });
      if (threads == 1) {
        prune = ps;
        mges_total = 0;
        for (const auto& m : mges) mges_total += m.size();
      }
    }
    wn::par::SetNumThreads(1);
    wn::explain::ExhaustiveOptions card_opts;
    card_opts.strategy = wn::explain::SearchStrategy::kLattice;
    tracer->Span("explain.card_ms", [&] {
      for (const auto& wni : wnis) {
        Take(wn::explain::ExactCardMaximal(&bound, wni, card_opts, covers.get(),
                                           &lattice),
             "ExactCardMaximal");
      }
    });
    if (report_check) {
      tracer->Span("explain.check_ms", [&] {
        for (size_t k = 0; k < wnis.size(); ++k) {
          for (const auto& e : mges[k]) {
            Take(wn::explain::CheckMgeExternal(&bound, wnis[k], e, covers.get()),
                 "CheckMgeExternal");
          }
        }
      });
    }
  }
  (*out)["common.pool_threads"] = pool_threads;
  const double pooled_ms = tracer->MedianMs(kFrontierPooled);
  (*out)["common.mt_speedup"] =
      pooled_ms > 0 ? tracer->MedianMs("explain.frontier_ms") / pooled_ms : 0.0;
  (*out)["ontology.ext_mb"] = static_cast<double>(ext_stats.ext_bytes) / kMiB;
  (*out)["ontology.hybrid_sets"] = static_cast<double>(ext_stats.hybrid_sets);
  (*out)["ontology.dense_sets"] = static_cast<double>(ext_stats.dense_sets);
  (*out)["explain.cover_mb"] = static_cast<double>(cover_bytes) / kMiB;
  (*out)["explain.products_tested"] = static_cast<double>(prune.products_enumerated);
  (*out)["explain.products_skipped"] =
      prune.products_skipped == SIZE_MAX ? -1.0
                                         : static_cast<double>(prune.products_skipped);
  (*out)["explain.downset_hits"] = static_cast<double>(prune.downset_hits);
  (*out)["explain.waves"] = static_cast<double>(prune.waves);
  (*out)["explain.tested_per_mge"] =
      mges_total > 0 ? static_cast<double>(prune.products_enumerated) /
                           static_cast<double>(mges_total)
                     : 0.0;
}

void ProbeDerived(const wn::rel::Instance& instance,
                  const std::vector<wn::Tuple>& answers,
                  const std::vector<wn::Tuple>& missing,
                  const std::vector<wn::Tuple>& present, bool report_check,
                  Tracer* tracer, LayerReport* out) {
  wn::explain::EnumerateStats enum_stats;
  size_t mges_total = 0;
  instance.WarmForConcurrentReads();
  for (int r = 0; r < kProbeReps; ++r) {
    std::unique_ptr<wn::ls::LubContext> lub;
    tracer->Span("concepts.lub_context_ms",
                 [&] { lub = std::make_unique<wn::ls::LubContext>(&instance); });
    wn::ls::EvalCache cache(&instance);
    // The covers key rows by extension address, so every search that
    // shares them must take its extensions from one long-lived cache.
    wn::ls::ConceptCache concepts(&instance);
    std::unique_ptr<wn::explain::LsAnswerCovers> covers;
    tracer->Span("explain.ls_covers_ms", [&] {
      covers = std::make_unique<wn::explain::LsAnswerCovers>(&instance, &answers);
      for (const wn::rel::RelationDef& def : instance.schema().relations()) {
        for (size_t a = 0; a < def.arity(); ++a) {
          const wn::ls::Extension& ext =
              cache.Projection(def.name(), static_cast<int>(a));
          for (size_t pos = 0; pos < answers.front().size(); ++pos) {
            covers->Cover(ext, pos);
          }
        }
      }
    });
    std::vector<wn::explain::WhyNotInstance> wnis;
    for (const wn::Tuple& t : missing) {
      wnis.push_back(Take(wn::explain::MakeWhyNotInstanceFromAnswers(
                              &instance, answers, t),
                          "MakeWhyNotInstanceFromAnswers"));
    }
    std::vector<wn::explain::LsExplanation> ones;
    tracer->Span("explain.incremental_ms", [&] {
      for (const auto& wni : wnis) {
        ones.push_back(Take(wn::explain::IncrementalSearch(wni, {}, lub.get(), &cache,
                                                           covers.get(), &concepts),
                            "IncrementalSearch"));
      }
    });
    tracer->Span("concepts.eval_ms", [&] {
      for (const auto& e : ones) {
        for (const wn::ls::LsConcept& c : e) wn::ls::Eval(c, instance);
      }
    });
    std::vector<std::vector<wn::explain::LsExplanation>> sets;
    wn::explain::EnumerateStats total;
    tracer->Span("explain.enum_ms", [&] {
      for (const auto& wni : wnis) {
        wn::explain::EnumerateStats st;
        sets.push_back(Take(
            wn::explain::EnumerateAllMges(wni, {}, &st, lub.get(), &concepts),
            "EnumerateAllMges"));
        total.nodes_expanded += st.nodes_expanded;
        total.duplicate_outputs += st.duplicate_outputs;
        total.visited_hits += st.visited_hits;
        total.max_delay = std::max(total.max_delay, st.max_delay);
      }
    });
    enum_stats = total;
    mges_total = 0;
    for (const auto& s : sets) mges_total += s.size();
    tracer->Span("explain.why_ms", [&] {
      for (const wn::Tuple& p : present) {
        wn::explain::WhyInstance wi;
        wi.instance = &instance;
        wi.answers = answers;
        wi.present = p;
        Take(wn::explain::IncrementalWhySearch(wi, false, lub.get(), &cache,
                                               covers.get(), &concepts),
             "IncrementalWhySearch");
      }
    });
    if (report_check) {
      tracer->Span("explain.check_ms", [&] {
        for (size_t k = 0; k < wnis.size(); ++k) {
          for (const auto& e : sets[k]) {
            Take(wn::explain::CheckMgeDerived(wnis[k], e, false, lub.get(), &cache,
                                              covers.get(), &concepts),
                 "CheckMgeDerived");
          }
        }
      });
    }
  }
  (*out)["explain.enum_nodes"] = static_cast<double>(enum_stats.nodes_expanded);
  (*out)["explain.enum_duplicates"] = static_cast<double>(enum_stats.duplicate_outputs);
  (*out)["explain.enum_visited_hits"] = static_cast<double>(enum_stats.visited_hits);
  (*out)["explain.enum_max_delay"] = static_cast<double>(enum_stats.max_delay);
  (*out)["explain.nodes_per_mge"] =
      mges_total > 0 ? static_cast<double>(enum_stats.nodes_expanded) /
                           static_cast<double>(mges_total)
                     : 0.0;
}

}  // namespace e2e
