#include "whynot/explain/cardinality.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "whynot/explain/existence.h"
#include "whynot/explain/search_core.h"

namespace whynot::explain {

Degree DegreeOf(onto::BoundOntology* bound, const Explanation& e) {
  Degree d;
  for (onto::ConceptId c : e) {
    const onto::ExtSet& ext = bound->Ext(c);
    if (ext.is_all()) {
      d.infinite = true;
    } else {
      d.finite += ext.size();
    }
  }
  return d;
}

Result<std::optional<CardinalityResult>> ExactCardMaximal(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    const ExhaustiveOptions& options, ConceptAnswerCovers* covers,
    LatticeHandle* lattice) {
  // Enumerate the full candidate product (as in Algorithm 1 line 2) and
  // keep the highest-degree explanation.
  std::vector<std::vector<onto::ConceptId>> lists =
      CandidateLists(bound, wni.missing);
  // The degree objective is ≼-monotone only when every candidate
  // extension is finite: the degree order compares finite parts even
  // between two infinite degrees, so with an All component a *less*
  // general tuple can rank strictly higher. Any All candidate therefore
  // pins the search to the odometer — the frontier would stop at maximal
  // passing products and could miss the degree winner below them.
  ExhaustiveOptions opts = options;
  for (const auto& list : lists) {
    for (onto::ConceptId c : list) {
      if (bound->Ext(c).is_all()) opts.strategy = SearchStrategy::kOdometer;
    }
  }
  ProductSearch search(lists, opts, bound, lattice);
  // The running winners: every maximum-degree explanation seen so far
  // that no other maximum-degree explanation strictly dominates, in
  // arrival order. The front (rather than a first-wins ratchet) is what
  // makes the two strategies agree on the witness: the frontier only
  // replays ≼-maximal survivors, so the canonical pick has to be the
  // earliest *undominated* witness — which, degree being monotone here,
  // is exactly the earliest maximal one the odometer also keeps.
  std::vector<CardinalityResult> front;
  if (!search.empty()) {
    std::optional<ConceptAnswerCovers> local;
    if (covers == nullptr) {
      local.emplace(bound, InternAnswers(bound, wni));
      covers = &*local;
    }
    size_t m = wni.arity();
    // Pre-resolved cover table: the avoidance ANDs — the dominant cost —
    // shard through the pooled odometer, while the degree front replays
    // serially over the survivors in the serial odometer's order.
    // On spaces large enough to amortize the setup, degrees come from the
    // table's resolved sizes (a handful of adds per survivor, even when
    // nothing is filtered); tiny spaces keep the direct DegreeOf, whose
    // two warm extension loads per survivor undercut the table build. The
    // frontier path always resolves sizes: its hooks need degrees with no
    // side effects on the consume scratch.
    CoverTable table(covers, lists);
    const bool table_degree = search.frontier() ||
                              search.space().overflow() ||
                              search.space().total() >= 4096;
    if (table_degree) table.ResolveSizes(bound, lists);
    Explanation current(m);
    auto degree_at = [&](const std::vector<size_t>& idx) {
      Degree d;
      if (table_degree) {
        table.DegreeAt(idx, &d.infinite, &d.finite);
      } else {
        for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
        d = DegreeOf(bound, current);
      }
      return d;
    };
    // Branch and bound on the frontier: on_pass tracks the best degree
    // over *passing* products as the wave merge reaches them; a failing
    // product strictly beaten by that bound cannot hold a tying witness
    // anywhere in its downset (degrees only shrink along ≼), so its
    // expansion is cut. Ties must expand — a downset member can still
    // join the front.
    std::optional<Degree> best_degree;
    WHYNOT_RETURN_IF_ERROR(search.Run(
        "exact >card-maximal enumeration exceeded max_candidates "
        "(Proposition 6.4: no PTIME algorithm exists unless P=NP)",
        [&](const std::vector<size_t>& idx) {
          return !table.ProductAnyAt(idx);
        },
        [&](const std::vector<size_t>& idx) {
          Degree d = degree_at(idx);
          if (!front.empty() && front.front().degree > d) return true;
          for (size_t i = 0; i < m; ++i) current[i] = lists[i][idx[i]];
          if (front.empty() || d > front.front().degree) {
            front.clear();
            front.push_back(CardinalityResult{current, d});
            return true;
          }
          // Degree tie: keep only witnesses no tying explanation strictly
          // dominates, earliest first.
          for (const CardinalityResult& k : front) {
            if (StrictlyLessGeneral(*bound, current, k.explanation)) {
              return true;
            }
          }
          front.erase(
              std::remove_if(front.begin(), front.end(),
                             [&](const CardinalityResult& k) {
                               return StrictlyLessGeneral(
                                   *bound, k.explanation, current);
                             }),
              front.end());
          front.push_back(CardinalityResult{current, d});
          return true;
        },
        NoSerialSkip{},
        [&](const std::vector<size_t>& idx) {
          Degree d = degree_at(idx);
          if (!best_degree.has_value() || d > *best_degree) best_degree = d;
        },
        [&](const std::vector<size_t>& idx) {
          return !best_degree.has_value() || !(*best_degree > degree_at(idx));
        }));
  }
  search.Certify(front.empty() ? 0 : front.front().degree.finite);
  if (front.empty()) return std::optional<CardinalityResult>();
  return std::optional<CardinalityResult>(std::move(front.front()));
}

Result<std::optional<CardinalityResult>> GreedyCardinalityClimb(
    onto::BoundOntology* bound, const WhyNotInstance& wni,
    ConceptAnswerCovers* covers, const exec::ExecContext* exec,
    exec::Certificate* cert) {
  std::optional<ConceptAnswerCovers> local;
  if (covers == nullptr) {
    local.emplace(bound, InternAnswers(bound, wni));
    covers = &*local;
  }
  // The greedy certificate is filled by hand rather than through
  // FillCertificate: a converged climb is still only a local optimum, so
  // its quality never rises above kHeuristic.
  size_t probes = 0;
  auto fill_cert = [&](const exec::Stop& stop, size_t best) {
    if (cert == nullptr) return;
    cert->quality = exec::Quality::kHeuristic;
    cert->stop = stop.reason;
    cert->progress = exec::Progress{};
    cert->progress.tested = probes;
    cert->progress.best_so_far = best;
  };
  Explanation seed;
  ExistenceOptions eopts;
  eopts.exec = exec;
  exec::Certificate seed_cert;
  if (cert != nullptr) eopts.cert = &seed_cert;
  WHYNOT_ASSIGN_OR_RETURN(bool exists,
                          ExistsExplanation(bound, wni, &seed, eopts, covers));
  if (!exists) {
    // Either no explanation exists or the seed search itself was stopped;
    // the seed certificate's stop distinguishes the two.
    if (cert != nullptr) {
      cert->quality = exec::Quality::kHeuristic;
      cert->stop = seed_cert.stop;
      cert->progress = seed_cert.progress;
    }
    return std::optional<CardinalityResult>();
  }

  // Per-position candidate lists are loop-invariant; hoist them out of
  // the climb.
  std::vector<std::vector<onto::ConceptId>> candidates =
      CandidateLists(bound, wni.missing);

  Explanation current = seed;
  Degree degree = DegreeOf(bound, current);
  // Stops are observed once per candidate examined. A stopped climb
  // returns the current (sound) explanation when certified; the
  // certificate's stop records where the climb was cut.
  std::optional<exec::Stop> halted;
  auto check = [&]() -> Status {
    size_t probe = probes++;
    if (std::optional<exec::Stop> s = exec::Check(exec, probe)) {
      if (cert == nullptr) return exec::StopStatus(*s, "greedy climb");
      halted = *s;
    }
    return Status::OK();
  };
  bool improved = true;
  while (improved && !halted.has_value()) {
    improved = false;
    for (size_t i = 0; i < current.size() && !halted.has_value(); ++i) {
      // Positions other than i are stable across this candidate sweep
      // (an accepted swap only changes position i), so their covers AND
      // once; each candidate is one word-parallel intersect-any.
      std::vector<uint64_t> base = covers->AndAllExcept(current, i);
      const std::vector<onto::ConceptId>& list = candidates[i];
      for (onto::ConceptId c : list) {
        WHYNOT_RETURN_IF_ERROR(check());
        if (halted.has_value()) break;
        if (c == current[i]) continue;
        if (ConceptAnswerCovers::AnyAnd(base, covers->Cover(c, i))) continue;
        Explanation probe = current;
        probe[i] = c;
        Degree d = DegreeOf(bound, probe);
        if (d > degree) {
          current = std::move(probe);
          degree = d;
          improved = true;
        }
      }
    }
  }
  fill_cert(halted.value_or(exec::Stop{}), degree.finite);
  return std::optional<CardinalityResult>(CardinalityResult{current, degree});
}

}  // namespace whynot::explain
