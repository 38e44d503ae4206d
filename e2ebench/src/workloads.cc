#include <algorithm>
#include <memory>
#include <optional>
#include <set>

#include "gen.h"
#include "oracle.h"
#include "probes.h"
#include "whynot/common/parallel.h"
#include "whynot/explain/session.h"
#include "whynot/obda/induced_ontology.h"
#include "whynot/obda/obda_spec.h"
#include "whynot/ontology/explicit_ontology.h"
#include "workload.h"

namespace e2e {

namespace wn = whynot;
using wn::explain::ExplainSession;

namespace {

wn::rel::Term Var(const char* v) { return wn::rel::Term::Var(v); }

wn::rel::Atom MakeAtom(const std::string& relation,
                       std::vector<wn::rel::Term> args) {
  wn::rel::Atom a;
  a.relation = relation;
  a.args = std::move(args);
  return a;
}

wn::rel::UnionQuery OneDisjunct(wn::rel::ConjunctiveQuery cq) {
  wn::rel::UnionQuery q;
  q.disjuncts.push_back(std::move(cq));
  return q;
}

std::string Serialize(const std::vector<Expl>& set) {
  std::string s;
  for (const Expl& e : set) {
    for (int32_t c : e) s += std::to_string(c) + ",";
    s += ";";
  }
  return s;
}

std::string Serialize(const LsExpl& e) {
  std::string s;
  for (const wn::ls::LsConcept& c : e) s += c.ToString() + " | ";
  return s;
}

std::string Serialize(const std::vector<LsExpl>& set) {
  std::string s;
  for (const LsExpl& e : set) s += Serialize(e) + ";\n";
  return s;
}

void Ok(const wn::Status& st, const char* what) {
  if (!st.ok()) throw EngineError(std::string(what) + ": " + st.ToString());
}

std::string Key(size_t state, const Tuple& t) {
  std::string k = std::to_string(state) + ":";
  for (const Value& v : t) k += v.ToString() + "\x1f";
  return k;
}

/// Throws unless `fn` makes a checker raise CheckFailure.
template <typename Fn>
void ExpectReject(const std::string& what, Fn&& fn) {
  try {
    fn();
  } catch (const CheckFailure&) {
    return;
  }
  throw std::runtime_error("a checker accepted " + what);
}

/// The session's Ans must be the benchmark's own Ans for the same rows.
void CheckAnswers(const std::vector<Tuple>& engine, const std::set<Tuple>& own,
                  const char* what) {
  if (engine.size() != own.size() ||
      !std::equal(engine.begin(), engine.end(), own.begin())) {
    throw CheckFailure(std::string(what) + ": the session's answer set (" +
                       std::to_string(engine.size()) +
                       " tuples) is not the benchmark's (" +
                       std::to_string(own.size()) + ")");
  }
}

/// An MGE of `mges` with one position lowered to a strict subconcept that
/// still holds the missing value: an explanation, but not a maximal one.
/// Null when no MGE has such a position.
std::optional<Expl> LowerOne(FiniteOracle* oracle, const Tuple& t,
                             const std::vector<Expl>& mges) {
  for (const Expl& e : mges) {
    for (size_t i = 0; i < t.size(); ++i) {
      for (size_t d = 0; d < oracle->num_concepts(); ++d) {
        int32_t dc = static_cast<int32_t>(d);
        if (oracle->Leq(dc, e[i]) && !oracle->Leq(e[i], dc) &&
            oracle->InExt(dc, t[i])) {
          Expl lower = e;
          lower[i] = dc;
          return lower;
        }
      }
    }
  }
  return std::nullopt;
}

/// Plants the three wrong MGE outputs into an external-ontology checker:
/// a non-explanation, a non-maximal explanation, a non-antichain set.
/// Returns false when `mges` has no member with a strict subconcept to
/// plant from.
bool PlantExternal(FiniteOracle* oracle, const Tuple& t,
                   const std::vector<Expl>& mges, int32_t top) {
  std::optional<Expl> lower = LowerOne(oracle, t, mges);
  if (!lower) return false;
  oracle->CheckMgeSet(t, mges, "engine output");
  ExpectReject("a tuple that is not an explanation", [&] {
    oracle->CheckMgeSet(t, {Expl(t.size(), top)}, "planted");
  });
  ExpectReject("a non-maximal explanation",
               [&] { oracle->CheckMgeSet(t, {*lower}, "planted"); });
  std::vector<Expl> twice = mges;
  twice.push_back(mges.front());
  ExpectReject("a non-antichain set",
               [&] { oracle->CheckMgeSet(t, twice, "planted"); });
  return true;
}

template <typename T>
T Take(wn::Result<T> r, const char* what) {
  if (!r.ok()) throw EngineError(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// The negative half of the CHECK-MGE and Exists agreement, sent once per
/// newly verified MGE set: CHECK-MGE must reject a candidate the checker
/// shows is not an MGE (a lowered MGE; when there is none, a tuple of
/// concepts holding t that is not an explanation), and Exists must say
/// whether the set is empty. Untimed.
void CheckNegatives(ExplainSession* session, FiniteOracle* oracle,
                    const Tuple& t, const std::vector<Expl>& mges) {
  std::optional<Expl> bad = LowerOne(oracle, t, mges);
  if (!bad) {
    Expl e;
    for (const Value& v : t) {
      for (size_t c = 0; c < oracle->num_concepts(); ++c) {
        if (oracle->InExt(static_cast<int32_t>(c), v)) {
          e.push_back(static_cast<int32_t>(c));
          break;
        }
      }
    }
    if (e.size() == t.size() && !oracle->IsExplanation(t, e)) bad = e;
  }
  if (bad && Take(session->CheckMge(t, *bad), "CheckMge")) {
    throw CheckFailure("CheckMge accepted a candidate that is not an MGE");
  }
  if (Take(session->Exists(t), "Exists") == mges.empty()) {
    throw CheckFailure("Exists disagrees with the verified MGE set");
  }
}

/// An O_I MGE of `set` with one position that is wider than the missing
/// value's nominal narrowed to that nominal: a strictly less general
/// explanation. Null when every position of every MGE is a nominal.
std::optional<LsExpl> NarrowOne(const LsOracle& oracle, const Tuple& t,
                                const std::vector<LsExpl>& set) {
  for (const LsExpl& e : set) {
    for (size_t i = 0; i < t.size(); ++i) {
      LsExt ext = oracle.Eval(e[i]);
      if (ext.all || ext.vals.size() > 1) {
        LsExpl narrow = e;
        narrow[i] = wn::ls::LsConcept::Nominal(t[i]);
        return narrow;
      }
    }
  }
  return std::nullopt;
}

/// The same for O_I: a narrowed MGE, else ⊤ everywhere; sent only once the
/// checker has rejected it too.
void CheckNegativesDerived(ExplainSession* session, const LsOracle& oracle,
                           const Tuple& t, const std::vector<LsExpl>& set) {
  std::optional<LsExpl> bad = NarrowOne(oracle, t, set);
  if (!bad) bad = LsExpl(t.size(), wn::ls::LsConcept::Top());
  try {
    oracle.CheckMge(t, *bad, "negative candidate");
    return;  // the checker cannot show it is not an MGE
  } catch (const CheckFailure&) {
  }
  if (Take(session->CheckMgeDerived(t, *bad), "CheckMgeDerived")) {
    throw CheckFailure("CheckMgeDerived accepted a candidate that is not an MGE");
  }
}

/// Shared plumbing: the session, timing spans and engine-error handling.
class SessionWorkload : public Workload {
 public:
  explicit SessionWorkload(Tracer* tracer) : tracer_(tracer) {}

  ExplainSession::MemoryStats Memory() const override {
    return session_ == nullptr ? ExplainSession::MemoryStats{}
                               : session_->MemoryUsage();
  }
  wn::ls::ConceptCacheStats CacheStats() const override {
    return session_ == nullptr ? wn::ls::ConceptCacheStats{}
                               : session_->CacheStats();
  }
  void DisableChecks() override { checks_ = false; }

 protected:
  void Install(wn::Result<ExplainSession> r) {
    session_ = std::make_unique<ExplainSession>(Take(std::move(r), "Bind"));
  }
  static std::vector<Tuple> Slice(const std::vector<Tuple>& from, size_t start,
                                  size_t n) {
    std::vector<Tuple> out;
    for (size_t k = 0; k < n; ++k) out.push_back(from[(start + k) % from.size()]);
    return out;
  }

  Tracer* tracer_;
  std::unique_ptr<ExplainSession> session_;
  bool checks_ = true;
};

/// The checks shared by both external-ontology workloads: MGE sets
/// (Definitions 3.2 and 3.3, antichain), CHECK-MGE agreement, and cached
/// verdicts so a repeated identical output is not re-derived.
class ExternalVerifier {
 public:
  /// Checks `set`; true when it was not verified before for (state, t).
  bool Mges(FiniteOracle* oracle, size_t state, const Tuple& t,
            const std::vector<Expl>& set, const char* what) {
    std::string key = Key(state, t), ser = Serialize(set);
    auto it = mges_.find(key);
    if (it != mges_.end() && it->second.first == ser) return false;
    oracle->CheckMgeSet(t, set, what);
    mges_[key] = {ser, set};
    return true;
  }
  /// The verified set for (state, t); null before Mges saw it.
  const std::vector<Expl>* Verified(size_t state, const Tuple& t) const {
    auto it = mges_.find(Key(state, t));
    return it == mges_.end() ? nullptr : &it->second.second;
  }
  void Why(FiniteOracle* oracle, size_t state, const Tuple& p,
           const std::vector<Expl>& set) {
    std::string key = Key(state, p), ser = Serialize(set);
    auto it = why_.find(key);
    if (it != why_.end() && it->second == ser) return;
    oracle->CheckWhyMgeSet(p, set, "WhyMges");
    why_[key] = ser;
  }
  static void Checks(const std::vector<bool>& verdicts, const char* what) {
    for (bool v : verdicts) {
      if (!v) throw CheckFailure(std::string(what) + " rejected a verified MGE");
    }
  }

 private:
  std::map<std::string, std::pair<std::string, std::vector<Expl>>> mges_;
  std::map<std::string, std::string> why_;
};

/// The same for derived-ontology (O_I) requests.
class DerivedVerifier {
 public:
  void One(const LsOracle& oracle, size_t state, const Tuple& t,
           const LsExpl& e) {
    std::string key = Key(state, t), ser = Serialize(e);
    auto it = one_.find(key);
    if (it != one_.end() && it->second == ser) return;
    oracle.CheckMge(t, e, "WhyNot");
    auto set = sets_.find(key);
    if (set != sets_.end() && !oracle.ContainsEquivalent(set->second.second, e)) {
      throw CheckFailure("WhyNot returned an MGE missing from EnumerateMges");
    }
    one_[key] = ser;
  }
  /// Checks `set`; true when it was not verified before for (state, t).
  bool Set(const LsOracle& oracle, size_t state, const Tuple& t,
           const std::vector<LsExpl>& set) {
    std::string key = Key(state, t), ser = Serialize(set);
    auto it = sets_.find(key);
    if (it != sets_.end() && it->second.first == ser) return false;
    for (const LsExpl& e : set) oracle.CheckMge(t, e, "EnumerateMges");
    oracle.CheckAntichain(set, "EnumerateMges");
    sets_[key] = {ser, set};
    return true;
  }
  void Why(const LsOracle& oracle, size_t state, const Tuple& p,
           const LsExpl& e) {
    std::string key = Key(state, p), ser = Serialize(e);
    auto it = why_.find(key);
    if (it != why_.end() && it->second == ser) return;
    oracle.CheckWhyMge(p, e, "Why");
    why_[key] = ser;
  }

 private:
  std::map<std::string, std::string> one_;
  std::map<std::string, std::pair<std::string, std::vector<LsExpl>>> sets_;
  std::map<std::string, std::string> why_;
};

// --- the travel world's engine objects (also the probe fallback) -----------

wn::dl::BasicConcept ToBasic(const std::string& key) {
  if (key.rfind("E:", 0) == 0) {
    std::string role = key.substr(2);
    bool inverse = role.size() > 2 && role.compare(role.size() - 2, 2, "^-") == 0;
    if (inverse) role.resize(role.size() - 2);
    return wn::dl::BasicConcept::Exists(wn::dl::Role{role, inverse});
  }
  return wn::dl::BasicConcept::Atomic(key);
}

std::string KeyOf(const wn::dl::BasicConcept& b) {
  if (b.kind == wn::dl::BasicConcept::Kind::kAtomic) return b.atomic;
  return "E:" + b.role.name + (b.role.inverse ? "^-" : "");
}

struct TravelEngine {
  explicit TravelEngine(const TravelInputs& in) {
    schema = std::make_unique<wn::rel::Schema>();
    Ok(schema->AddRelation("Cities", {"name", "population", "country", "continent"}),
       "AddRelation");
    Ok(schema->AddRelation("Train-Connections", {"city_from", "city_to"}),
       "AddRelation");
    base = std::make_unique<wn::rel::Instance>(schema.get());
    for (const Tuple& r : in.cities) Ok(base->AddFact("Cities", r), "AddFact");
    for (const Tuple& r : in.connections) {
      Ok(base->AddFact("Train-Connections", r), "AddFact");
    }
    TravelTBoxSpec spec = TravelTBox(in);
    for (const auto& [sub, super] : spec.inclusions) {
      tbox.AddConceptAxiom(ToBasic(sub), {ToBasic(super), false});
    }
    for (const auto& [a, b] : spec.disjoint) {
      tbox.AddConceptAxiom(ToBasic(a), {ToBasic(b), true});
    }
    using wn::obda::MappingHead;
    auto cities = [](wn::rel::Term a, wn::rel::Term b, wn::rel::Term c,
                     wn::rel::Term d) {
      return MakeAtom("Cities", {std::move(a), std::move(b), std::move(c),
                                 std::move(d)});
    };
    for (const auto& [country, continent] : in.countries) {
      mappings.push_back({{cities(Var("x"), Var("p"),
                                  wn::rel::Term::Const(Value(country)), Var("w"))},
                          {},
                          MappingHead::Concept(CountryConcept(country), "x")});
    }
    for (const std::string& c : in.continents) {
      mappings.push_back({{cities(Var("x"), Var("p"), Var("k"),
                                  wn::rel::Term::Const(Value(c)))},
                          {},
                          MappingHead::Concept(ContinentConcept(c), "x")});
    }
    mappings.push_back({{cities(Var("x"), Var("p"), Var("k"), Var("w"))},
                        {},
                        MappingHead::Concept("Continent", "w")});
    mappings.push_back({{cities(Var("x"), Var("p"), Var("k"), Var("w"))},
                        {},
                        MappingHead::RolePair("hasCountry", "x", "k")});
    mappings.push_back({{cities(Var("x"), Var("p"), Var("k"), Var("w"))},
                        {},
                        MappingHead::RolePair("hasContinent", "x", "w")});
    mappings.push_back(
        {{MakeAtom("Train-Connections", {Var("x"), Var("y")}),
          cities(Var("x"), Var("x1"), Var("x2"), Var("x3")),
          cities(Var("y"), Var("y1"), Var("y2"), Var("y3"))},
         {},
         MappingHead::RolePair("connected", "x", "y")});
    wn::rel::ConjunctiveQuery cq;
    cq.head = {"x", "y"};
    cq.atoms = {MakeAtom("Train-Connections", {Var("x"), Var("z")}),
                MakeAtom("Train-Connections", {Var("z"), Var("y")})};
    query = OneDisjunct(std::move(cq));
  }

  std::unique_ptr<wn::rel::Schema> schema;
  std::unique_ptr<wn::rel::Instance> base;
  wn::dl::TBox tbox;
  std::vector<wn::obda::GavMapping> mappings;
  wn::rel::UnionQuery query;
};

/// The small travel world whose O_B and OBDA layers the probes use on
/// workloads that bind neither.
void ProbeTinyTravel(uint64_t seed, int pool_threads, bool external,
                     bool derived, Tracer* tracer, LayerReport* out) {
  TravelInputs in = GenTravel(seed, /*tiny=*/true);
  TravelEngine eng(in);
  ProbeObda(eng.tbox, *eng.schema, eng.mappings, *eng.base, tracer, out);
  std::vector<Tuple> answers = TwoHop(in.connections);
  if (external) {
    wn::obda::ObdaSpec spec(eng.tbox, eng.schema.get(), eng.mappings);
    wn::obda::ObdaInducedOntology ontology(&spec);
    ProbeExternal(ontology, *eng.base, answers, in.missing, pool_threads,
                  /*report_check=*/false, tracer, out);
  }
  if (derived) {
    ProbeDerived(*eng.base, answers, in.missing, in.present,
                 /*report_check=*/false, tracer, out);
  }
}

// --- deep-lattice ------------------------------------------------------------

/// One tenant of the deep-lattice workload: a generated lattice bound in
/// its own session, with its own checker.
struct LatticeBinding {
  LatticeInputs in;
  std::unique_ptr<wn::rel::Schema> schema;
  std::unique_ptr<wn::rel::Instance> base, inst;
  std::unique_ptr<wn::onto::ExplicitOntology> onto;
  std::unique_ptr<FiniteOracle> oracle;
  std::unique_ptr<ExplainSession> session;
  ExternalVerifier verify;
  size_t writes = 0;
};

class DeepLattice : public SessionWorkload {
 public:
  DeepLattice(uint64_t seed, bool tiny, Tracer* tracer)
      : SessionWorkload(tracer), seed_(seed) {
    options_.exhaustive.strategy = wn::explain::SearchStrategy::kLattice;
    const size_t n = tiny ? 2 : kBindings;
    for (size_t b = 0; b < n; ++b) {
      bindings_.push_back(MakeBinding(GenLattice(seed * kBindings + b, tiny)));
    }
  }

  ExplainSession::MemoryStats Memory() const override {
    ExplainSession::MemoryStats total;
    for (const auto& b : bindings_) {
      if (b->session == nullptr) continue;
      ExplainSession::MemoryStats m = b->session->MemoryUsage();
      total.total_bytes += m.total_bytes;
      total.shared_cache_bytes += m.shared_cache_bytes;
    }
    return total;
  }
  wn::ls::ConceptCacheStats CacheStats() const override {
    wn::ls::ConceptCacheStats total;
    for (const auto& b : bindings_) {
      if (b->session == nullptr) continue;
      wn::ls::ConceptCacheStats c = b->session->CacheStats();
      total.shared_hits += c.shared_hits;
      total.local_hits += c.local_hits;
      total.misses += c.misses;
      total.publishes += c.publishes;
    }
    return total;
  }

  void Setup() override {
    for (auto& b : bindings_) Bind(b.get());
  }

  void Reset() override {
    for (auto& b : bindings_) {
      b->session.reset();
      b->inst = std::make_unique<wn::rel::Instance>(*b->base);
      b->writes = 0;
      Bind(b.get());
    }
  }

  /// One request group per binding, then the writes.
  size_t OpsPerRound() const override {
    return bindings_.size() * 5 + kWritesPerRound;
  }

  void Round(size_t round, Samples* s) override {
    // Every request is a sample of its own, so the medians resist the few
    // bindings whose searches run long; CHECK-MGE batches take tens of
    // microseconds per binding and are reported as the round's mean.
    double mges_ms = 0, one_ms = 0, exists_ms = 0, check_ms = 0, why_ms = 0;
    for (size_t g = 0; g < bindings_.size(); ++g) {
      LatticeBinding& b = *bindings_[g];
      // Binding g asks its (round + g)-th tuple, so every round mixes all
      // request positions instead of asking every binding the same one.
      const Tuple& t = b.in.missing[(round + g) % b.in.missing.size()];
      const Tuple& p = b.in.present[(round + g) % b.in.present.size()];
      std::vector<Expl> mges, whys;
      std::optional<wn::explain::CardinalityResult> card;
      bool exists = false;
      std::vector<bool> checks;
      double ms = tracer_->Span("explain.PrunedMges", [&] {
        mges = Take(b.session->PrunedMges(t), "PrunedMges");
      });
      s->mges_ms.push_back(ms);
      mges_ms += ms;
      ms = tracer_->Span("explain.CardMaximal",
                 [&] { card = Take(b.session->CardMaximal(t), "CardMaximal"); });
      s->one_ms.push_back(ms);
      one_ms += ms;
      exists_ms += tracer_->Span("explain.Exists",
                         [&] { exists = Take(b.session->Exists(t), "Exists"); });
      check_ms += tracer_->Span("explain.CheckMge", [&] {
        for (const Expl& e : mges) {
          checks.push_back(Take(b.session->CheckMge(t, e), "CheckMge"));
        }
      });
      ms = tracer_->Span("explain.WhyMges",
                 [&] { whys = Take(b.session->WhyMges(p), "WhyMges"); });
      s->why_ms.push_back(ms);
      why_ms += ms;
      if (!checks_) continue;
      VerifyMges(&b, g, t, mges);
      VerifyCard(&b, t, card);
      if (exists != !mges.empty()) {
        throw CheckFailure("Exists disagrees with the verified MGE set");
      }
      ExternalVerifier::Checks(checks, "CheckMge");
      b.verify.Why(OracleOf(&b), 0, p, whys);
    }
    s->check_ms.push_back(check_ms / static_cast<double>(bindings_.size()));
    double round_ms = mges_ms + one_ms + exists_ms + check_ms + why_ms;
    // The writes go to kWritesPerRound bindings in turn: a fact the answer
    // set does not read (BindWithAnswers keeps Ans), so the next read pays
    // the session's re-warm of extensions, covers and lattice over
    // unchanged semantics. The sample is their mean.
    double write_ms = 0;
    for (size_t j = 0; j < kWritesPerRound; ++j) {
      const size_t g = (round * kWritesPerRound + j) % bindings_.size();
      LatticeBinding& b = *bindings_[g];
      if (b.writes == kWritesPerCycle) {
        b.session.reset();
        b.inst = std::make_unique<wn::rel::Instance>(*b.base);
        b.writes = 0;
        Bind(&b);
      }
      const Tuple& t = b.in.missing[(round + g + 1) % b.in.missing.size()];
      std::vector<Expl> after;
      write_ms += tracer_->Span("explain.WriteThenPrunedMges", [&] {
        Ok(b.inst->AddFact("Log", {Value(static_cast<int64_t>(b.writes))}),
           "AddFact");
        after = Take(b.session->PrunedMges(t), "PrunedMges");
      });
      ++b.writes;
      if (checks_) VerifyMges(&b, g, t, after);
    }
    s->write_ms.push_back(write_ms / kWritesPerRound);
    s->round_ms.push_back(round_ms + write_ms);
  }

  size_t OpsPerPooledSample() const override { return bindings_.size(); }

  /// One all-MGE request per binding.
  void PooledSample(size_t index, Samples* s) override {
    std::vector<std::vector<Expl>> mges(bindings_.size());
    double ms = tracer_->Span("explain.PrunedMgesPooled", [&] {
      for (size_t g = 0; g < bindings_.size(); ++g) {
        LatticeBinding& b = *bindings_[g];
        mges[g] = Take(b.session->PrunedMges(
                           b.in.missing[(index + g) % b.in.missing.size()]),
                       "PrunedMges");
      }
    });
    s->mt_ms.push_back(ms / static_cast<double>(bindings_.size()));
    for (size_t g = 0; g < bindings_.size() && checks_; ++g) {
      LatticeBinding& b = *bindings_[g];
      VerifyMges(&b, g, b.in.missing[(index + g) % b.in.missing.size()], mges[g]);
    }
  }

  void SelfTest() override {
    for (auto& b : bindings_) {
      for (const Tuple& t : b->in.missing) {
        if (PlantExternal(OracleOf(b.get()), t,
                          Take(b->session->PrunedMges(t), "PrunedMges"),
                          b->onto->FindConcept("L0_0"))) {
          return;
        }
      }
    }
    throw std::runtime_error("no MGE to plant wrong outputs from");
  }

  void Probe(int pool_threads, LayerReport* out) override {
    const LatticeBinding& b = *bindings_.front();
    wn::rel::ConjunctiveQuery cq;
    cq.head = {"a", "b", "c"};
    cq.atoms = {MakeAtom("R", {Var("a"), Var("b"), Var("c")})};
    ProbeRelational(*b.base, OneDisjunct(std::move(cq)), "Log",
                    {Value(int64_t{-1})}, tracer_, out);
    ProbeExternal(*b.onto, *b.base, b.in.answers, Slice(b.in.missing, 0, 4),
                  pool_threads, /*report_check=*/true, tracer_, out);
    ProbeTinyTravel(seed_, pool_threads, /*external=*/false, /*derived=*/true,
                    tracer_, out);
  }

 private:
  // Many small tenants rather than one large lattice: how hard one random
  // lattice is varies a lot from seed to seed, and the median over many
  // independent ones does not.
  static constexpr size_t kBindings = 64;
  static constexpr size_t kWritesPerRound = 8;
  static constexpr size_t kWritesPerCycle = 4;

  static std::unique_ptr<LatticeBinding> MakeBinding(LatticeInputs generated) {
    auto b = std::make_unique<LatticeBinding>();
    b->in = std::move(generated);
    b->schema = std::make_unique<wn::rel::Schema>();
    Ok(b->schema->AddRelation("R", {"a", "b", "c"}), "AddRelation");
    Ok(b->schema->AddRelation("Log", {"k"}), "AddRelation");
    b->base = std::make_unique<wn::rel::Instance>(b->schema.get());
    for (const Tuple& t : b->in.answers) Ok(b->base->AddFact("R", t), "AddFact");
    b->inst = std::make_unique<wn::rel::Instance>(*b->base);
    b->onto = std::make_unique<wn::onto::ExplicitOntology>();
    const LatticeInputs& in = b->in;
    for (const std::string& n : in.names) b->onto->AddConcept(n);
    for (size_t c = 0; c < in.names.size(); ++c) {
      for (int p : in.parents[c]) {
        b->onto->AddSubsumption(in.names[c], in.names[static_cast<size_t>(p)]);
      }
      b->onto->SetExtension(in.names[c], in.ext[c]);
    }
    Ok(b->onto->Finalize(), "Finalize");
    return b;
  }

  /// The binding's checker, built on first use: its own closure of the
  /// declared edges, in engine ids.
  static FiniteOracle* OracleOf(LatticeBinding* b) {
    if (b->oracle != nullptr) return b->oracle.get();
    const LatticeInputs& in = b->in;
    const size_t n = in.names.size();
    std::vector<size_t> id(n);
    for (size_t c = 0; c < n; ++c) {
      id[c] = static_cast<size_t>(b->onto->FindConcept(in.names[c]));
    }
    std::vector<std::vector<Value>> ext(n);
    std::vector<std::vector<bool>> leq(n, std::vector<bool>(n, false));
    for (size_t c = 0; c < n; ++c) {
      ext[id[c]] = in.ext[c];
      std::vector<size_t> stack = {c};
      while (!stack.empty()) {
        size_t x = stack.back();
        stack.pop_back();
        if (leq[id[c]][id[x]]) continue;
        leq[id[c]][id[x]] = true;
        for (int p : in.parents[x]) stack.push_back(static_cast<size_t>(p));
      }
    }
    b->oracle = std::make_unique<FiniteOracle>(std::move(ext), std::move(leq),
                                               in.answers);
    return b->oracle.get();
  }

  /// Binds a fresh session and sends one warm-up request of each type.
  void Bind(LatticeBinding* b) {
    b->session.reset();
    b->session = std::make_unique<ExplainSession>(
        Take(ExplainSession::BindWithAnswers(b->inst.get(), b->in.answers,
                                             b->onto.get(), options_),
             "BindWithAnswers"));
    const Tuple& t = b->in.missing.front();
    auto mges = Take(b->session->PrunedMges(t), "PrunedMges");
    Take(b->session->CardMaximal(t), "CardMaximal");
    Take(b->session->Exists(t), "Exists");
    if (!mges.empty()) Take(b->session->CheckMge(t, mges.front()), "CheckMge");
    Take(b->session->WhyMges(b->in.present.front()), "WhyMges");
  }

  static void VerifyMges(LatticeBinding* b, size_t index, const Tuple& t,
                         const std::vector<Expl>& set) {
    bool fresh = b->verify.Verified(0, t) == nullptr;
    if (b->verify.Mges(OracleOf(b), 0, t, set, "PrunedMges")) {
      CheckNegatives(b->session.get(), OracleOf(b), t, set);
    }
    // The fixed brute-force subset: the first two request tuples of the
    // first two bindings.
    if (fresh && index < 2 &&
        (t == b->in.missing[0] || t == b->in.missing[1 % b->in.missing.size()])) {
      std::vector<Expl> sorted = set;
      std::sort(sorted.begin(), sorted.end());
      if (sorted != OracleOf(b)->BruteForceMges(t)) {
        throw CheckFailure("PrunedMges differs from the brute-force MGE set");
      }
    }
  }

  static void VerifyCard(LatticeBinding* b, const Tuple& t,
                         const std::optional<wn::explain::CardinalityResult>& card) {
    const std::vector<Expl>* set = b->verify.Verified(0, t);
    if (set == nullptr) throw CheckFailure("CardMaximal before its MGE set");
    if (set->empty() != !card.has_value()) {
      throw CheckFailure("CardMaximal disagrees with the MGE set on existence");
    }
    if (!card.has_value()) return;
    double best = 0;
    FiniteOracle* oracle = OracleOf(b);
    for (const Expl& e : *set) best = std::max(best, oracle->Degree(e));
    if (card->degree.infinite ||
        static_cast<double>(card->degree.finite) != best ||
        oracle->Degree(card->explanation) != best ||
        !oracle->IsExplanation(t, card->explanation)) {
      throw CheckFailure("CardMaximal degree " + card->degree.ToString() +
                         " is not the best MGE degree " + std::to_string(best));
    }
  }

  uint64_t seed_;
  wn::explain::ExplainSessionOptions options_;
  std::vector<std::unique_ptr<LatticeBinding>> bindings_;
};

// --- retail-rw ---------------------------------------------------------------

class RetailRw : public SessionWorkload {
 public:
  RetailRw(uint64_t seed, bool tiny, Tracer* tracer)
      : SessionWorkload(tracer), seed_(seed), in_(GenRetail(seed, tiny)) {
    if (in_.write_facts.empty()) throw EngineError("retail inputs have no writes");
    schema_ = std::make_unique<wn::rel::Schema>();
    Ok(schema_->AddRelation("Products", {"pid", "category"}), "AddRelation");
    Ok(schema_->AddRelation("Stores", {"sid", "city", "region"}), "AddRelation");
    Ok(schema_->AddRelation("Stock", {"pid", "sid"}), "AddRelation");
    for (const auto& [name, rows] : in_.groups) {
      Ok(schema_->AddRelation(name, {"id"}), "AddRelation");
    }
    base_ = std::make_unique<wn::rel::Instance>(schema_.get());
    for (const auto& [name, rows] : in_.groups) {
      for (const Tuple& t : rows) Ok(base_->AddFact(name, t), "AddFact");
    }
    for (const Tuple& t : in_.products) Ok(base_->AddFact("Products", t), "AddFact");
    for (const Tuple& t : in_.stores) Ok(base_->AddFact("Stores", t), "AddFact");
    for (const Tuple& t : in_.stock) Ok(base_->AddFact("Stock", t), "AddFact");
    inst_ = std::make_unique<wn::rel::Instance>(*base_);
    wn::rel::ConjunctiveQuery cq;
    cq.head = {"p", "s"};
    cq.atoms = {MakeAtom("Stock", {Var("p"), Var("s")})};
    query_ = OneDisjunct(std::move(cq));
  }

  void Setup() override {
    session_.reset();
    Install(ExplainSession::Bind(inst_.get(), query_));
    const Tuple& t = in_.missing.front();
    Take(session_->WhyNot(t), "WhyNot");
    auto set = Take(session_->EnumerateMges(t), "EnumerateMges");
    if (!set.empty()) Take(session_->CheckMgeDerived(t, set.front()), "CheckMgeDerived");
    Take(session_->Why(in_.present.front()), "Why");
  }

  void Reset() override {
    session_.reset();
    inst_ = std::make_unique<wn::rel::Instance>(*base_);
    writes_ = 0;
    Setup();
  }

  size_t OpsPerRound() const override { return kGroups * 4 + 1; }

  void Round(size_t round, Samples* s) override {
    if (writes_ == in_.write_facts.size()) Reset();
    // Each request type is reported as the round's mean over kGroups
    // requests, so one sample is a batch of a few milliseconds.
    double one_ms = 0, mges_ms = 0, check_ms = 0, why_ms = 0;
    for (size_t g = 0; g < kGroups; ++g) {
      const Tuple& t = in_.missing[(round * kGroups + g) % in_.missing.size()];
      const Tuple& p = in_.present[(round * kGroups + g) % in_.present.size()];
      LsExpl one, why;
      std::vector<LsExpl> set;
      std::vector<bool> checks;
      one_ms += tracer_->Span("explain.WhyNot",
                      [&] { one = Take(session_->WhyNot(t), "WhyNot"); });
      mges_ms += tracer_->Span("explain.EnumerateMges", [&] {
        set = Take(session_->EnumerateMges(t), "EnumerateMges");
      });
      check_ms += tracer_->Span("explain.CheckMgeDerived", [&] {
        for (const LsExpl& e : set) {
          checks.push_back(Take(session_->CheckMgeDerived(t, e), "CheckMgeDerived"));
        }
      });
      why_ms += tracer_->Span("explain.Why", [&] { why = Take(session_->Why(p), "Why"); });
      if (!checks_) continue;
      const LsOracle& oracle = Oracle(writes_);
      if (verify_.Set(oracle, writes_, t, set)) {
        CheckNegativesDerived(session_.get(), oracle, t, set);
      }
      verify_.One(oracle, writes_, t, one);
      ExternalVerifier::Checks(checks, "CheckMgeDerived");
      verify_.Why(oracle, writes_, p, why);
    }
    const double n = static_cast<double>(kGroups);
    s->one_ms.push_back(one_ms / n);
    s->mges_ms.push_back(mges_ms / n);
    s->check_ms.push_back(check_ms / n);
    s->why_ms.push_back(why_ms / n);
    double round_ms = one_ms + mges_ms + check_ms + why_ms;
    // The write fills a seeded hole, so Ans grows by one tuple; the next
    // read pays query re-evaluation and the session's re-warm.
    const Tuple& t = in_.missing[(round * kGroups + kGroups) % in_.missing.size()];
    LsExpl after;
    double ms = tracer_->Span("explain.WriteThenWhyNot", [&] {
      Ok(inst_->AddFact("Stock", in_.write_facts[writes_]), "AddFact");
      after = Take(session_->WhyNot(t), "WhyNot");
    });
    ++writes_;
    s->write_ms.push_back(ms);
    s->round_ms.push_back(round_ms + ms);
    if (!checks_) return;
    CheckAnswers(session_->answers(), Oracle(writes_).answer_set(), "after a write");
    verify_.One(Oracle(writes_), writes_, t, after);
  }

  void SelfTest() override {
    const LsOracle& before = Oracle(0);
    // A request tuple with an MGE that has a position wider than its
    // nominal, so replacing that position by the nominal is a strictly
    // less general explanation.
    Tuple t;
    std::vector<LsExpl> set;
    std::optional<LsExpl> lower;
    for (size_t r = 0; r < in_.missing.size() && !lower; ++r) {
      t = in_.missing[r];
      set = Take(session_->EnumerateMges(t), "EnumerateMges");
      lower = NarrowOne(before, t, set);
    }
    if (!lower) throw std::runtime_error("self-test found no generalisable MGE");
    for (const LsExpl& e : set) before.CheckMge(t, e, "engine output");
    before.CheckAntichain(set, "engine output");
    ExpectReject("a tuple that is not an explanation", [&] {
      before.CheckMge(t, LsExpl(t.size(), wn::ls::LsConcept::Top()), "planted");
    });
    ExpectReject("a non-maximal explanation",
                 [&] { before.CheckMge(t, *lower, "planted"); });
    std::vector<LsExpl> twice = set;
    twice.push_back(set.front());
    ExpectReject("a non-antichain set",
                 [&] { before.CheckAntichain(twice, "planted"); });
    // A write fills the hole w. ({w0}, {w1}) explained w before it; judged
    // on the rows after the write it must fail, and the pre-write answer
    // set must no longer pass for the session's.
    const Tuple& w = in_.write_facts.front();
    LsExpl nominals = {wn::ls::LsConcept::Nominal(w[0]),
                       wn::ls::LsConcept::Nominal(w[1])};
    before.CheckMge(w, nominals, "pre-write explanation");
    Ok(inst_->AddFact("Stock", w), "AddFact");
    Take(session_->WhyNot(t), "WhyNot");
    const LsOracle& after = Oracle(1);
    CheckAnswers(session_->answers(), after.answer_set(), "after the write");
    ExpectReject("an explanation over the stale answer set",
                 [&] { after.CheckMge(w, nominals, "planted"); });
    ExpectReject("a stale answer set after a write", [&] {
      CheckAnswers(session_->answers(), before.answer_set(), "planted");
    });
    Reset();
  }

  size_t OpsPerPooledSample() const override { return kPooledBatch; }

  /// A pooled EnumerateMges takes over 20 ms, so each is a sample of its
  /// own: the median then passes over the few that host load stretches.
  void PooledSample(size_t index, Samples* s) override {
    for (const Tuple& t : Slice(in_.missing, index * kPooledBatch, kPooledBatch)) {
      std::vector<LsExpl> set;
      s->mt_ms.push_back(tracer_->Span("explain.EnumerateMgesPooled", [&] {
        set = Take(session_->EnumerateMges(t), "EnumerateMges");
      }));
      if (checks_ && verify_.Set(Oracle(writes_), writes_, t, set)) {
        CheckNegativesDerived(session_.get(), Oracle(writes_), t, set);
      }
    }
  }

  void Probe(int pool_threads, LayerReport* out) override {
    ProbeRelational(*base_, query_, "Stock", in_.write_facts.front(), tracer_, out);
    ProbeDerived(*base_, in_.stock, Slice(in_.missing, 0, 4),
                 Slice(in_.present, 0, 4), /*report_check=*/true, tracer_, out);
    ProbeTinyTravel(seed_, pool_threads, /*external=*/true, /*derived=*/false,
                    tracer_, out);
  }

 private:
  static constexpr size_t kGroups = 8;
  static constexpr size_t kPooledBatch = 8;

  /// The checker for the rows after `writes` writes (built once each).
  const LsOracle& Oracle(size_t writes) {
    if (oracles_.size() <= writes) oracles_.resize(writes + 1);
    if (oracles_[writes] == nullptr) {
      std::vector<Tuple> stock = in_.stock;
      stock.insert(stock.end(), in_.write_facts.begin(),
                   in_.write_facts.begin() + static_cast<ptrdiff_t>(writes));
      std::sort(stock.begin(), stock.end());
      std::map<std::string, std::vector<Tuple>> rows = in_.groups;
      rows["Products"] = in_.products;
      rows["Stores"] = in_.stores;
      rows["Stock"] = stock;
      oracles_[writes] = std::make_unique<LsOracle>(std::move(rows), stock);
    }
    return *oracles_[writes];
  }

  uint64_t seed_;
  RetailInputs in_;
  std::unique_ptr<wn::rel::Schema> schema_;
  std::unique_ptr<wn::rel::Instance> base_, inst_;
  wn::rel::UnionQuery query_;
  std::vector<std::unique_ptr<LsOracle>> oracles_;
  DerivedVerifier verify_;
  size_t writes_ = 0;
};

// --- travel-obda -------------------------------------------------------------

class TravelObda : public SessionWorkload {
 public:
  TravelObda(uint64_t seed, bool tiny, Tracer* tracer)
      : SessionWorkload(tracer), in_(GenTravel(seed, tiny)), eng_(in_) {
    if (in_.write_facts.empty()) throw EngineError("travel inputs have no writes");
    inst_ = std::make_unique<wn::rel::Instance>(*eng_.base);
  }

  void Setup() override {
    session_.reset();
    Bind();
    const Tuple& t = in_.missing.front();
    auto mges = Take(session_->ExhaustiveMges(t), "ExhaustiveMges");
    if (!mges.empty()) Take(session_->CheckMge(t, mges.front()), "CheckMge");
    Take(session_->WhyNot(t), "WhyNot");
    Take(session_->Why(in_.present.front()), "Why");
  }

  void Reset() override {
    session_.reset();
    inst_ = std::make_unique<wn::rel::Instance>(*eng_.base);
    writes_ = 0;
    Setup();
  }

  size_t OpsPerRound() const override {
    return kExternalGroups * 2 + kDerivedGroups * 2 + 1;
  }

  void Round(size_t round, Samples* s) override {
    if (writes_ == in_.write_facts.size()) Reset();
    // Each request type is reported as the round's mean. Requests over O_B
    // take microseconds, so a round sends many more of them.
    double mges_ms = 0, check_ms = 0, one_ms = 0, why_ms = 0;
    for (size_t g = 0; g < kExternalGroups; ++g) {
      const Tuple& t = in_.missing[(round * kExternalGroups + g) % in_.missing.size()];
      std::vector<Expl> mges;
      std::vector<bool> checks;
      mges_ms += tracer_->Span("explain.ExhaustiveMges", [&] {
        mges = Take(session_->ExhaustiveMges(t), "ExhaustiveMges");
      });
      check_ms += tracer_->Span("explain.CheckMge", [&] {
        for (const Expl& e : mges) {
          checks.push_back(Take(session_->CheckMge(t, e), "CheckMge"));
        }
      });
      if (!checks_) continue;
      VerifyMges(t, mges, "ExhaustiveMges");
      ExternalVerifier::Checks(checks, "CheckMge");
    }
    for (size_t g = 0; g < kDerivedGroups; ++g) {
      const Tuple& t = in_.missing[(round * kDerivedGroups + g) % in_.missing.size()];
      const Tuple& p = in_.present[(round * kDerivedGroups + g) % in_.present.size()];
      LsExpl one, why;
      one_ms += tracer_->Span("explain.WhyNot",
                      [&] { one = Take(session_->WhyNot(t), "WhyNot"); });
      why_ms += tracer_->Span("explain.Why", [&] { why = Take(session_->Why(p), "Why"); });
      if (!checks_) continue;
      const LsOracle& ls = *StateFor(writes_).ls;
      ls_verify_.One(ls, writes_, t, one);
      ls_verify_.Why(ls, writes_, p, why);
    }
    s->mges_ms.push_back(mges_ms / kExternalGroups);
    s->check_ms.push_back(check_ms / kExternalGroups);
    s->one_ms.push_back(one_ms / kDerivedGroups);
    s->why_ms.push_back(why_ms / kDerivedGroups);
    double round_ms = mges_ms + check_ms + one_ms + why_ms;
    // The write adds a train connection, which changes Ans and O_B's
    // certain extensions. A session re-warm would serve the saturation
    // cached for the old rows (see CHANGES.md, FOUND), so the write binds
    // a fresh induced ontology and session, as a caller must today.
    const Tuple& t = in_.missing[round % in_.missing.size()];
    std::vector<Expl> after;
    double ms = tracer_->Span("explain.WriteThenExhaustiveMges", [&] {
      Ok(inst_->AddFact("Train-Connections", in_.write_facts[writes_]), "AddFact");
      session_.reset();
      ontology_ = std::make_unique<wn::obda::ObdaInducedOntology>(spec_.get());
      Install(ExplainSession::Bind(inst_.get(), eng_.query, ontology_.get()));
      after = Take(session_->ExhaustiveMges(t), "ExhaustiveMges");
    });
    ++writes_;
    s->write_ms.push_back(ms);
    s->round_ms.push_back(round_ms + ms);
    if (!checks_) return;
    CheckAnswers(session_->answers(), StateFor(writes_).ls->answer_set(),
                 "after a write");
    VerifyMges(t, after, "ExhaustiveMges after a write");
  }

  size_t OpsPerPooledSample() const override { return kPooledBatch; }

  void PooledSample(size_t index, Samples* s) override {
    std::vector<Tuple> ts = Slice(in_.missing, index * kPooledBatch, kPooledBatch);
    std::vector<std::vector<Expl>> mges(ts.size());
    double ms = tracer_->Span("explain.ExhaustiveMgesPooled", [&] {
      for (size_t k = 0; k < ts.size(); ++k) {
        mges[k] = Take(session_->ExhaustiveMges(ts[k]), "ExhaustiveMges");
      }
    });
    s->mt_ms.push_back(ms / static_cast<double>(ts.size()));
    for (size_t k = 0; k < ts.size() && checks_; ++k) {
      VerifyMges(ts[k], mges[k], "ExhaustiveMges pooled");
    }
  }

  void SelfTest() override {
    int32_t city = -1;
    for (int32_t c = 0; c < ontology_->NumConcepts(); ++c) {
      if (KeyOf(ontology_->Concept(c)) == "City") city = c;
    }
    for (const Tuple& t : in_.missing) {
      if (PlantExternal(StateFor(0).obda.get(), t,
                        Take(session_->ExhaustiveMges(t), "ExhaustiveMges"),
                        city)) {
        return;
      }
    }
    throw std::runtime_error("no MGE to plant wrong outputs from");
  }

  void Probe(int pool_threads, LayerReport* out) override {
    ProbeRelational(*eng_.base, eng_.query, "Train-Connections",
                    in_.write_facts.front(), tracer_, out);
    ProbeObda(eng_.tbox, *eng_.schema, eng_.mappings, *eng_.base, tracer_, out);
    wn::obda::ObdaSpec spec(eng_.tbox, eng_.schema.get(), eng_.mappings);
    wn::obda::ObdaInducedOntology ontology(&spec);
    std::vector<Tuple> answers = TwoHop(in_.connections);
    ProbeExternal(ontology, *eng_.base, answers, Slice(in_.missing, 0, 8),
                  pool_threads, /*report_check=*/true, tracer_, out);
    ProbeDerived(*eng_.base, answers, Slice(in_.missing, 0, 4),
                 Slice(in_.present, 0, 4), /*report_check=*/false, tracer_, out);
  }

 private:
  static constexpr size_t kExternalGroups = 256;
  static constexpr size_t kDerivedGroups = 8;
  static constexpr size_t kPooledBatch = 8192;

  /// Building the OBDA specification (with its reasoner) and the induced
  /// ontology is part of binding this workload.
  void Bind() {
    spec_ = std::make_unique<wn::obda::ObdaSpec>(eng_.tbox, eng_.schema.get(),
                                                 eng_.mappings);
    ontology_ = std::make_unique<wn::obda::ObdaInducedOntology>(spec_.get());
    Install(ExplainSession::Bind(inst_.get(), eng_.query, ontology_.get()));
  }

  /// Checks an O_B MGE set against the current rows; a newly verified set
  /// also gets the negative CHECK-MGE and Exists checks.
  void VerifyMges(const Tuple& t, const std::vector<Expl>& mges, const char* what) {
    FiniteOracle* oracle = StateFor(writes_).obda.get();
    if (ext_verify_.Mges(oracle, writes_, t, mges, what)) {
      CheckNegatives(session_.get(), oracle, t, mges);
    }
  }

  struct State {
    std::unique_ptr<FiniteOracle> obda;
    std::unique_ptr<LsOracle> ls;
  };

  /// The checkers for the rows after `writes` writes (built once each).
  State& StateFor(size_t writes) {
    if (states_.size() <= writes) states_.resize(writes + 1);
    State& st = states_[writes];
    if (st.obda != nullptr) return st;
    std::vector<Tuple> conns = in_.connections;
    conns.insert(conns.end(), in_.write_facts.begin(),
                 in_.write_facts.begin() + static_cast<ptrdiff_t>(writes));
    std::vector<Tuple> answers = TwoHop(conns);
    std::map<std::string, std::set<Value>> certain =
        TravelCertainMembers(in_, in_.cities, conns);
    // Concept ids come from the engine's TBox order; the checker maps each
    // to its own key and judges it with its own closure and extensions.
    const int32_t n = ontology_->NumConcepts();
    std::vector<std::string> keys;
    for (int32_t c = 0; c < n; ++c) keys.push_back(KeyOf(ontology_->Concept(c)));
    std::map<std::string, std::set<std::string>> up =
        TravelSubsumers(TravelTBox(in_), keys);
    std::vector<std::vector<Value>> ext(static_cast<size_t>(n));
    std::vector<std::vector<bool>> leq(static_cast<size_t>(n),
                                       std::vector<bool>(static_cast<size_t>(n)));
    for (int32_t c = 0; c < n; ++c) {
      const std::set<Value>& m = certain[keys[static_cast<size_t>(c)]];
      ext[static_cast<size_t>(c)].assign(m.begin(), m.end());
      for (int32_t d = 0; d < n; ++d) {
        leq[static_cast<size_t>(c)][static_cast<size_t>(d)] =
            up[keys[static_cast<size_t>(c)]].count(keys[static_cast<size_t>(d)]) > 0;
      }
    }
    st.obda = std::make_unique<FiniteOracle>(std::move(ext), std::move(leq), answers);
    std::map<std::string, std::vector<Tuple>> rows = {
        {"Cities", in_.cities}, {"Train-Connections", conns}};
    st.ls = std::make_unique<LsOracle>(std::move(rows), answers);
    return st;
  }

  TravelInputs in_;
  TravelEngine eng_;
  std::unique_ptr<wn::rel::Instance> inst_;
  std::unique_ptr<wn::obda::ObdaSpec> spec_;
  std::unique_ptr<wn::obda::ObdaInducedOntology> ontology_;
  std::vector<State> states_;
  ExternalVerifier ext_verify_;
  DerivedVerifier ls_verify_;
  size_t writes_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"deep-lattice", "retail-rw",
                                                 "travel-obda"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool tiny, Tracer* tracer) {
  if (name == "deep-lattice") return std::make_unique<DeepLattice>(seed, tiny, tracer);
  if (name == "retail-rw") return std::make_unique<RetailRw>(seed, tiny, tracer);
  if (name == "travel-obda") return std::make_unique<TravelObda>(seed, tiny, tracer);
  return nullptr;
}

}  // namespace e2e
