// whynot_cli — ask why-not questions from the command line.
//
// Loads a schema, a data file, and a query; evaluates the query; and
// explains why a given tuple is missing from the answers, using one of:
//
//   * the instance-derived ontology OI (default; Algorithm 2 /
//     INCREMENTAL SEARCH, optionally with selections or full MGE
//     enumeration),
//   * an external DL-LiteR ontology attached by GAV mappings (OBDA route,
//     Definition 4.4; Algorithm 1 / EXHAUSTIVE SEARCH),
//   * an external DL-LiteR ontology attached by an ABox.
//
// Examples:
//   whynot_cli --schema travel.schema --data travel.facts
//       --query 'q(x, y) := Train-Connections(x, z), Train-Connections(z, y)'
//       --whynot '(Amsterdam, New York)'
//
//   whynot_cli --schema travel.schema --data travel.facts
//       --tbox travel.tbox --mappings travel.map
//       --query-file q.txt --whynot '(Amsterdam, New York)'
//       --dot ontology.dot

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "whynot/text/dot_export.h"
#include "whynot/text/parsers.h"
#include "whynot/whynot.h"

namespace wn = whynot;

namespace {

constexpr char kUsage[] = R"(usage: whynot_cli [options]

required:
  --schema FILE        schema document (relation/view/fd/id declarations)
  --data FILE          facts document
  --query TEXT         query, e.g. 'q(x, y) := R(x, z), R(z, y)'
                       (or --query-file FILE)
  --whynot TUPLE       missing tuple, e.g. '(Amsterdam, New York)'
                       (or --why TUPLE: explain why a tuple IS an answer,
                       w.r.t. the derived ontology OI)

ontology source (default: the instance-derived ontology OI):
  --tbox FILE          DL-LiteR TBox
  --mappings FILE      GAV mappings (with --tbox: the OBDA route)
  --abox FILE          ABox assertions (with --tbox: the ABox route)

options:
  --mode MODE          derived: incremental | selections | enumerate
                       external: exhaustive (default)
  --deadline-ms N      wall-clock budget per explain request, in
                       milliseconds; an exceeded deadline exits with
                       code 4 (binding/warm-up is not counted)
  --shorten            make derived explanations irredundant (Prop. 6.2)
  --strong             check whether each reported explanation is strong
  --answers            print the query answers before explaining
  --dot FILE           write the ontology Hasse diagram as Graphviz DOT
                       (external ontologies only), highlighting the first
                       explanation

exit codes:
  0  success
  1  generic error (I/O, parse, inconsistency, ...)
  2  usage error / invalid argument
  3  resource budget exhausted (node/candidate limits)
  4  deadline exceeded (--deadline-ms)
  5  cancelled
)";

wn::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return wn::Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Args {
  std::map<std::string, std::string> values;
  bool Has(const std::string& key) const { return values.count(key) > 0; }
  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? "" : it->second;
  }
};

wn::Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  const std::map<std::string, bool> known = {
      {"--schema", true},  {"--data", true},   {"--query", true},
      {"--query-file", true}, {"--whynot", true}, {"--why", true},
      {"--tbox", true},
      {"--mappings", true},   {"--abox", true},   {"--mode", true},
      {"--deadline-ms", true},
      {"--strong", false},    {"--shorten", false},
      {"--answers", false},   {"--dot", true},
      {"--help", false},
  };
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto it = known.find(flag);
    if (it == known.end()) {
      return wn::Status::InvalidArgument("unknown flag: " + flag);
    }
    if (!it->second) {
      args.values[flag] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      return wn::Status::InvalidArgument("missing value for " + flag);
    }
    args.values[flag] = argv[++i];
  }
  return args;
}

// Distinct exit codes per failure class (documented in kUsage), so shell
// callers can tell a blown deadline from a genuinely failed request.
int ExitCodeFor(const wn::Status& status) {
  switch (status.code()) {
    case wn::StatusCode::kInvalidArgument:
      return 2;
    case wn::StatusCode::kResourceExhausted:
      return 3;
    case wn::StatusCode::kDeadlineExceeded:
      return 4;
    case wn::StatusCode::kCancelled:
      return 5;
    default:
      return 1;
  }
}

int Fail(const wn::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return ExitCodeFor(status);
}

// --deadline-ms, parsed strictly (a mistyped budget must not silently run
// unbounded). 0 = no deadline.
wn::Result<int64_t> DeadlineMsArg(const Args& args) {
  if (!args.Has("--deadline-ms")) return static_cast<int64_t>(0);
  const std::string& text = args.Get("--deadline-ms");
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value <= 0) {
    return wn::Status::InvalidArgument(
        "--deadline-ms expects a positive integer, got '" + text + "'");
  }
  return static_cast<int64_t>(value);
}

// Explains against an external finite ontology through a prepared
// ExplainSession (Algorithm 1) and optionally exports the DOT diagram.
// The session binds, warms, and checks the ontology once; a server
// answering many why-not questions over the same data would keep it
// alive and call ExhaustiveMges per request. Bound from the answers the
// caller already evaluated (for validation and printing), so the query
// runs exactly once per CLI invocation.
int ExplainExternal(const wn::onto::FiniteOntology& ontology,
                    const wn::rel::Instance& instance,
                    std::vector<wn::Tuple> answers, const wn::Tuple& missing,
                    const Args& args) {
  auto deadline_ms = DeadlineMsArg(args);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  wn::explain::ExplainSessionOptions options;
  options.request_deadline_ms = deadline_ms.value();
  auto session = wn::explain::ExplainSession::BindWithAnswers(
      &instance, std::move(answers), &ontology, options);
  if (!session.ok()) return Fail(session.status());
  wn::Status consistent = session->CheckConsistent();
  if (!consistent.ok()) return Fail(consistent);
  auto mges = session->ExhaustiveMges(missing);
  if (!mges.ok()) return Fail(mges.status());
  if (mges.value().empty()) {
    std::cout << "no explanation exists over this ontology\n";
    return 0;
  }
  wn::onto::BoundOntology& bound = *session->bound_ontology();
  std::cout << "most-general explanations (" << mges.value().size() << "):\n";
  for (const wn::explain::Explanation& e : mges.value()) {
    std::cout << "  " << wn::explain::ExplanationToString(bound, e) << "\n";
  }
  if (args.Has("--dot")) {
    wn::text::DotOptions dot_options;
    dot_options.highlight = mges.value().front();
    std::ofstream out(args.Get("--dot"));
    if (!out) {
      return Fail(wn::Status::NotFound("cannot write " + args.Get("--dot")));
    }
    out << wn::text::OntologyToDot(&bound, dot_options);
    std::cout << "wrote " << args.Get("--dot") << "\n";
  }
  return 0;
}

// Explains against the derived ontology OI through a prepared session
// (bound from the already-evaluated answers, as above).
int ExplainDerived(const wn::rel::Instance& instance,
                   const wn::rel::UnionQuery& query,
                   std::vector<wn::Tuple> answers, const wn::Tuple& missing,
                   const Args& args) {
  std::string mode = args.Has("--mode") ? args.Get("--mode") : "incremental";
  auto deadline_ms = DeadlineMsArg(args);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  wn::explain::ExplainSessionOptions options;
  options.with_selections = mode == "selections";
  options.request_deadline_ms = deadline_ms.value();
  auto session = wn::explain::ExplainSession::BindWithAnswers(
      &instance, std::move(answers), /*ontology=*/nullptr, options);
  if (!session.ok()) return Fail(session.status());
  std::vector<wn::explain::LsExplanation> results;
  if (mode == "enumerate") {
    auto all = session->EnumerateMges(missing);
    if (!all.ok()) return Fail(all.status());
    results = std::move(all).value();
    std::cout << "most-general explanations (" << results.size() << "):\n";
  } else if (mode == "incremental" || mode == "selections") {
    auto one = session->WhyNot(missing);
    if (!one.ok()) return Fail(one.status());
    results.push_back(std::move(one).value());
    std::cout << "most-general explanation:\n";
  } else {
    return Fail(wn::Status::InvalidArgument("unknown --mode: " + mode));
  }
  if (args.Has("--shorten")) {
    for (wn::explain::LsExplanation& e : results) {
      e = wn::explain::MakeIrredundant(e, instance);
    }
  }
  for (const wn::explain::LsExplanation& e : results) {
    std::cout << "  "
              << wn::explain::LsExplanationToString(instance.schema(), e)
              << "\n";
  }
  if (args.Has("--strong")) {
    for (const wn::explain::LsExplanation& e : results) {
      auto d = wn::explain::DecideStrongExplanation(instance.schema(), query, e);
      if (!d.ok()) return Fail(d.status());
      std::cout << "  strong? "
                << wn::explain::StrongVerdictName(d.value().verdict);
      if (d.value().verdict == wn::explain::StrongVerdict::kNotStrong) {
        std::cout << " (another instance admits "
                  << wn::TupleToString(d.value().witness) << ")";
      } else if (!d.value().detail.empty()) {
        std::cout << " (" << d.value().detail << ")";
      }
      std::cout << "\n";
    }
  }
  return 0;
}

int Run(int argc, char** argv) {
  auto args_or = ParseArgs(argc, argv);
  if (!args_or.ok()) {
    std::cerr << kUsage;
    return Fail(args_or.status());
  }
  const Args& args = args_or.value();
  if (args.Has("--help") || argc == 1) {
    std::cout << kUsage;
    return 0;
  }
  for (const char* required : {"--schema", "--data"}) {
    if (!args.Has(required)) {
      std::cerr << kUsage;
      return Fail(wn::Status::InvalidArgument(std::string(required) +
                                              " is required"));
    }
  }
  if (!args.Has("--whynot") && !args.Has("--why")) {
    std::cerr << kUsage;
    return Fail(
        wn::Status::InvalidArgument("--whynot or --why is required"));
  }
  if (!args.Has("--query") && !args.Has("--query-file")) {
    std::cerr << kUsage;
    return Fail(wn::Status::InvalidArgument("--query or --query-file is "
                                            "required"));
  }

  // --- Load schema, data, query, missing tuple.
  auto schema_text = ReadFile(args.Get("--schema"));
  if (!schema_text.ok()) return Fail(schema_text.status());
  auto schema = wn::text::ParseSchema(schema_text.value());
  if (!schema.ok()) return Fail(schema.status());

  auto data_text = ReadFile(args.Get("--data"));
  if (!data_text.ok()) return Fail(data_text.status());
  wn::rel::Instance instance(&schema.value());
  wn::Status st = wn::text::ParseFactsInto(data_text.value(), &instance);
  if (!st.ok()) return Fail(st);
  if (schema.value().HasViews()) {
    st = wn::rel::MaterializeViews(&instance);
    if (!st.ok()) return Fail(st);
  }
  st = instance.SatisfiesConstraints();
  if (!st.ok()) return Fail(st);

  std::string query_text = args.Get("--query");
  if (args.Has("--query-file")) {
    auto file = ReadFile(args.Get("--query-file"));
    if (!file.ok()) return Fail(file.status());
    query_text = file.value();
  }
  auto query = wn::text::ParseQuery(query_text, schema.value());
  if (!query.ok()) return Fail(query.status());

  // --why: the dual question, answered w.r.t. the derived ontology OI.
  if (args.Has("--why")) {
    auto present = wn::text::ParseTuple(args.Get("--why"));
    if (!present.ok()) return Fail(present.status());
    auto deadline_ms = DeadlineMsArg(args);
    if (!deadline_ms.ok()) return Fail(deadline_ms.status());
    wn::explain::ExplainSessionOptions options;
    options.with_selections = args.Get("--mode") == "selections";
    options.request_deadline_ms = deadline_ms.value();
    auto session = wn::explain::ExplainSession::Bind(
        &instance, query.value(), /*ontology=*/nullptr, options);
    if (!session.ok()) return Fail(session.status());
    std::cout << "why " << wn::TupleToString(present.value())
              << "? (derived ontology OI)\n";
    auto e = session->Why(present.value());
    if (!e.ok()) return Fail(e.status());
    std::cout << "most-general why-explanation:\n  "
              << wn::explain::LsExplanationToString(schema.value(), e.value())
              << "\n";
    return 0;
  }

  auto missing = wn::text::ParseTuple(args.Get("--whynot"));
  if (!missing.ok()) return Fail(missing.status());

  // Validate the question and print the answers; the explain routes
  // below bind their prepared sessions from this answer set, so the
  // query is evaluated exactly once.
  auto wni = wn::explain::MakeWhyNotInstance(&instance, query.value(),
                                             missing.value());
  if (!wni.ok()) return Fail(wni.status());

  std::cout << "query answers: " << wni.value().answers.size() << " tuples\n";
  if (args.Has("--answers")) {
    for (const wn::Tuple& t : wni.value().answers) {
      std::cout << "  " << wn::TupleToString(t) << "\n";
    }
  }
  std::cout << "why not " << wn::TupleToString(missing.value()) << "?\n";
  std::vector<wn::Tuple> answers = std::move(wni.value().answers);

  // --- Choose the ontology route.
  if (args.Has("--tbox")) {
    auto tbox_text = ReadFile(args.Get("--tbox"));
    if (!tbox_text.ok()) return Fail(tbox_text.status());
    auto tbox = wn::text::ParseTBox(tbox_text.value());
    if (!tbox.ok()) return Fail(tbox.status());
    if (args.Has("--mappings")) {
      auto map_text = ReadFile(args.Get("--mappings"));
      if (!map_text.ok()) return Fail(map_text.status());
      auto mappings = wn::text::ParseMappings(map_text.value(), schema.value());
      if (!mappings.ok()) return Fail(mappings.status());
      wn::obda::ObdaSpec spec(tbox.value(), &schema.value(),
                              std::move(mappings).value());
      st = spec.Validate();
      if (!st.ok()) return Fail(st);
      st = spec.CheckConsistent(instance);
      if (!st.ok()) return Fail(st);
      wn::obda::ObdaInducedOntology induced(&spec);
      return ExplainExternal(induced, instance, std::move(answers),
                             missing.value(), args);
    }
    if (args.Has("--abox")) {
      auto abox_text = ReadFile(args.Get("--abox"));
      if (!abox_text.ok()) return Fail(abox_text.status());
      auto abox = wn::text::ParseAbox(abox_text.value());
      if (!abox.ok()) return Fail(abox.status());
      auto ontology =
          wn::dl::AboxOntology::Make(&tbox.value(), std::move(abox).value());
      if (!ontology.ok()) return Fail(ontology.status());
      return ExplainExternal(*ontology.value(), instance,
                             std::move(answers), missing.value(), args);
    }
    return Fail(wn::Status::InvalidArgument(
        "--tbox requires --mappings (OBDA) or --abox"));
  }
  return ExplainDerived(instance, query.value(), std::move(answers),
                        missing.value(), args);
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
