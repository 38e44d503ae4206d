#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <vector>

#include "test_util.h"
#include "whynot/text/dot_export.h"
#include "whynot/text/parsers.h"
#include "whynot/text/text_util.h"

namespace whynot {
namespace {

using text::LogicalLines;
using text::ParseAbox;
using text::ParseFactsInto;
using text::ParseMappings;
using text::ParseQuery;
using text::ParseSchema;
using text::ParseTBox;
using text::ParseTuple;
using text::ParseValueLiteral;
using text::SplitOnce;
using text::SplitTopLevel;

// The Figure 1 schema as a document.
constexpr char kTravelSchema[] = R"(
# Figure 1
relation Cities(name, population, country, continent)
relation Train-Connections(city_from, city_to)
view BigCity(name) := Cities(name, y, z, w), y >= 5000000
view EuropeanCountry(name) := Cities(x, y, name, w), w = "Europe"
view Reachable(a, b) := Train-Connections(a, b) | Train-Connections(a, z), Train-Connections(z, b)
fd Cities: country -> continent
id Train-Connections[city_from] <= Cities[name]
)";

constexpr char kTravelFacts[] = R"(
Cities(Amsterdam, 779808, Netherlands, Europe)
Cities(Berlin, 3502000, Germany, Europe)
Cities("New York", 8337000, USA, N.America)
Train-Connections(Amsterdam, Berlin)
Train-Connections(Berlin, Amsterdam)
)";

// --- text_util -------------------------------------------------------------

TEST(TextUtilTest, SplitTopLevelRespectsNesting) {
  std::vector<std::string> parts =
      SplitTopLevel("R(a, b), x >= 5, S(c, \"x,y\")", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "R(a, b)");
  EXPECT_EQ(parts[1], "x >= 5");
  EXPECT_EQ(parts[2], "S(c, \"x,y\")");
}

TEST(TextUtilTest, SplitOnceRequiresExactlyOne) {
  EXPECT_TRUE(SplitOnce("a := b", ":=").ok());
  EXPECT_FALSE(SplitOnce("a := b := c", ":=").ok());
  EXPECT_FALSE(SplitOnce("a b", ":=").ok());
}

TEST(TextUtilTest, SplitOnceIgnoresNestedSeparators) {
  ASSERT_OK_AND_ASSIGN(auto parts, SplitOnce("V(x) := R(x), x >= 1", ":="));
  EXPECT_EQ(parts.first, "V(x)");
}

TEST(TextUtilTest, ValueLiterals) {
  EXPECT_EQ(ParseValueLiteral("42").value(), Value(42));
  EXPECT_EQ(ParseValueLiteral("-7").value(), Value(-7));
  EXPECT_EQ(ParseValueLiteral("2.5").value(), Value(2.5));
  EXPECT_EQ(ParseValueLiteral("word").value(), Value("word"));
  EXPECT_EQ(ParseValueLiteral("\"two words\"").value(), Value("two words"));
  EXPECT_EQ(ParseValueLiteral("\"esc \\\" ok\"").value(), Value("esc \" ok"));
  EXPECT_FALSE(ParseValueLiteral("").ok());
  EXPECT_FALSE(ParseValueLiteral("\"open").ok());
}

TEST(TextUtilTest, LogicalLinesStripCommentsAndBlanks) {
  auto lines = LogicalLines("a\n\n# comment\n b # trailing\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], std::make_pair(1, std::string("a")));
  EXPECT_EQ(lines[1], std::make_pair(4, std::string("b")));
}

// --- schema / facts ----------------------------------------------------------

TEST(SchemaParserTest, ParsesTravelSchema) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  EXPECT_EQ(schema.relations().size(), 5u);
  EXPECT_TRUE(schema.Get("BigCity").is_view());
  EXPECT_FALSE(schema.Get("Cities").is_view());
  EXPECT_EQ(schema.fds().size(), 1u);
  EXPECT_EQ(schema.ids().size(), 1u);
  const rel::ViewDef* reachable = schema.FindView("Reachable");
  ASSERT_NE(reachable, nullptr);
  EXPECT_EQ(reachable->definition.disjuncts.size(), 2u);
}

TEST(SchemaParserTest, FdAttributesByNameOrIndex) {
  ASSERT_OK_AND_ASSIGN(rel::Schema by_name,
                       ParseSchema("relation R(a, b)\nfd R: a -> b"));
  ASSERT_OK_AND_ASSIGN(rel::Schema by_index,
                       ParseSchema("relation R(a, b)\nfd R: 0 -> 1"));
  EXPECT_EQ(by_name.fds()[0].lhs, by_index.fds()[0].lhs);
  EXPECT_EQ(by_name.fds()[0].rhs, by_index.fds()[0].rhs);
}

TEST(SchemaParserTest, ErrorsCarryLineNumbers) {
  auto result = ParseSchema("relation R(a, b)\nnonsense here");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(SchemaParserTest, RejectsUnknownRelationInFd) {
  EXPECT_FALSE(ParseSchema("fd R: a -> b").ok());
}

TEST(FactsParserTest, ParsesAndMaterializes) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  rel::Instance instance(&schema);
  ASSERT_OK(ParseFactsInto(kTravelFacts, &instance));
  EXPECT_EQ(instance.Relation("Cities").size(), 3u);
  EXPECT_TRUE(instance.Contains("Cities",
                                {Value("New York"), Value(8337000),
                                 Value("USA"), Value("N.America")}));
  ASSERT_OK(rel::MaterializeViews(&instance));
  EXPECT_TRUE(instance.Contains("BigCity", {Value("New York")}));
  EXPECT_FALSE(instance.Contains("BigCity", {Value("Amsterdam")}));
}

TEST(FactsParserTest, RejectsViewFacts) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  rel::Instance instance(&schema);
  Status st = ParseFactsInto("BigCity(Tokyo)", &instance);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("view"), std::string::npos);
}

TEST(FactsParserTest, RejectsArityMismatch) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  rel::Instance instance(&schema);
  EXPECT_FALSE(ParseFactsInto("Cities(Amsterdam)", &instance).ok());
}

// --- queries -----------------------------------------------------------------

TEST(QueryParserTest, ParsesTwoHopQuery) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  ASSERT_OK_AND_ASSIGN(
      rel::UnionQuery q,
      ParseQuery("q(x, y) := Train-Connections(x, z), Train-Connections(z, y)",
                 schema));
  ASSERT_EQ(q.disjuncts.size(), 1u);
  EXPECT_EQ(q.arity(), 2u);
  EXPECT_EQ(q.disjuncts[0].atoms.size(), 2u);

  // The parsed query evaluates like the programmatic one.
  rel::Instance instance(&schema);
  ASSERT_OK(ParseFactsInto(kTravelFacts, &instance));
  ASSERT_OK_AND_ASSIGN(std::vector<Tuple> answers,
                       rel::Evaluate(q, instance));
  EXPECT_TRUE(std::binary_search(answers.begin(), answers.end(),
                                 Tuple{Value("Amsterdam"), Value("Rome")}) ==
              false);
  EXPECT_TRUE(std::binary_search(answers.begin(), answers.end(),
                                 Tuple{Value("Amsterdam"), Value("Amsterdam")}));
}

TEST(QueryParserTest, UnionAndComparisons) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  ASSERT_OK_AND_ASSIGN(
      rel::UnionQuery q,
      ParseQuery("q(x) := Cities(x, p, c, k), p >= 1000000 | BigCity(x)",
                 schema));
  EXPECT_EQ(q.disjuncts.size(), 2u);
  EXPECT_EQ(q.disjuncts[0].comparisons.size(), 1u);
}

TEST(QueryParserTest, QuotedConstantsInAtoms) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  ASSERT_OK_AND_ASSIGN(
      rel::UnionQuery q,
      ParseQuery("q(x) := Cities(x, p, \"USA\", k)", schema));
  EXPECT_FALSE(q.disjuncts[0].atoms[0].args[2].is_var());
  EXPECT_EQ(q.disjuncts[0].atoms[0].args[2].constant(), Value("USA"));
}

TEST(QueryParserTest, RejectsUnknownRelation) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  EXPECT_FALSE(ParseQuery("q(x) := NoSuch(x)", schema).ok());
}

// --- TBox / mappings / ABox --------------------------------------------------

TEST(TBoxParserTest, ParsesFigure4TBox) {
  ASSERT_OK_AND_ASSIGN(dl::TBox tbox, ParseTBox(R"(
concept EU-City <= City
Dutch-City <= EU-City            # keyword optional
concept EU-City <= not N.A.-City
concept City <= exists hasCountry
concept exists hasCountry^- <= Country
role connected <= travels
role P <= not Q^-
)"));
  EXPECT_EQ(tbox.concept_axioms().size(), 5u);
  EXPECT_EQ(tbox.role_axioms().size(), 2u);
  dl::Reasoner reasoner(&tbox);
  EXPECT_TRUE(reasoner.Subsumed(dl::BasicConcept::Atomic("Dutch-City"),
                                dl::BasicConcept::Atomic("City")));
  EXPECT_TRUE(reasoner.Disjoint(dl::BasicConcept::Atomic("Dutch-City"),
                                dl::BasicConcept::Atomic("N.A.-City")));
  EXPECT_TRUE(reasoner.RoleSubsumed(dl::Role{"connected", false},
                                    dl::Role{"travels", false}));
  EXPECT_TRUE(
      reasoner.RoleDisjoint(dl::Role{"P", false}, dl::Role{"Q", true}));
}

TEST(TBoxParserTest, InverseOnLeftSide) {
  ASSERT_OK_AND_ASSIGN(dl::TBox tbox,
                       ParseTBox("concept exists P^- <= A"));
  ASSERT_EQ(tbox.concept_axioms().size(), 1u);
  EXPECT_EQ(tbox.concept_axioms()[0].lhs.role.inverse, true);
}

TEST(MappingParserTest, ParsesFigure4Mappings) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  ASSERT_OK_AND_ASSIGN(auto mappings, ParseMappings(R"(
Cities(x, z, w, "Europe") -> EU-City(x)
Cities(x, k, y, w) -> hasCountry(x, y)
)",
                                                    schema));
  ASSERT_EQ(mappings.size(), 2u);
  EXPECT_EQ(mappings[0].head.kind, obda::MappingHead::Kind::kConcept);
  EXPECT_EQ(mappings[1].head.kind, obda::MappingHead::Kind::kRole);
  EXPECT_EQ(mappings[0].atoms[0].args[3].constant(), Value("Europe"));
}

TEST(MappingParserTest, RejectsHeadVariableNotInBody) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  EXPECT_FALSE(ParseMappings("Cities(x, y, z, w) -> EU-City(q)", schema).ok());
}

TEST(AboxParserTest, ParsesAssertions) {
  ASSERT_OK_AND_ASSIGN(dl::ABox abox, ParseAbox(R"(
EU-City(Amsterdam)
connected(Amsterdam, Berlin)
connected("New York", "San Francisco")
)"));
  EXPECT_EQ(abox.NumAssertions(), 3u);
  EXPECT_EQ(abox.Individuals().size(), 4u);
}

TEST(TupleParserTest, WithAndWithoutParens) {
  ASSERT_OK_AND_ASSIGN(Tuple a, ParseTuple("(Amsterdam, \"New York\")"));
  ASSERT_OK_AND_ASSIGN(Tuple b, ParseTuple("Amsterdam, \"New York\""));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[1], Value("New York"));
  ASSERT_OK_AND_ASSIGN(Tuple c, ParseTuple("(42)"));
  EXPECT_EQ(c, Tuple{Value(42)});
}

// --- end-to-end: parsed artifacts reproduce Example 4.5 ----------------------

TEST(TextIntegrationTest, ParsedObdaPipelineReproducesExample45) {
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, ParseSchema(kTravelSchema));
  rel::Instance instance(&schema);
  ASSERT_OK(ParseFactsInto(R"(
Cities(Amsterdam, 779808, Netherlands, Europe)
Cities(Berlin, 3502000, Germany, Europe)
Cities(Rome, 2753000, Italy, Europe)
Cities("New York", 8337000, USA, N.America)
Cities("San Francisco", 837442, USA, N.America)
Cities("Santa Cruz", 59946, USA, N.America)
Cities(Tokyo, 13185000, Japan, Asia)
Cities(Kyoto, 1400000, Japan, Asia)
Train-Connections(Amsterdam, Berlin)
Train-Connections(Berlin, Rome)
Train-Connections(Berlin, Amsterdam)
Train-Connections("New York", "San Francisco")
Train-Connections("San Francisco", "Santa Cruz")
Train-Connections(Tokyo, Kyoto)
)",
                           &instance));
  ASSERT_OK(rel::MaterializeViews(&instance));
  ASSERT_OK_AND_ASSIGN(dl::TBox tbox, ParseTBox(R"(
concept EU-City <= City
concept Dutch-City <= EU-City
concept N.A.-City <= City
concept EU-City <= not N.A.-City
concept US-City <= N.A.-City
)"));
  ASSERT_OK_AND_ASSIGN(auto mappings, ParseMappings(R"(
Cities(x, z, w, "Europe") -> EU-City(x)
Cities(x, z, "Netherlands", w) -> Dutch-City(x)
Cities(x, z, w, "N.America") -> N.A.-City(x)
Cities(x, z, "USA", w) -> US-City(x)
)",
                                                    schema));
  obda::ObdaSpec spec(std::move(tbox), &schema, std::move(mappings));
  ASSERT_OK(spec.Validate());
  obda::ObdaInducedOntology ontology(&spec);
  onto::BoundOntology bound(&ontology, &instance);
  ASSERT_OK_AND_ASSIGN(
      rel::UnionQuery q,
      ParseQuery("q(x, y) := Train-Connections(x, z), Train-Connections(z, y)",
                 schema));
  ASSERT_OK_AND_ASSIGN(
      explain::WhyNotInstance wni,
      explain::MakeWhyNotInstance(&instance, q, {"Amsterdam", "New York"}));
  ASSERT_OK_AND_ASSIGN(std::vector<explain::Explanation> mges,
                       explain::PrunedSearchAllMge(&bound, wni));
  std::set<std::string> rendered;
  for (const explain::Explanation& e : mges) {
    rendered.insert(explain::ExplanationToString(bound, e));
  }
  EXPECT_TRUE(rendered.count("(EU-City, N.A.-City)") > 0)
      << "Example 4.5's most-general explanation missing";
}

// --- DOT export ---------------------------------------------------------------

TEST(DotExportTest, RendersHasseDiagramWithHighlights) {
  ASSERT_OK_AND_ASSIGN(auto ontology, workload::CitiesOntology());
  ASSERT_OK_AND_ASSIGN(rel::Schema schema, workload::CitiesDataSchema());
  ASSERT_OK_AND_ASSIGN(rel::Instance instance,
                       workload::CitiesInstance(&schema));
  onto::BoundOntology bound(ontology.get(), &instance);
  text::DotOptions options;
  options.highlight = {0};
  std::string dot = text::OntologyToDot(&bound, options);
  EXPECT_NE(dot.find("digraph ontology"), std::string::npos);
  EXPECT_NE(dot.find("rankdir=BT"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Balanced braces, one node per concept class at most.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(DotExportTest, EscapesQuotes) {
  EXPECT_EQ(text::DotEscape("a\"b\\c"), "a\\\"b\\\\c");
}

}  // namespace
}  // namespace whynot
