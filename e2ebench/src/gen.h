// The benchmark's own seeded input generators. They produce plain rows and
// concept descriptions; the workloads turn them into library objects and
// the checkers read them directly. Same seed, same inputs.
#ifndef E2EBENCH_GEN_H_
#define E2EBENCH_GEN_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "whynot/common/value.h"

namespace e2e {

using whynot::Tuple;
using whynot::Value;

/// A layered multi-parent ontology with fixed extensions and a 3-ary
/// answer set. Every concept contains the pinned values, so a missing
/// tuple over them has the whole lattice as each position's candidates.
struct LatticeInputs {
  std::vector<std::string> names;          // "L<level>_<i>", root "L0_0"
  std::vector<std::vector<int>> parents;   // declared direct subsumers
  std::vector<std::vector<Value>> ext;     // sorted
  std::vector<Tuple> answers;              // sorted, duplicate-free
  std::vector<Tuple> missing;              // over pinned values, not answers
  std::vector<Tuple> present;              // answers asked about by Why
};
LatticeInputs GenLattice(uint64_t seed, bool tiny);

/// The retail scenario of the paper's introduction at scale: no
/// California store stocks headsets, plus seeded holes. Each category and
/// each region also has a unary relation of its members, so selection-free
/// LS can name "headsets" and "California stores".
struct RetailInputs {
  std::vector<Tuple> products;     // (pid, category)
  std::vector<Tuple> stores;       // (sid, city, region)
  std::map<std::string, std::vector<Tuple>> groups;  // "Cat_x" / "Region_y"
  std::vector<Tuple> stock;        // (pid, sid)
  std::vector<Tuple> missing;      // request tuples, never written
  std::vector<Tuple> present;      // stocked pairs asked about by Why
  std::vector<Tuple> write_facts;  // holes the writes fill, in order
};
RetailInputs GenRetail(uint64_t seed, bool tiny);

/// The travel world of Figure 1 at scale with the DL-Lite_R description of
/// Figure 4's shape: one concept per country and per continent, country ⊑
/// continent ⊑ City, disjoint continents, and the hasCountry /
/// hasContinent / connected roles.
struct TravelInputs {
  std::vector<std::string> continents;
  std::vector<std::pair<std::string, std::string>> countries;  // (name, continent)
  std::vector<Tuple> cities;       // (name, population, country, continent)
  std::vector<Tuple> connections;  // (city_from, city_to)
  std::vector<Tuple> missing;      // pairs that are never 2-hop connected
  std::vector<Tuple> present;      // 2-hop connected pairs of the base rows
  std::vector<Tuple> write_facts;  // connections the writes add, in order
};
TravelInputs GenTravel(uint64_t seed, bool tiny);

/// Basic-concept keys of the travel TBox: "Name" for an atomic concept,
/// "E:role" for ∃role and "E:role^-" for ∃role⁻.
std::string CountryConcept(const std::string& country);
std::string ContinentConcept(const std::string& continent);

/// The travel TBox as the checkers see it: positive inclusions and
/// disjoint pairs between basic-concept keys.
struct TravelTBoxSpec {
  std::vector<std::pair<std::string, std::string>> inclusions;
  std::vector<std::pair<std::string, std::string>> disjoint;
};
TravelTBoxSpec TravelTBox(const TravelInputs& in);

/// Certain members of every basic concept of the travel TBox over the given
/// rows: the mapped facts closed under the TBox's positive inclusions.
/// Existential witnesses are anonymous and never become members.
std::map<std::string, std::set<Value>> TravelCertainMembers(
    const TravelInputs& in, const std::vector<Tuple>& cities,
    const std::vector<Tuple>& connections);

/// T ⊨ a ⊑ b for every pair of keys (reflexive-transitive closure of the
/// positive inclusions; an unsatisfiable key is below everything).
std::map<std::string, std::set<std::string>> TravelSubsumers(
    const TravelTBoxSpec& spec, const std::vector<std::string>& keys);

/// q(x, y) = ∃z. TC(x, z) ∧ TC(z, y), sorted.
std::vector<Tuple> TwoHop(const std::vector<Tuple>& connections);

}  // namespace e2e

#endif  // E2EBENCH_GEN_H_
