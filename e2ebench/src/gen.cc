#include "gen.h"

#include <algorithm>
#include <iterator>

#include "common.h"

namespace e2e {

namespace {

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// Up to `n` distinct elements of `pool`, in seeded order.
std::vector<Tuple> Pick(std::vector<Tuple> pool, size_t n, Rng* rng) {
  Shuffle(&pool, rng);
  if (pool.size() > n) pool.resize(n);
  return pool;
}

}  // namespace

// --- deep lattice ------------------------------------------------------------

LatticeInputs GenLattice(uint64_t seed, bool tiny) {
  const int depth = tiny ? 3 : 6;
  const int width = tiny ? 3 : 4;
  const int fan_in = 2;
  const int64_t domain = tiny ? 24 : 40;
  const int64_t pinned = tiny ? 2 : 4;
  const size_t num_answers = tiny ? 40 : 50;
  // Few requests per binding, so every run cycles through all of them.
  const size_t num_requests = tiny ? 3 : 4;
  Rng rng(seed * 1000003 + 11);

  LatticeInputs in;
  std::vector<Value> all;
  for (int64_t v = 0; v < domain; ++v) all.emplace_back(v);
  in.names.push_back("L0_0");
  in.parents.emplace_back();
  in.ext.push_back(all);
  std::vector<int> previous = {0};
  // The shape is fixed: concept i of a level has parents i and i+1 of the
  // level above. The seed draws which values each concept drops; the
  // count it keeps is fixed too (9/10 of its parents' intersection, pinned
  // values always kept), so seeds change the instance, not its size.
  for (int level = 1; level <= depth; ++level) {
    std::vector<int> current;
    for (int i = 0; i < width; ++i) {
      std::vector<int> ps;
      for (int k = 0; k < fan_in && k < static_cast<int>(previous.size()); ++k) {
        ps.push_back(previous[(static_cast<size_t>(i + k)) % previous.size()]);
      }
      std::vector<Value> both, droppable;
      for (const Value& v : in.ext[static_cast<size_t>(ps[0])]) {
        bool in_all = true;
        for (size_t k = 1; k < ps.size() && in_all; ++k) {
          const std::vector<Value>& o = in.ext[static_cast<size_t>(ps[k])];
          in_all = std::binary_search(o.begin(), o.end(), v);
        }
        if (!in_all) continue;
        both.push_back(v);
        if (v.AsInt() >= pinned) droppable.push_back(v);
      }
      Shuffle(&droppable, &rng);
      droppable.resize(droppable.size() / 10);
      std::sort(droppable.begin(), droppable.end());
      std::vector<Value> ext;
      std::set_difference(both.begin(), both.end(), droppable.begin(),
                          droppable.end(), std::back_inserter(ext));
      in.names.push_back("L" + std::to_string(level) + "_" + std::to_string(i));
      in.parents.push_back(ps);
      in.ext.push_back(std::move(ext));
      current.push_back(static_cast<int>(in.names.size() - 1));
    }
    previous = std::move(current);
  }

  // Answers draw from the upper half of the domain, away from the pinned
  // values: concepts that thin answer-heavy values away then pass high in
  // the lattice, and an MGE found near the top dominates its downset.
  std::set<Tuple> answers;
  while (answers.size() < num_answers) {
    Tuple t;
    for (int i = 0; i < 3; ++i) {
      t.emplace_back(static_cast<int64_t>(domain / 2 + rng.Below(domain - domain / 2)));
    }
    answers.insert(std::move(t));
  }
  in.answers.assign(answers.begin(), answers.end());
  std::vector<Tuple> pinned_missing;
  for (int64_t a = 0; a < pinned; ++a) {
    for (int64_t b = 0; b < pinned; ++b) {
      for (int64_t c = 0; c < pinned; ++c) {
        Tuple t = {Value(a), Value(b), Value(c)};
        if (answers.count(t) == 0) pinned_missing.push_back(std::move(t));
      }
    }
  }
  in.missing = Pick(std::move(pinned_missing), num_requests, &rng);
  in.present = Pick(in.answers, num_requests, &rng);
  return in;
}

// --- retail ------------------------------------------------------------------

RetailInputs GenRetail(uint64_t seed, bool tiny) {
  Rng rng(seed * 1000003 + 23);
  std::vector<std::string> categories = {"headset", "speaker", "laptop",
                                         "phone",   "tablet",  "camera"};
  struct City {
    const char* name;
    const char* region;
  };
  std::vector<City> cities = {
      {"San Francisco", "California"}, {"Oakland", "California"},
      {"San Jose", "California"},      {"Los Angeles", "California"},
      {"Seattle", "Washington"},       {"Tacoma", "Washington"},
      {"Portland", "Oregon"},          {"Eugene", "Oregon"},
      {"Reno", "Nevada"}};
  if (tiny) {
    categories.resize(3);
    cities = {{"San Francisco", "California"},
              {"Oakland", "California"},
              {"Seattle", "Washington"}};
  }
  const int per_category = tiny ? 3 : 20;
  const int per_city = tiny ? 2 : 4;
  const size_t num_requests = tiny ? 3 : 64;
  const size_t num_writes = tiny ? 3 : 16;

  RetailInputs in;
  for (const std::string& cat : categories) {
    for (int i = 0; i < per_category; ++i) {
      in.products.push_back({Value("P-" + cat + "-" + std::to_string(i)),
                             Value(cat)});
      in.groups["Cat_" + cat].push_back({in.products.back()[0]});
    }
  }
  for (const City& c : cities) {
    for (int i = 0; i < per_city; ++i) {
      in.stores.push_back({Value("S-" + std::string(c.name) + "-" +
                                 std::to_string(i)),
                           Value(c.name), Value(c.region)});
      in.groups["Region_" + std::string(c.region)].push_back({in.stores.back()[0]});
    }
  }
  // Exactly one pair in 20 (1 in 6 when tiny) outside the headset hole is
  // left unstocked; the seed picks which.
  std::vector<Tuple> headset_holes, others;
  for (const Tuple& p : in.products) {
    for (const Tuple& s : in.stores) {
      Tuple pair = {p[0], s[0]};
      if (p[1] == Value("headset") && s[2] == Value("California")) {
        headset_holes.push_back(std::move(pair));
      } else {
        others.push_back(std::move(pair));
      }
    }
  }
  Shuffle(&others, &rng);
  size_t num_holes = others.size() / (tiny ? 6 : 20);
  std::vector<Tuple> seeded_holes(others.begin(), others.begin() + num_holes);
  in.stock.assign(others.begin() + num_holes, others.end());
  size_t w = std::min(num_writes, seeded_holes.size() / 2);
  in.write_facts.assign(seeded_holes.begin(), seeded_holes.begin() + w);
  std::vector<Tuple> other_holes(seeded_holes.begin() + w, seeded_holes.end());
  std::vector<Tuple> a = Pick(headset_holes, num_requests / 2, &rng);
  std::vector<Tuple> b = Pick(other_holes, num_requests - a.size(), &rng);
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i < a.size()) in.missing.push_back(a[i]);
    if (i < b.size()) in.missing.push_back(b[i]);
  }
  in.present = Pick(in.stock, num_requests, &rng);
  std::sort(in.stock.begin(), in.stock.end());
  return in;
}

// --- travel ------------------------------------------------------------------

std::string CountryConcept(const std::string& country) {
  return country + "-City";
}
std::string ContinentConcept(const std::string& continent) {
  return continent + "-City";
}

std::vector<Tuple> TwoHop(const std::vector<Tuple>& connections) {
  std::map<Value, std::vector<Value>> out;
  for (const Tuple& c : connections) out[c[0]].push_back(c[1]);
  std::set<Tuple> ans;
  for (const Tuple& c : connections) {
    auto it = out.find(c[1]);
    if (it == out.end()) continue;
    for (const Value& y : it->second) ans.insert({c[0], y});
  }
  return std::vector<Tuple>(ans.begin(), ans.end());
}

TravelInputs GenTravel(uint64_t seed, bool tiny) {
  Rng rng(seed * 1000003 + 37);
  std::vector<std::string> continents = {"Europe", "Asia", "N.America",
                                         "Africa"};
  if (tiny) continents.resize(2);
  const int countries_per = tiny ? 2 : 4;
  const int cities_per = tiny ? 2 : 5;
  const size_t num_requests = tiny ? 3 : 128;
  const size_t num_writes = tiny ? 2 : 8;

  TravelInputs in;
  in.continents = continents;
  std::vector<std::vector<std::vector<Value>>> by_country(continents.size());
  for (size_t j = 0; j < continents.size(); ++j) {
    for (int k = 0; k < countries_per; ++k) {
      std::string country = continents[j] + "-K" + std::to_string(k);
      in.countries.emplace_back(country, continents[j]);
      std::vector<Value> names;
      for (int i = 0; i < cities_per; ++i) {
        std::string name = "c" + std::to_string(j) + "." + std::to_string(k) +
                           "." + std::to_string(i);
        int64_t population =
            10000 + static_cast<int64_t>(rng.Below(9000000));
        in.cities.push_back(
            {Value(name), Value(population), Value(country), Value(continents[j])});
        names.emplace_back(name);
      }
      by_country[j].push_back(std::move(names));
    }
  }
  // The rail network is fixed: a line through each country's cities, one
  // line from each country to the next in its continent, one from each
  // continent to the next, and one shortcut per country. The seed draws
  // populations, the lines the writes add, and the pairs asked about.
  std::set<Tuple> edges;
  for (size_t j = 0; j < continents.size(); ++j) {
    for (size_t k = 0; k < by_country[j].size(); ++k) {
      const std::vector<Value>& cs = by_country[j][k];
      for (size_t i = 0; i + 1 < cs.size(); ++i) edges.insert({cs[i], cs[i + 1]});
      edges.insert({cs.back(), cs.front()});
      const std::vector<Value>& next = by_country[j][(k + 1) % by_country[j].size()];
      edges.insert({cs.back(), next.front()});
    }
    const auto& other = by_country[(j + 1) % continents.size()];
    edges.insert({by_country[j][0][0], other[0][0]});
  }
  in.connections.assign(edges.begin(), edges.end());

  std::vector<Value> all_cities;
  for (const Tuple& c : in.cities) all_cities.push_back(c[0]);
  // The writes open fixed express lines: from the last city of country k
  // to the second city of the same continent's country k + 1.
  for (size_t j = 0; j < continents.size() && in.write_facts.size() < num_writes; ++j) {
    for (size_t k = 0; k < by_country[j].size() && in.write_facts.size() < num_writes; ++k) {
      const auto& to = by_country[j][(k + 1) % by_country[j].size()];
      Tuple e = {by_country[j][k].back(), to[1 % to.size()]};
      if (edges.insert(e).second) in.write_facts.push_back(std::move(e));
    }
  }
  // Missing pairs stay missing after every write; present pairs are
  // answers of the base rows, and writes only add answers.
  std::vector<Tuple> ever = TwoHop(std::vector<Tuple>(edges.begin(), edges.end()));
  std::set<Tuple> ever_set(ever.begin(), ever.end());
  std::set<Tuple> missing;
  while (missing.size() < num_requests) {
    Tuple t = {all_cities[rng.Below(all_cities.size())],
               all_cities[rng.Below(all_cities.size())]};
    if (ever_set.count(t) == 0) missing.insert(std::move(t));
  }
  in.missing.assign(missing.begin(), missing.end());
  Shuffle(&in.missing, &rng);
  in.present = Pick(TwoHop(in.connections), num_requests, &rng);
  return in;
}

TravelTBoxSpec TravelTBox(const TravelInputs& in) {
  TravelTBoxSpec t;
  for (const std::string& c : in.continents) {
    t.inclusions.emplace_back(ContinentConcept(c), "City");
  }
  for (const auto& [country, continent] : in.countries) {
    t.inclusions.emplace_back(CountryConcept(country),
                              ContinentConcept(continent));
  }
  for (size_t a = 0; a < in.continents.size(); ++a) {
    for (size_t b = a + 1; b < in.continents.size(); ++b) {
      t.disjoint.emplace_back(ContinentConcept(in.continents[a]),
                              ContinentConcept(in.continents[b]));
    }
  }
  t.inclusions.emplace_back("City", "E:hasCountry");
  t.inclusions.emplace_back("E:hasCountry^-", "Country");
  t.inclusions.emplace_back("Country", "E:hasContinent");
  t.inclusions.emplace_back("E:hasContinent^-", "Continent");
  t.inclusions.emplace_back("E:connected", "City");
  t.inclusions.emplace_back("E:connected^-", "City");
  return t;
}

std::map<std::string, std::set<std::string>> TravelSubsumers(
    const TravelTBoxSpec& spec, const std::vector<std::string>& keys) {
  std::map<std::string, std::set<std::string>> up;
  for (const std::string& k : keys) {
    std::set<std::string>& seen = up[k];
    std::vector<std::string> stack = {k};
    seen.insert(k);
    while (!stack.empty()) {
      std::string x = stack.back();
      stack.pop_back();
      for (const auto& [sub, super] : spec.inclusions) {
        if (sub == x && seen.insert(super).second) stack.push_back(super);
      }
    }
  }
  for (const std::string& k : keys) {
    bool unsat = false;
    for (const auto& [a, b] : spec.disjoint) {
      unsat = unsat || (up[k].count(a) > 0 && up[k].count(b) > 0);
    }
    if (unsat) up[k].insert(keys.begin(), keys.end());
  }
  return up;
}

std::map<std::string, std::set<Value>> TravelCertainMembers(
    const TravelInputs& in, const std::vector<Tuple>& cities,
    const std::vector<Tuple>& connections) {
  std::map<std::string, std::set<Value>> asserted;
  std::set<Value> city_names;
  std::set<std::string> countries, continents(in.continents.begin(),
                                              in.continents.end());
  for (const auto& c : in.countries) countries.insert(c.first);
  for (const Tuple& r : cities) {
    city_names.insert(r[0]);
    if (countries.count(r[2].AsString()) > 0) {
      asserted[CountryConcept(r[2].AsString())].insert(r[0]);
    }
    if (continents.count(r[3].AsString()) > 0) {
      asserted[ContinentConcept(r[3].AsString())].insert(r[0]);
    }
    asserted["Continent"].insert(r[3]);
    asserted["E:hasCountry"].insert(r[0]);
    asserted["E:hasCountry^-"].insert(r[2]);
    asserted["E:hasContinent"].insert(r[0]);
    asserted["E:hasContinent^-"].insert(r[3]);
  }
  for (const Tuple& c : connections) {
    if (city_names.count(c[0]) > 0 && city_names.count(c[1]) > 0) {
      asserted["E:connected"].insert(c[0]);
      asserted["E:connected^-"].insert(c[1]);
    }
  }
  TravelTBoxSpec spec = TravelTBox(in);
  std::vector<std::string> keys;
  for (const auto& [k, members] : asserted) keys.push_back(k);
  for (const auto& [a, b] : spec.inclusions) {
    keys.push_back(a);
    keys.push_back(b);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::map<std::string, std::set<std::string>> up = TravelSubsumers(spec, keys);
  std::map<std::string, std::set<Value>> certain;
  for (const std::string& k : keys) certain[k];
  for (const auto& [k, members] : asserted) {
    for (const std::string& super : up[k]) {
      certain[super].insert(members.begin(), members.end());
    }
  }
  return certain;
}

}  // namespace e2e
