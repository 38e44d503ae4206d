#include "whynot/concepts/concept_cache.h"

#include <algorithm>
#include <utility>

#include "whynot/common/algorithm.h"

namespace whynot::ls {
namespace {

// Approximate heap bytes of a support key (its value and signature
// vectors).
size_t KeyBytes(const SupportKey& key) {
  return key.values.capacity() * sizeof(Value) +
         key.sig.capacity() * sizeof(uint64_t);
}

// Per-node overhead of a hash map entry beyond its value: the next
// pointer and the cached hash code.
constexpr size_t kNodeOverhead = 2 * sizeof(void*);

}  // namespace

size_t SupportKeyHash::operator()(const SupportKey& key) const {
  size_t h = key.values.size();
  for (const Value& v : key.values) h = HashMix(h, v.Hash());
  // Signature bits cluster in the low columns; the multiply spreads them
  // over the bucket bits.
  for (uint64_t w : key.sig) h = HashMix(h, w * 0x9e3779b97f4a7c15ull);
  return h;
}

const ConceptCache::Entry* ConceptCache::FindSupport(
    bool with_selections, const SupportKey& key) const {
  const SupportMap& map = support(with_selections);
  auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

void ConceptCache::Clear() {
  support_free_.clear();
  support_sel_.clear();
  evals_.Clear();
}

size_t ConceptCache::size() const {
  return support_free_.size() + support_sel_.size() + evals_.size();
}

size_t ConceptCache::SupportBytes() const {
  size_t bytes = sizeof(*this) - sizeof(evals_);
  for (const SupportMap* map : {&support_free_, &support_sel_}) {
    for (const auto& node : *map) {
      bytes += sizeof(node) + KeyBytes(node.first) + kNodeOverhead;
    }
    bytes += map->bucket_count() * sizeof(void*);
  }
  return bytes;
}

size_t ConceptCache::MemoryBytes() const {
  return SupportBytes() + evals_.MemoryBytes();
}

SupportKey ConceptCacheOverlay::KeyOf(const std::vector<Value>& x) const {
  std::vector<Value> sorted_x = x;
  SortUnique(&sorted_x);
  SupportKey key;
  if (with_selections_) {
    key.values = std::move(sorted_x);
    return key;
  }
  key.sig = lub_->SignatureOf(sorted_x);
  if (sorted_x.size() == 1) key.values = std::move(sorted_x);
  return key;
}

SupportKey ConceptCacheOverlay::KeyOfExtension(const Extension& ext) const {
  if (with_selections_) return SupportKey{ext.values(), {}};
  SupportKey key;
  const size_t words = lub_->SignatureWords();
  // A member outside the pool holds no column: the signature is empty.
  key.sig.assign(words, ext.extras().empty() ? ~uint64_t{0} : 0);
  for (ValueId id : ext.ids()) {
    const uint64_t* sv = lub_->Signature(id);
    for (size_t w = 0; w < words; ++w) key.sig[w] &= sv[w];
  }
  if (ext.ids().size() + ext.extras().size() == 1) {
    key.values = {ext.ids().empty() ? ext.extras().front()
                                    : ext.pool()->Get(ext.ids().front())};
  }
  return key;
}

void ConceptCacheOverlay::Extend(const SupportKey& x, const Value& b,
                                 ValueId b_id, SupportKey* out) const {
  if (with_selections_) {
    out->values = x.values;
    auto pos = std::lower_bound(out->values.begin(), out->values.end(), b);
    if (pos == out->values.end() || *pos != b) out->values.insert(pos, b);
    out->sig.clear();
    return;
  }
  // |X ∪ {b}| ≥ 2 since b ∉ X: no nominal, sig(X) ∧ sig(b).
  out->values.clear();
  const uint64_t* sb = lub_->Signature(b_id);
  out->sig.resize(x.sig.size());
  for (size_t w = 0; w < x.sig.size(); ++w) out->sig[w] = x.sig[w] & sb[w];
}

Result<LsConcept> ConceptCacheOverlay::LubOfKey(const SupportKey& key) {
  if (with_selections_) return lub_->LubWithSelectionsSorted(key.values);
  return lub_->LubOfSignature(
      key.sig.data(), key.values.empty() ? nullptr : &key.values.front());
}

const ConceptCacheOverlay::EvalNode& ConceptCacheOverlay::EvalOf(
    LsConcept concept_expr) {
  // evals() is keyed by the concept, so distinct support sets in one lub
  // class share a single Extension object.
  EvalCache& evals = cache_->evals_;
  const size_t before = evals.size();
  const EvalNode& node = evals.EvalNode(std::move(concept_expr));
  cache_->stats_.publishes += evals.size() - before;
  return node;
}

const ConceptCache::Entry* ConceptCacheOverlay::Record(const SupportKey& key,
                                                       const EvalNode& node) {
  ++cache_->stats_.publishes;
  return &cache_->support(with_selections_)
              .emplace(key, ConceptCache::Entry{&node.first, &node.second})
              .first->second;
}

Result<const ConceptCache::Entry*> ConceptCacheOverlay::LubAndEval(
    const SupportKey& key) {
  // Hits dominate (sweep candidates recur across nodes and requests), so
  // a hit costs one hash and no key copy; a miss copies the key once.
  ConceptCache::SupportMap& support = cache_->support(with_selections_);
  auto it = support.find(key);
  if (it != support.end()) {
    ++cache_->stats_.shared_hits;
    return &it->second;
  }
  ++cache_->stats_.misses;
  // Box-cap errors pass through unrecorded.
  WHYNOT_ASSIGN_OR_RETURN(LsConcept concept_expr, LubOfKey(key));
  return Record(key, EvalOf(std::move(concept_expr)));
}

Result<const Extension*> ConceptCacheOverlay::LubExtTransient(
    const SupportKey& key) {
  last_entry_ = nullptr;
  last_eval_ = nullptr;
  if (!with_selections_) {
    WHYNOT_ASSIGN_OR_RETURN(last_entry_, LubAndEval(key));
    return last_entry_->ext;
  }
  if (const ConceptCache::Entry* hit = cache_->FindSupport(true, key)) {
    ++cache_->stats_.shared_hits;
    last_entry_ = hit;
    return hit->ext;
  }
  ++cache_->stats_.misses;
  WHYNOT_ASSIGN_OR_RETURN(LsConcept concept_expr, LubOfKey(key));
  last_eval_ = &EvalOf(std::move(concept_expr));
  return &last_eval_->second;
}

const ConceptCache::Entry* ConceptCacheOverlay::PromoteLastProbe(
    const SupportKey& key) {
  // Already recorded: nothing to do. Otherwise the entry matches what a
  // fresh LubAndEval of the same key would record: same concept value,
  // same evals() extension address.
  if (last_entry_ != nullptr) return last_entry_;
  return Record(key, *last_eval_);
}

}  // namespace whynot::ls
