#include "whynot/concepts/concept_cache.h"

#include <algorithm>
#include <functional>
#include <string>

#include "whynot/common/algorithm.h"

namespace whynot::ls {
namespace {

inline size_t Mix(size_t h, size_t x) {
  // Boost-style hash combine; good enough for shard striping and bucket
  // placement.
  return h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

// Approximate heap bytes of a support key (its value and signature
// vectors).
size_t KeyBytes(const SupportKey& key) {
  return key.values.capacity() * sizeof(Value) +
         key.sig.capacity() * sizeof(uint64_t);
}

// Approximate heap bytes of a concept's conjunct list (relation-name and
// selection storage folded into a flat per-conjunct estimate).
size_t ConceptBytes(const LsConcept& c) {
  size_t bytes = sizeof(LsConcept);
  for (const Conjunct& cj : c.conjuncts()) {
    bytes += sizeof(Conjunct) + cj.relation.capacity() +
             cj.selections.capacity() * sizeof(Selection);
  }
  return bytes;
}

// Fixed per-published-entry overhead: the shared_ptr control block and
// the hash-map node the ShardedPublishCache stores it in.
constexpr size_t kNodeOverhead = 4 * sizeof(void*);

}  // namespace

size_t SupportKeyHash::operator()(const SupportKey& key) const {
  size_t h = key.values.size();
  for (const Value& v : key.values) h = Mix(h, v.Hash());
  // Signature bits cluster in the low columns; the multiply spreads them
  // over the shard and bucket bits.
  for (uint64_t w : key.sig) h = Mix(h, w * 0x9e3779b97f4a7c15ull);
  return h;
}

size_t ConceptHash::operator()(const LsConcept& concept_expr) const {
  size_t h = concept_expr.conjuncts().size();
  for (const Conjunct& cj : concept_expr.conjuncts()) {
    h = Mix(h, static_cast<size_t>(cj.kind));
    switch (cj.kind) {
      case Conjunct::Kind::kTop:
        break;
      case Conjunct::Kind::kNominal:
        h = Mix(h, cj.nominal.Hash());
        break;
      case Conjunct::Kind::kProjection:
        h = Mix(h, std::hash<std::string>{}(cj.relation));
        h = Mix(h, static_cast<size_t>(cj.attr));
        for (const Selection& s : cj.selections) {
          h = Mix(h, static_cast<size_t>(s.attr));
          h = Mix(h, static_cast<size_t>(s.op));
          h = Mix(h, s.constant.Hash());
        }
        break;
    }
  }
  return h;
}

ConceptCache::ConceptCache(const rel::Instance* instance,
                           ConceptCacheOptions options)
    : instance_(instance),
      options_(options),
      support_free_(options.shards),
      support_sel_(options.shards),
      evals_(options.shards) {}

const ConceptCache::Entry* ConceptCache::FindSupport(
    bool with_selections, const SupportKey& key) const {
  return tier(with_selections).Find(key);
}

std::shared_ptr<const Extension> ConceptCache::FindEval(
    const LsConcept& concept_expr) const {
  return evals_.FindShared(concept_expr);
}

void ConceptCache::Publish(ConceptCacheOverlay* overlay) {
  ConceptCacheStats& os = overlay->stats_;
  stats_.shared_hits += os.shared_hits;
  stats_.local_hits += os.local_hits;
  stats_.misses += os.misses;
  os = ConceptCacheStats{};

  // Eval tier first: its extensions carry the bulk of the bytes, and the
  // support entries below alias them by shared_ptr, so the extension is
  // accounted exactly once.
  for (const auto* node : overlay->pending_evals_) {
    const LsConcept& concept_expr = node->first;
    const std::shared_ptr<const Extension>& ext = node->second;
    ext->Freeze();
    size_t entry_bytes =
        ext->MemoryBytes() + ConceptBytes(concept_expr) + kNodeOverhead;
    if (options_.max_bytes != 0 && bytes_ + entry_bytes > options_.max_bytes) {
      ++stats_.evictions;
      continue;
    }
    if (evals_.Publish(concept_expr, ext)) {
      bytes_ += entry_bytes;
      ++stats_.publishes;
    }
  }
  SupportTier& support = tier(overlay->with_selections_);
  for (const auto* node : overlay->pending_support_) {
    const SupportKey& key = node->first;
    const std::shared_ptr<const Entry>& entry = node->second;
    entry->ext->Freeze();
    size_t entry_bytes = KeyBytes(key) + ConceptBytes(entry->concept) +
                         sizeof(Entry) + kNodeOverhead;
    if (options_.max_bytes != 0 && bytes_ + entry_bytes > options_.max_bytes) {
      ++stats_.evictions;
      continue;
    }
    if (support.Publish(key, entry)) {
      bytes_ += entry_bytes;
      ++stats_.publishes;
    }
  }
  overlay->pending_evals_.clear();
  overlay->pending_support_.clear();
}

void ConceptCache::Clear() {
  stats_.evictions += size();
  support_free_.Clear();
  support_sel_.Clear();
  evals_.Clear();
  bytes_ = 0;
}

size_t ConceptCache::size() const {
  return support_free_.size() + support_sel_.size() + evals_.size();
}

size_t ConceptCache::MemoryBytes() const {
  return bytes_ + support_free_.MemoryBytes() + support_sel_.MemoryBytes() +
         evals_.MemoryBytes();
}

ConceptCacheOverlay::ConceptCacheOverlay(ConceptCache* shared,
                                         bool with_selections, LubContext* lub,
                                         EvalCache* conjunct_eval)
    : shared_(shared),
      with_selections_(with_selections),
      lub_(lub),
      conjunct_eval_(conjunct_eval) {
  if (conjunct_eval_ == nullptr) {
    own_eval_.emplace(&shared->instance());
    conjunct_eval_ = &*own_eval_;
  }
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

const ConceptCacheOverlay::LocalEvalMap::value_type*
ConceptCacheOverlay::EvalThroughTiers(const LsConcept& concept_expr) {
  // The extension tier is keyed by the concept, so distinct support sets
  // in one lub class share a single Extension object. Local map first:
  // within one search most candidate lubs collapse onto concepts this
  // overlay has already evaluated, and either copy of a pure value is
  // interchangeable. One hash: try_emplace both probes and claims the
  // slot, and a published hit is memoized into it so repeat probes stay
  // local.
  auto [it, inserted] = local_evals_.try_emplace(concept_expr);
  if (inserted) {
    if (!shared_->evals_.empty()) {
      it->second = shared_->FindEval(concept_expr);
    }
    if (it->second == nullptr) {
      // Mirrors EvalCache::Eval bit for bit: intersect conjunct extensions
      // in canonical order with the same early-empty break.
      Extension value = Extension::All();
      for (const Conjunct& c : concept_expr.conjuncts()) {
        value = value.Intersect(conjunct_eval_->EvalConjunct(c));
        if (value.empty()) break;
      }
      it->second = std::make_shared<const Extension>(std::move(value));
      pending_evals_.push_back(&*it);
    }
  }
  return &*it;
}

Result<const ConceptCache::Entry*> ConceptCacheOverlay::LubAndEval(
    const SupportKey& key) {
  // Hits dominate (sweep candidates recur across nodes and requests), so
  // a hit costs one hash and no key copy; a miss copies the key once.
  auto it = local_.find(key);
  if (it != local_.end()) {
    ++stats_.local_hits;
    return it->second.get();
  }
  // The emptiness probe keeps a cold cache's miss path near-free: size_
  // only moves at serial points, so during a wave it reads a constant,
  // and skipping the lookup saves hashing the key against the tier.
  std::shared_ptr<const ConceptCache::Entry> entry;
  if (!shared_->tier(with_selections_).empty()) {
    entry = shared_->tier(with_selections_).FindShared(key);
  }
  bool computed = entry == nullptr;
  if (computed) {
    ++stats_.misses;
    // Box-cap errors pass through uncached.
    WHYNOT_ASSIGN_OR_RETURN(LsConcept concept_expr, LubOfKey(key));
    std::shared_ptr<const Extension> ext =
        EvalThroughTiers(concept_expr)->second;
    entry = std::make_shared<const ConceptCache::Entry>(
        ConceptCache::Entry{std::move(concept_expr), std::move(ext)});
  } else {
    // Memoized locally (repeat probes become one-hash local hits); the
    // address handed out stays the published one, so identity keying
    // is unaffected.
    ++stats_.shared_hits;
  }
  it = local_.emplace(key, std::move(entry)).first;
  if (computed) pending_support_.push_back(&*it);
  return it->second.get();
}

Result<std::shared_ptr<const Extension>> ConceptCacheOverlay::LubExtTransient(
    const SupportKey& key) {
  last_local_ = nullptr;
  last_shared_ = nullptr;
  last_eval_node_ = nullptr;
  if (!with_selections_) {
    WHYNOT_ASSIGN_OR_RETURN(last_local_, LubAndEval(key));
    return last_local_->ext;
  }
  if (!local_.empty()) {
    auto it = local_.find(key);
    if (it != local_.end()) {
      ++stats_.local_hits;
      last_local_ = it->second.get();
      return it->second->ext;
    }
  }
  if (!shared_->tier(with_selections_).empty()) {
    if (auto e = shared_->tier(with_selections_).FindShared(key)) {
      ++stats_.shared_hits;
      last_shared_ = std::move(e);
      return last_shared_->ext;
    }
  }
  ++stats_.misses;
  Result<LsConcept> lub = LubOfKey(key);
  if (!lub.ok()) return lub.status();
  last_eval_node_ = EvalThroughTiers(std::move(lub).value());
  return last_eval_node_->second;
}

const ConceptCache::Entry* ConceptCacheOverlay::PromoteLastProbe(
    const SupportKey& key) {
  // Already in the local support map: nothing to record.
  if (last_local_ != nullptr) return last_local_;
  // The entry value matches what a fresh LubAndEval of the same key would
  // build: same concept value, same eval-tier extension address.
  auto [it, inserted] = local_.try_emplace(key);
  if (inserted) {
    if (last_shared_ != nullptr) {
      // Memoize the published entry locally, keeping its address.
      it->second = std::move(last_shared_);
    } else {
      it->second = std::make_shared<const ConceptCache::Entry>(
          ConceptCache::Entry{last_eval_node_->first,
                              last_eval_node_->second});
      pending_support_.push_back(&*it);
    }
  }
  return it->second.get();
}

}  // namespace whynot::ls
