#include "whynot/relational/instance.h"

#include <algorithm>

namespace whynot::rel {

// --- StoredRelation --------------------------------------------------------

uint64_t StoredRelation::HashIds(const std::vector<ValueId>& row) {
  uint64_t h = 1469598103934665603ull;
  for (ValueId id : row) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(id));
    h *= 1099511628211ull;
  }
  return h;
}

bool StoredRelation::RowEquals(uint32_t row,
                               const std::vector<ValueId>& ids) const {
  for (size_t a = 0; a < columns_.size(); ++a) {
    if (columns_[a][row] != ids[a]) return false;
  }
  return true;
}

bool StoredRelation::InsertRow(const std::vector<ValueId>& row) {
  std::vector<uint32_t>& bucket = row_hash_[HashIds(row)];
  for (uint32_t r : bucket) {
    if (RowEquals(r, row)) return false;
  }
  for (size_t a = 0; a < columns_.size(); ++a) {
    columns_[a].push_back(row[a]);
  }
  bucket.push_back(static_cast<uint32_t>(num_rows_++));
  // Built indexes stay valid for their row prefix; the appended suffix is
  // merged in on next access (MergeAppendedRows), not rebuilt from scratch.
  return true;
}

bool StoredRelation::ContainsRow(const std::vector<ValueId>& row) const {
  auto it = row_hash_.find(HashIds(row));
  if (it == row_hash_.end()) return false;
  for (uint32_t r : it->second) {
    if (RowEquals(r, row)) return true;
  }
  return false;
}

void StoredRelation::Clear() {
  num_rows_ = 0;
  for (std::vector<ValueId>& col : columns_) col.clear();
  row_hash_.clear();
  tuple_view_.clear();
  InvalidateIndexes();
}

void StoredRelation::InvalidateIndexes() const {
  std::fill(index_built_.begin(), index_built_.end(), false);
  std::fill(index_rows_.begin(), index_rows_.end(), 0);
}

void StoredRelation::MergeAppendedRows(size_t attr) const {
  ColumnIndex& ix = indexes_[attr];
  const std::vector<ValueId>& col = columns_[attr];
  std::vector<std::pair<ValueId, uint32_t>> pairs;
  pairs.reserve(col.size() - index_rows_[attr]);
  for (size_t r = index_rows_[attr]; r < col.size(); ++r) {
    pairs.emplace_back(col[r], static_cast<uint32_t>(r));
  }
  std::sort(pairs.begin(), pairs.end());

  // One pass over the appended keys: the old keys and row groups between
  // two of them are copied as whole stretches, their offsets shifted by
  // the rows inserted so far. Within a group old rows precede new ones
  // (both ascending), so posting lists stay sorted by row id.
  ColumnIndex merged;
  merged.keys.reserve(ix.keys.size() + pairs.size());
  merged.offsets.reserve(ix.keys.size() + pairs.size() + 1);
  merged.rows.reserve(ix.rows.size() + pairs.size());
  merged.distinct = std::move(ix.distinct);
  uint32_t shift = 0;
  size_t k = 0;  // old keys [0, k) are copied
  auto copy_old = [&](size_t end) {
    merged.keys.insert(merged.keys.end(), ix.keys.begin() + k,
                       ix.keys.begin() + end);
    for (size_t i = k; i < end; ++i) {
      merged.offsets.push_back(ix.offsets[i] + shift);
    }
    merged.rows.insert(merged.rows.end(), ix.rows.begin() + ix.offsets[k],
                       ix.rows.begin() + ix.offsets[end]);
    k = end;
  };
  for (size_t p = 0; p < pairs.size();) {
    ValueId key = pairs[p].first;
    size_t at = static_cast<size_t>(
        std::lower_bound(ix.keys.begin() + k, ix.keys.end(), key) -
        ix.keys.begin());
    if (at < ix.keys.size() && ix.keys[at] == key) {
      copy_old(at + 1);
    } else {
      copy_old(at);
      merged.keys.push_back(key);
      merged.offsets.push_back(static_cast<uint32_t>(merged.rows.size()));
      merged.distinct.Set(key);
    }
    for (; p < pairs.size() && pairs[p].first == key; ++p) {
      merged.rows.push_back(pairs[p].second);
      ++shift;
    }
  }
  copy_old(ix.keys.size());
  merged.offsets.push_back(static_cast<uint32_t>(merged.rows.size()));
  ix = std::move(merged);
  index_rows_[attr] = col.size();
}

const StoredRelation::ColumnIndex& StoredRelation::Index(size_t attr) const {
  ColumnIndex& ix = indexes_[attr];
  if (!index_built_[attr]) {
    const std::vector<ValueId>& col = columns_[attr];
    std::vector<std::pair<ValueId, uint32_t>> pairs;
    pairs.reserve(col.size());
    for (size_t r = 0; r < col.size(); ++r) {
      pairs.emplace_back(col[r], static_cast<uint32_t>(r));
    }
    std::sort(pairs.begin(), pairs.end());
    ix.keys.clear();
    ix.offsets.clear();
    ix.rows.clear();
    ix.rows.reserve(pairs.size());
    for (const auto& [id, row] : pairs) {
      if (ix.keys.empty() || ix.keys.back() != id) {
        ix.keys.push_back(id);
        ix.offsets.push_back(static_cast<uint32_t>(ix.rows.size()));
      }
      ix.rows.push_back(row);
    }
    ix.offsets.push_back(static_cast<uint32_t>(ix.rows.size()));
    ix.distinct = DenseBitmap(ix.keys);
    index_built_[attr] = true;
    index_rows_[attr] = col.size();
  } else if (index_rows_[attr] < num_rows_) {
    MergeAppendedRows(attr);
  }
  return ix;
}

size_t StoredRelation::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const std::vector<ValueId>& col : columns_) {
    bytes += col.capacity() * sizeof(ValueId);
  }
  bytes += row_hash_.bucket_count() * sizeof(void*);
  for (const auto& [hash, bucket] : row_hash_) {
    bytes += sizeof(hash) + sizeof(bucket) +
             bucket.capacity() * sizeof(uint32_t);
  }
  for (size_t a = 0; a < indexes_.size(); ++a) {
    bytes += sizeof(ColumnIndex);
    if (index_built_[a]) bytes += indexes_[a].MemoryBytes();
  }
  for (const Tuple& t : tuple_view_) {
    bytes += sizeof(Tuple) + t.capacity() * sizeof(Value);
  }
  return bytes;
}

std::pair<const uint32_t*, const uint32_t*> StoredRelation::RowsEqual(
    size_t attr, ValueId id) const {
  const ColumnIndex& ix = Index(attr);
  auto it = std::lower_bound(ix.keys.begin(), ix.keys.end(), id);
  if (it == ix.keys.end() || *it != id) {
    return {nullptr, nullptr};
  }
  size_t k = static_cast<size_t>(it - ix.keys.begin());
  return {ix.rows.data() + ix.offsets[k], ix.rows.data() + ix.offsets[k + 1]};
}

// --- Instance --------------------------------------------------------------

Instance::Instance(const Schema* schema) : schema_(schema) {}

Instance::Instance(const Instance& other)
    : schema_(other.schema_),
      pool_(other.pool_.Clone()),
      store_(other.store_),
      store_index_(other.store_index_),
      refcount_(other.refcount_),
      version_(other.version_),
      generation_(other.generation_),
      adom_dirty_(true) {}

Instance& Instance::operator=(const Instance& other) {
  if (this != &other) *this = Instance(other);
  return *this;
}

Instance& Instance::operator=(Instance&& other) noexcept {
  if (this == &other) return *this;
  // The new version must differ from anything an observer of *this may
  // have recorded AND reflect the source's mutation history.
  uint64_t bumped = std::max(version_, other.version_) + 1;
  uint64_t generation = std::max(generation_, other.generation_) + 1;
  schema_ = other.schema_;
  pool_ = std::move(other.pool_);
  store_ = std::move(other.store_);
  store_index_ = std::move(other.store_index_);
  refcount_ = std::move(other.refcount_);
  adom_values_ = std::move(other.adom_values_);
  adom_ids_ = std::move(other.adom_ids_);
  adom_dirty_ = other.adom_dirty_;
  scratch_row_ = std::move(other.scratch_row_);
  version_ = bumped;
  generation_ = generation;
  return *this;
}

StoredRelation* Instance::RelationFor(const std::string& relation,
                                      size_t arity) {
  auto it = store_index_.find(relation);
  if (it != store_index_.end()) return &store_[it->second];
  store_index_.emplace(relation, store_.size());
  store_.emplace_back(arity);
  return &store_.back();
}

void Instance::BumpRef(ValueId id) {
  if (static_cast<size_t>(id) >= refcount_.size()) {
    refcount_.resize(static_cast<size_t>(pool_.size()), 0);
  }
  if (refcount_[static_cast<size_t>(id)]++ == 0) adom_dirty_ = true;
}

void Instance::DropRef(ValueId id) {
  if (--refcount_[static_cast<size_t>(id)] == 0) adom_dirty_ = true;
}

Status Instance::AddFact(const std::string& relation, Tuple tuple) {
  const RelationDef* def = schema_->Find(relation);
  if (def == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  if (def->arity() != tuple.size()) {
    return Status::InvalidArgument(
        "fact " + relation + TupleToString(tuple) + " has arity " +
        std::to_string(tuple.size()) + ", relation expects " +
        std::to_string(def->arity()));
  }
  scratch_row_.clear();
  for (const Value& v : tuple) scratch_row_.push_back(pool_.Intern(v));
  StoredRelation* rel = RelationFor(relation, def->arity());
  if (rel->InsertRow(scratch_row_)) {
    for (ValueId id : scratch_row_) BumpRef(id);
    ++version_;
  }
  return Status::OK();
}

Status Instance::AddFactIds(const std::string& relation,
                            const std::vector<ValueId>& row) {
  const RelationDef* def = schema_->Find(relation);
  if (def == nullptr) {
    return Status::NotFound("unknown relation '" + relation + "'");
  }
  if (def->arity() != row.size()) {
    return Status::InvalidArgument(
        "id fact for " + relation + " has arity " +
        std::to_string(row.size()) + ", relation expects " +
        std::to_string(def->arity()));
  }
  for (ValueId id : row) {
    if (id < 0 || id >= pool_.size()) {
      return Status::InvalidArgument("id fact for " + relation +
                                     " references an id outside the pool");
    }
  }
  StoredRelation* rel = RelationFor(relation, def->arity());
  if (rel->InsertRow(row)) {
    for (ValueId id : row) BumpRef(id);
    ++version_;
  }
  return Status::OK();
}

void Instance::Reserve(const std::string& relation, size_t extra_rows) {
  const RelationDef* def = schema_->Find(relation);
  if (def == nullptr) return;
  StoredRelation* rel = RelationFor(relation, def->arity());
  for (std::vector<ValueId>& col : rel->columns_) {
    col.reserve(rel->num_rows_ + extra_rows);
  }
}

bool Instance::Contains(const std::string& relation,
                        const Tuple& tuple) const {
  auto it = store_index_.find(relation);
  if (it == store_index_.end()) return false;
  const StoredRelation& rel = store_[it->second];
  if (rel.arity() != tuple.size()) return false;
  std::vector<ValueId> row;
  row.reserve(tuple.size());
  for (const Value& v : tuple) {
    ValueId id = pool_.Lookup(v);
    if (id < 0) return false;
    row.push_back(id);
  }
  return rel.ContainsRow(row);
}

const StoredRelation* Instance::Find(const std::string& relation) const {
  auto it = store_index_.find(relation);
  return it == store_index_.end() ? nullptr : &store_[it->second];
}

const std::vector<Tuple>& Instance::Relation(
    const std::string& relation) const {
  auto it = store_index_.find(relation);
  if (it == store_index_.end()) return empty_;
  const StoredRelation& rel = store_[it->second];
  // Rows only ever grow between Clears, so the cached view is extended by
  // the missing suffix.
  while (rel.tuple_view_.size() < rel.num_rows_) {
    size_t r = rel.tuple_view_.size();
    Tuple t;
    t.reserve(rel.arity());
    for (size_t a = 0; a < rel.arity(); ++a) {
      t.push_back(pool_.Get(rel.At(r, a)));
    }
    rel.tuple_view_.push_back(std::move(t));
  }
  return rel.tuple_view_;
}

size_t Instance::NumFacts() const {
  size_t n = 0;
  for (const StoredRelation& rel : store_) n += rel.num_rows();
  return n;
}

void Instance::ClearRelation(const std::string& relation) {
  auto it = store_index_.find(relation);
  if (it == store_index_.end()) return;
  StoredRelation& rel = store_[it->second];
  if (!rel.empty()) {
    ++version_;
    ++generation_;
  }
  for (const std::vector<ValueId>& col : rel.columns_) {
    for (ValueId id : col) DropRef(id);
  }
  rel.Clear();
}

void Instance::EnsureActiveDomain() const {
  if (!adom_dirty_) return;
  adom_values_.clear();
  adom_ids_.clear();
  for (ValueId id : pool_.SortedIds()) {
    if (static_cast<size_t>(id) < refcount_.size() &&
        refcount_[static_cast<size_t>(id)] > 0) {
      adom_ids_.push_back(id);
      adom_values_.push_back(pool_.Get(id));
    }
  }
  adom_dirty_ = false;
}

const std::vector<Value>& Instance::ActiveDomain() const {
  EnsureActiveDomain();
  return adom_values_;
}

const std::vector<ValueId>& Instance::ActiveDomainIds() const {
  EnsureActiveDomain();
  return adom_ids_;
}

void Instance::WarmForConcurrentReads() const {
  pool_.SortedIds();  // also builds the rank array Rank() reads
  EnsureActiveDomain();
  for (const auto& [name, idx] : store_index_) {
    const StoredRelation& rel = store_[idx];
    // Boxed tuple view: an external ontology's caller-supplied ExtFns
    // may read it.
    Relation(name);
    for (size_t a = 0; a < rel.arity(); ++a) rel.Index(a);
  }
}

size_t Instance::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  bytes += static_cast<size_t>(pool_.size()) * (sizeof(Value) + sizeof(ValueId));
  for (const StoredRelation& rel : store_) bytes += rel.MemoryBytes();
  bytes += refcount_.capacity() * sizeof(int64_t);
  bytes += adom_values_.capacity() * sizeof(Value);
  bytes += adom_ids_.capacity() * sizeof(ValueId);
  return bytes;
}

Status Instance::SatisfiesConstraints() const {
  std::string violation;
  for (const FunctionalDependency& fd : schema_->fds()) {
    if (!SatisfiesFd(*this, fd, &violation)) {
      return Status::InvalidArgument("FD violated: " + violation);
    }
  }
  for (const InclusionDependency& id : schema_->ids()) {
    if (!SatisfiesId(*this, id, &violation)) {
      return Status::InvalidArgument("ID violated: " + violation);
    }
  }
  return Status::OK();
}

std::string Instance::ToString() const {
  std::string out;
  for (const RelationDef& def : schema_->relations()) {
    const std::vector<Tuple>& tuples = Relation(def.name());
    if (tuples.empty()) continue;
    out += def.ToString() + ":\n";
    for (const Tuple& t : tuples) {
      out += "  " + TupleToString(t) + "\n";
    }
  }
  return out;
}

}  // namespace whynot::rel
