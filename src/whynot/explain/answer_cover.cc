#include "whynot/explain/answer_cover.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "whynot/common/algorithm.h"

namespace whynot::explain {

// ---- ConceptAnswerCovers --------------------------------------------------

ConceptAnswerCovers::ConceptAnswerCovers(
    onto::BoundOntology* bound, std::vector<std::vector<ValueId>> answers)
    : bound_(bound),
      answers_(std::move(answers)),
      num_words_((answers_.size() + 63) / 64) {
  full_.assign(num_words_, ~uint64_t{0});
  size_t rest = answers_.size() % 64;
  if (num_words_ > 0 && rest != 0) {
    full_.back() = (uint64_t{1} << rest) - 1;
  }
}

const uint64_t* ConceptAnswerCovers::BuildCover(onto::ConceptId c,
                                                size_t pos) {
  size_t n = static_cast<size_t>(bound_->NumConcepts());
  if (pos >= chunks_.size()) {
    chunks_.resize(pos + 1);
    built_.resize(pos + 1);
  }
  if (built_[pos].empty()) {
    chunks_[pos].resize((n + kChunkConcepts - 1) / kChunkConcepts);
    built_[pos].assign(n, 0);
  }
  size_t idx = static_cast<size_t>(c);
  std::vector<uint64_t>& chunk = chunks_[pos][idx / kChunkConcepts];
  if (chunk.empty()) chunk.assign(kChunkConcepts * num_words_, 0);
  uint64_t* slot = chunk.data() + (idx % kChunkConcepts) * num_words_;
  const onto::ExtSet& ext = bound_->Ext(c);
  if (ext.is_all()) {
    std::copy(full_.begin(), full_.end(), slot);
  } else {
    for (size_t a = 0; a < answers_.size(); ++a) {
      if (ext.Contains(answers_[a][pos])) {
        slot[a / 64] |= uint64_t{1} << (a % 64);
      }
    }
  }
  built_[pos][idx] = 1;
  return slot;
}

std::vector<uint64_t> ConceptAnswerCovers::AndAllExcept(
    const std::vector<onto::ConceptId>& e, size_t skip) {
  std::vector<uint64_t> out = full_;
  for (size_t i = 0; i < e.size(); ++i) {
    if (i == skip) continue;
    DenseBitmap::AndWordsInPlace(out.data(), Cover(e[i], i), out.size());
  }
  return out;
}

bool ConceptAnswerCovers::ProductIntersects(
    const std::vector<onto::ConceptId>& e) {
  if (answers_.empty() || e.empty()) return false;
  // Word-outer AND over the (equally sized) covers: no scratch writes.
  scratch_rows_.clear();
  for (size_t i = 0; i < e.size(); ++i) scratch_rows_.push_back(Cover(e[i], i));
  return ProductAny(e.size(), num_words_,
                    [this](size_t i) { return scratch_rows_[i]; });
}

size_t ConceptAnswerCovers::CountCovered(
    const std::vector<onto::ConceptId>& e) {
  if (answers_.empty() || e.empty()) return 0;
  scratch_rows_.clear();
  for (size_t i = 0; i < e.size(); ++i) scratch_rows_.push_back(Cover(e[i], i));
  return ProductCount(e.size(), num_words_,
                      [this](size_t i) { return scratch_rows_[i]; });
}

bool ConceptAnswerCovers::ProductInside(
    const std::vector<onto::ConceptId>& e) {
  return ProductInside(
      e.size(), num_answers(),
      [&](size_t i) {
        const onto::ExtSet& ext = bound_->Ext(e[i]);
        return ExtSize{ext.is_all(), ext.size()};
      },
      [&] { return CountCovered(e); });
}

size_t ConceptAnswerCovers::MemoryBytes() const {
  size_t bytes = sizeof(*this) + full_.capacity() * sizeof(uint64_t) +
                 scratch_rows_.capacity() * sizeof(const uint64_t*);
  for (const auto& pos_chunks : chunks_) {
    bytes += pos_chunks.capacity() * sizeof(std::vector<uint64_t>);
    for (const auto& chunk : pos_chunks) {
      bytes += chunk.capacity() * sizeof(uint64_t);
    }
  }
  for (const auto& b : built_) bytes += b.capacity();
  return bytes;
}

// ---- LsAnswerCovers -------------------------------------------------------

LsAnswerCovers::LsAnswerCovers(const rel::Instance* instance,
                               const std::vector<Tuple>* answers)
    : answers_(answers),
      pool_(&instance->pool()),
      full_(DenseBitmap::AllSet(static_cast<int32_t>(answers->size()))) {
  size_t arity = answers_->empty() ? 0 : answers_->front().size();
  postings_.resize(arity);
  // Every answer is new to the empty postings, in place.
  std::vector<size_t> all(answers_->size());
  std::iota(all.begin(), all.end(), size_t{0});
  std::vector<ValueId> ids(answers_->size());
  for (size_t pos = 0; pos < arity; ++pos) {
    for (size_t a = 0; a < ids.size(); ++a) {
      ids[a] = pool_->Lookup((*answers_)[a][pos]);
    }
    MergePostings(&postings_[pos], ids, all, /*moved=*/{});
  }
}

void LsAnswerCovers::MergePostings(Postings* p, const std::vector<ValueId>& ids,
                                   const std::vector<size_t>& added,
                                   const std::vector<uint32_t>& moved) {
  // Old indices past an insertion move up (with no old answers, `moved`
  // is never read).
  for (uint32_t& a : p->answers) a = moved[a];
  for (uint32_t& a : p->foreign) a = moved[a];

  // Non-interned new answers go to `fresh_foreign`; the others are
  // grouped by id, by a stable counting sort over the range of their ids
  // (indices stay ascending within an id): fresh[k] holds id lo + v for k
  // in [first[v], first[v + 1]).
  ValueId lo = -1;
  ValueId hi = -1;
  std::vector<uint32_t> fresh_foreign;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0) {
      fresh_foreign.push_back(static_cast<uint32_t>(added[i]));
      continue;
    }
    lo = lo < 0 ? ids[i] : std::min(lo, ids[i]);
    hi = std::max(hi, ids[i]);
  }
  if (lo >= 0) {
    const size_t range = static_cast<size_t>(hi - lo) + 1;
    std::vector<uint32_t> first(range + 1, 0);
    for (ValueId id : ids) {
      if (id >= 0) ++first[static_cast<size_t>(id - lo) + 1];
    }
    for (size_t v = 0; v < range; ++v) first[v + 1] += first[v];
    std::vector<uint32_t> fresh(first[range]);
    {
      std::vector<uint32_t> cursor(first.begin(), first.end() - 1);
      for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] >= 0) {
          fresh[cursor[static_cast<size_t>(ids[i] - lo)]++] =
              static_cast<uint32_t>(added[i]);
        }
      }
    }
    const size_t old_bound = p->offsets.empty() ? 0 : p->offsets.size() - 1;
    const size_t bound = std::max(old_bound, static_cast<size_t>(hi) + 1);
    // Ids past the old bound hold no old answers. Exact growth: resize
    // alone would double the capacity for one new id.
    p->offsets.reserve(bound + 1);
    p->offsets.resize(bound + 1, static_cast<uint32_t>(p->answers.size()));
    // Each new index goes into its id's run, before the first larger old
    // index; `at` holds the merged positions, ascending.
    std::vector<size_t> at(fresh.size());
    for (size_t v = 0; v < range; ++v) {
      const size_t id = static_cast<size_t>(lo) + v;
      for (uint32_t k = first[v]; k < first[v + 1]; ++k) {
        at[k] = static_cast<size_t>(
                    std::lower_bound(p->answers.begin() + p->offsets[id],
                                     p->answers.begin() + p->offsets[id + 1],
                                     fresh[k]) -
                    p->answers.begin()) +
                k;
      }
    }
    InsertAtPositions(&p->answers, at, [&](size_t k) { return fresh[k]; });
    // Every run past the smallest new id starts past the new entries of
    // the smaller ids.
    for (size_t id = static_cast<size_t>(lo) + 1; id <= bound; ++id) {
      const size_t v = id - static_cast<size_t>(lo);
      p->offsets[id] += v < range ? first[v] : first[range];
    }
  }
  const size_t old_foreign = p->foreign.size();
  p->foreign.insert(p->foreign.end(), fresh_foreign.begin(),
                    fresh_foreign.end());
  std::inplace_merge(p->foreign.begin(),
                     p->foreign.begin() + static_cast<ptrdiff_t>(old_foreign),
                     p->foreign.end());
}

namespace {

/// Moves bits [from, from + len) of `w` up by `by`, from the top word
/// down, so every source bit is read before a write can reach it. Bits
/// outside the destination range keep their values.
void MoveBitsUp(uint64_t* w, size_t from, size_t len, size_t by) {
  if (len == 0) return;
  const size_t bottom = from + by;
  const size_t top = bottom + len;
  // Destination bits [lo, hi) of one word.
  auto piece = [w, by](size_t lo, size_t hi) {
    const size_t src = lo - by;
    const size_t sw = src / 64;
    const size_t sb = src % 64;
    const size_t take = hi - lo;
    uint64_t bits = w[sw] >> sb;
    if (sb + take > 64) bits |= w[sw + 1] << (64 - sb);
    const uint64_t mask =
        (take == 64 ? ~uint64_t{0} : (uint64_t{1} << take) - 1) << (lo % 64);
    w[lo / 64] = (w[lo / 64] & ~mask) | ((bits << (lo % 64)) & mask);
  };
  const size_t lo_word = bottom / 64;
  const size_t hi_word = (top - 1) / 64;
  if (lo_word == hi_word) {
    piece(bottom, top);
    return;
  }
  piece(hi_word * 64, top);
  // Whole words: word j takes source bits [64j - by, 64j - by + 64).
  const size_t q = by / 64;
  const size_t r = by % 64;
  if (r == 0) {
    for (size_t j = hi_word - 1; j > lo_word; --j) w[j] = w[j - q];
  } else {
    for (size_t j = hi_word - 1; j > lo_word; --j) {
      w[j] = (w[j - q] << r) | (w[j - q - 1] >> (64 - r));
    }
  }
  piece(bottom, (lo_word + 1) * 64);
}

/// Inserts zero bits into `row` (over `old_bits` answers) at the merged
/// positions `added` (ascending), in place: the old bits between
/// insertions i - 1 and i move up by i, the top stretch first.
void InsertZeroBits(std::vector<uint64_t>* row, size_t old_bits,
                    const std::vector<size_t>& added) {
  const size_t words = (old_bits + added.size() + 63) / 64;
  row->reserve(words);  // exact growth: resize alone may double it
  row->resize(words, 0);
  uint64_t* w = row->data();
  for (size_t i = added.size(); i > 0; --i) {
    const size_t begin = added[i - 1] - (i - 1);
    const size_t end = i < added.size() ? added[i] - i : old_bits;
    MoveBitsUp(w, begin, end - begin, i);
    w[added[i - 1] / 64] &= ~(uint64_t{1} << (added[i - 1] % 64));
  }
}

}  // namespace

std::vector<size_t> LsAnswerCovers::MergeAnswers(
    const std::vector<std::vector<ValueId>>& delta,
    std::vector<Tuple>* answers) {
  assert(answers == answers_);
  std::vector<size_t> added;
  if (delta.empty()) return added;
  const size_t width = delta.front().size();
  const size_t old_size = answers->size();
  // Old answer a before delta row d in the Value order, which is the
  // answers' order and the pool's rank order.
  auto less = [&](const Tuple& a, const std::vector<ValueId>& d) {
    for (size_t pos = 0; pos < width; ++pos) {
      const Value& x = a[pos];
      const Value& y = pool_->Get(d[pos]);
      if (x < y) return true;
      if (y < x) return false;
    }
    return false;
  };
  // Each delta row's lower bound among the old answers; the rows are
  // sorted, so the bounds never go back. A row found there is an answer
  // already; a new one lands at its bound plus the new rows before it.
  std::vector<const std::vector<ValueId>*> fresh;
  size_t lo = 0;
  for (const std::vector<ValueId>& row : delta) {
    lo = static_cast<size_t>(
        std::lower_bound(answers->begin() + static_cast<ptrdiff_t>(lo),
                         answers->end(), row, less) -
        answers->begin());
    bool present = lo < old_size;
    for (size_t pos = 0; present && pos < width; ++pos) {
      present = (*answers)[lo][pos] == pool_->Get(row[pos]);
    }
    if (present) continue;
    added.push_back(lo + fresh.size());
    fresh.push_back(&row);
  }
  if (added.empty()) return added;
  InsertAtPositions(answers, added, [&](size_t a) {
    Tuple t;
    t.reserve(width);
    for (ValueId id : *fresh[a]) t.push_back(pool_->Get(id));
    return t;
  });
  // moved[a]: the merged index of old answer a, past the i new answers
  // placed before it (new answer i went before old answer added[i] - i).
  std::vector<uint32_t> moved(old_size);
  for (size_t a = 0, i = 0; i <= added.size(); ++i) {
    const size_t end = i < added.size() ? added[i] - i : old_size;
    for (; a < end; ++a) moved[a] = static_cast<uint32_t>(a + i);
  }
  postings_.resize(width);
  std::vector<ValueId> ids(fresh.size());
  for (size_t pos = 0; pos < width; ++pos) {
    for (size_t i = 0; i < fresh.size(); ++i) ids[i] = (*fresh[i])[pos];
    MergePostings(&postings_[pos], ids, added, moved);
  }
  // Each cached row: the old bits shifted, a new answer's bit set where
  // the row's extension holds its value.
  for (auto& [key, row] : covers_) {
    InsertZeroBits(&row, old_size, added);
    const ls::Extension& ext = *key.first;
    for (size_t i = 0; i < fresh.size(); ++i) {
      const ValueId id = (*fresh[i])[key.second];
      if (ext.ContainsInterned(id, pool_->Get(id))) {
        row[added[i] / 64] |= uint64_t{1} << (added[i] % 64);
      }
    }
  }
  full_ = DenseBitmap::AllSet(static_cast<int32_t>(answers->size()));
  return added;
}

const uint64_t* LsAnswerCovers::Cover(const ls::Extension& ext, size_t pos) {
  if (ext.all) return full_.words().data();
  auto key = std::make_pair(&ext, pos);
  auto it = covers_.find(key);
  if (it == covers_.end()) {
    // The ids index this pool's postings; a pool-less extension holds
    // only extras.
    assert(ext.pool() == nullptr || ext.pool() == pool_);
    std::vector<uint64_t> cover(full_.num_words(), 0);
    auto set = [&cover](uint32_t a) {
      cover[a / 64] |= uint64_t{1} << (a % 64);
    };
    const Postings& p = postings_[pos];
    auto add_posting = [&](ValueId id) {
      if (id < 0 || static_cast<size_t>(id) + 1 >= p.offsets.size()) return;
      for (uint32_t k = p.offsets[static_cast<size_t>(id)];
           k < p.offsets[static_cast<size_t>(id) + 1]; ++k) {
        set(p.answers[k]);
      }
    };
    for (ValueId id : ext.ids()) add_posting(id);
    const std::vector<Value>& extras = ext.extras();
    if (!extras.empty()) {
      // An extra the pool has interned since the extension was built
      // still matches the answers that hold it
      // (Extension::ContainsInterned).
      for (const Value& v : extras) add_posting(pool_->Lookup(v));
      for (uint32_t a : p.foreign) {
        if (std::binary_search(extras.begin(), extras.end(),
                               (*answers_)[a][pos])) {
          set(a);
        }
      }
    }
    it = covers_.emplace(key, std::move(cover)).first;
  }
  return it->second.data();
}

bool LsAnswerCovers::ProductIntersects(
    const std::vector<const ls::Extension*>& exts, size_t swap_pos,
    const ls::Extension* repl) {
  if (answers_->empty() || exts.empty()) return false;
  scratch_rows_.clear();
  for (size_t i = 0; i < exts.size(); ++i) {
    scratch_rows_.push_back(Cover(i == swap_pos ? *repl : *exts[i], i));
  }
  return ConceptAnswerCovers::ProductAny(
      exts.size(), full_.num_words(),
      [this](size_t i) { return scratch_rows_[i]; });
}

size_t LsAnswerCovers::CountCovered(
    const std::vector<const ls::Extension*>& exts, size_t swap_pos,
    const ls::Extension* repl) {
  if (answers_->empty() || exts.empty()) return 0;
  scratch_rows_.clear();
  for (size_t i = 0; i < exts.size(); ++i) {
    scratch_rows_.push_back(Cover(i == swap_pos ? *repl : *exts[i], i));
  }
  return ConceptAnswerCovers::ProductCount(
      exts.size(), full_.num_words(),
      [this](size_t i) { return scratch_rows_[i]; });
}

bool LsAnswerCovers::ProductInside(
    const std::vector<const ls::Extension*>& exts, size_t swap_pos,
    const ls::Extension* repl) {
  auto ext_at = [&](size_t i) -> const ls::Extension& {
    return i == swap_pos ? *repl : *exts[i];
  };
  return ConceptAnswerCovers::ProductInside(
      exts.size(), num_answers(),
      [&](size_t i) {
        const ls::Extension& e = ext_at(i);
        return ExtSize{e.all, e.CardinalityOrInfinite()};
      },
      [&] { return CountCovered(exts, swap_pos, repl); });
}

size_t LsAnswerCovers::MemoryBytes() const {
  size_t bytes =
      sizeof(*this) + scratch_rows_.capacity() * sizeof(const uint64_t*);
  bytes += full_.MemoryBytes() - sizeof(DenseBitmap);
  bytes += postings_.capacity() * sizeof(Postings);
  for (const Postings& p : postings_) {
    bytes += (p.offsets.capacity() + p.answers.capacity() +
              p.foreign.capacity()) *
             sizeof(uint32_t);
  }
  bytes += covers_.bucket_count() * sizeof(void*);
  for (const auto& [key, cover] : covers_) {
    bytes += sizeof(key) + sizeof(cover) + cover.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace whynot::explain
