#include "whynot/explain/answer_cover.h"

#include <algorithm>
#include <cassert>

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
  columns_.resize(arity);
  for (size_t pos = 0; pos < arity; ++pos) {
    columns_[pos].reserve(answers_->size());
    for (const Tuple& ans : *answers_) {
      columns_[pos].push_back(pool_->Lookup(ans[pos]));
    }
  }
}

std::vector<size_t> LsAnswerCovers::MergeAnswers(
    const std::vector<std::vector<ValueId>>& delta,
    std::vector<Tuple>* answers) {
  assert(answers == answers_);
  covers_.clear();
  std::vector<size_t> added;
  if (delta.empty()) return added;
  const size_t width = delta.front().size();
  const size_t old_size = answers->size();
  columns_.resize(width);
  // Old answer a before delta row d, in the Value order of the ranks.
  auto less = [&](size_t a, const std::vector<ValueId>& d) {
    for (size_t pos = 0; pos < width; ++pos) {
      ValueId id = columns_[pos][a];
      if (id != d[pos]) return pool_->Rank(id) < pool_->Rank(d[pos]);
    }
    return false;
  };
  // Each delta row's lower bound among the old answers; the rows are
  // sorted, so the bounds never go back. A row found there is an answer
  // already; a new one lands at its bound plus the new rows before it.
  std::vector<const std::vector<ValueId>*> fresh;
  size_t lo = 0;
  for (const std::vector<ValueId>& row : delta) {
    size_t hi = old_size;
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (less(mid, row)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bool present = lo < old_size;
    for (size_t pos = 0; present && pos < width; ++pos) {
      present = columns_[pos][lo] == row[pos];
    }
    if (present) continue;
    added.push_back(lo + fresh.size());
    fresh.push_back(&row);
  }
  InsertAtPositions(answers, added, [&](size_t a) {
    Tuple t;
    t.reserve(width);
    for (ValueId id : *fresh[a]) t.push_back(pool_->Get(id));
    return t;
  });
  for (size_t pos = 0; pos < width; ++pos) {
    // Exact growth: copying ids is cheap, and the columns stay as tight
    // as the constructor's. The boxed answers grow geometrically instead,
    // since relocating every tuple per merge is not.
    columns_[pos].reserve(columns_[pos].size() + added.size());
    InsertAtPositions(&columns_[pos], added,
                      [&](size_t a) { return (*fresh[a])[pos]; });
  }
  full_ = DenseBitmap::AllSet(static_cast<int32_t>(answers->size()));
  return added;
}

const uint64_t* LsAnswerCovers::Cover(const ls::Extension& ext, size_t pos) {
  if (ext.all) return full_.words().data();
  auto key = std::make_pair(&ext, pos);
  auto it = covers_.find(key);
  if (it == covers_.end()) {
    DenseBitmap cover({}, static_cast<int32_t>(answers_->size()));
    const std::vector<ValueId>& column = columns_[pos];
    for (size_t a = 0; a < column.size(); ++a) {
      if (ext.ContainsInterned(column[a], (*answers_)[a][pos])) {
        cover.Set(static_cast<ValueId>(a));
      }
    }
    it = covers_.emplace(key, std::move(cover)).first;
  }
  return it->second.words().data();
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
  for (const auto& col : columns_) bytes += col.capacity() * sizeof(ValueId);
  bytes += columns_.capacity() * sizeof(std::vector<ValueId>);
  bytes += covers_.bucket_count() * sizeof(void*);
  for (const auto& [key, cover] : covers_) {
    bytes += sizeof(key) + cover.MemoryBytes();
  }
  return bytes;
}

}  // namespace whynot::explain
