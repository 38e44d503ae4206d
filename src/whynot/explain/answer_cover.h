#ifndef WHYNOT_EXPLAIN_ANSWER_COVER_H_
#define WHYNOT_EXPLAIN_ANSWER_COVER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "whynot/common/dense_bitmap.h"
#include "whynot/common/status.h"
#include "whynot/common/value.h"
#include "whynot/concepts/ls_eval.h"
#include "whynot/ontology/ontology.h"

namespace whynot::explain {

/// Word-parallel answer-cover kernel (the PR-3 inner loop of every
/// explanation search). For a fixed answer set Ans, the *cover* of an
/// extension at position i is the bitmap over answer indices
///   Cover(x, i) = { a : Ans[a][i] ∈ ext(x) },
/// and both product conditions of Definitions 3.2 / the why dual reduce to
/// an AND over positions:
///
///   ext(e_1) × ... × ext(e_m) ∩ Ans ≠ ∅  iff  ⋀_i Cover(e_i, i) ≠ 0;
///   |ext(e_1) × ... × ext(e_m) ∩ Ans|    =    popcount(⋀_i Cover(e_i, i)).
///
/// One O(|Ans|) cover build per (concept, position) — each probe O(1) via
/// the extension bitmaps — replaces a scalar membership probe per
/// (answer, position) per *candidate*; candidate checks drop to
/// m · ⌈|Ans|/64⌉ word ANDs with early exit. An All/⊤ extension covers
/// every answer (the full-prefix bitmap), an empty one covers none, so the
/// kernel needs no special-casing at the call sites for the intersection
/// form; the counting (containment) form keeps its finite/overflow
/// pre-checks at the caller.
///
/// A cover row is a `const uint64_t*` to num_words() words, owned by the
/// covers object and stable for its lifetime.

/// One position's extension size, as the counting containment test reads
/// it: `all` for ⊤-equivalent extensions (size then unused), else |ext|.
struct ExtSize {
  bool all = false;
  size_t size = 0;
};

/// Covers for an external finite ontology bound to an instance: keyed by
/// ConceptId. `answers` are id rows interned against bound->pool()
/// (InternAnswers), captured by value; `bound` must outlive the covers.
///
/// Storage is a per-position chunked *arena*: covers live in contiguous
/// kChunkConcepts × words(|Ans|) word blocks allocated on demand, covers
/// are pointers into them — a handful of allocations per position instead
/// of one per cover, without committing NumConcepts × |Ans| memory when
/// only a few concepts are ever probed at a position (chunk buffers never
/// move once allocated, so handed-out pointers stay valid).
class ConceptAnswerCovers {
 public:
  /// Concepts per arena chunk; bounds slack at 32 covers' worth of words.
  static constexpr size_t kChunkConcepts = 32;

  ConceptAnswerCovers(onto::BoundOntology* bound,
                      std::vector<std::vector<ValueId>> answers);

  const std::vector<std::vector<ValueId>>& answers() const { return answers_; }
  size_t num_answers() const { return answers_.size(); }
  /// Words per cover (= ⌈|Ans|/64⌉).
  size_t num_words() const { return num_words_; }
  /// The all-ones cover (trailing bits zero).
  const std::vector<uint64_t>& full_words() const { return full_; }

  /// Cover(c, pos), built on first use (two array loads on the warm path,
  /// no tree/hash walk). nullptr iff Ans is empty (zero words).
  const uint64_t* Cover(onto::ConceptId c, size_t pos) {
    // built_[pos] stays empty until the first build at this position
    // (positions can be touched out of order), so guard before indexing.
    if (pos < built_.size() && !built_[pos].empty() &&
        built_[pos][static_cast<size_t>(c)]) {
      size_t idx = static_cast<size_t>(c);
      return chunks_[pos][idx / kChunkConcepts].data() +
             (idx % kChunkConcepts) * num_words_;
    }
    return BuildCover(c, pos);
  }

  /// ⋀_i Cover(e_i, i) ≠ 0 : the candidate product intersects Ans.
  bool ProductIntersects(const std::vector<onto::ConceptId>& e);

  /// popcount(⋀_i Cover(e_i, i)) : answers covered componentwise.
  size_t CountCovered(const std::vector<onto::ConceptId>& e);

  /// ext(e_1) × ... × ext(e_m) ⊆ Ans (the static ProductInside below).
  /// The answers must be duplicate-free.
  bool ProductInside(const std::vector<onto::ConceptId>& e);

  /// ⋀_{i != skip} Cover(e_i, i) — the loop-invariant part of a probe
  /// sweep that varies one position. All ones (over |Ans|) when every
  /// position is skipped.
  std::vector<uint64_t> AndAllExcept(const std::vector<onto::ConceptId>& e,
                                     size_t skip);

  /// (words ∧ cover) ≠ 0 without materializing the AND.
  static bool AnyAnd(const std::vector<uint64_t>& words,
                     const uint64_t* cover) {
    for (size_t w = 0; w < words.size(); ++w) {
      if (words[w] & cover[w]) return true;
    }
    return false;
  }

  /// The shared m-way word-AND kernels: `cover_at(i)` yields position i's
  /// cover (all covers num_words() long). Any: early-exits on the first
  /// surviving word; Count: popcount of the full AND. Used by the product
  /// checks here and by the candidate-product searches (CoverTable in
  /// search_core.h) so the kernel exists exactly once.
  template <typename CoverAt>
  static bool ProductAny(size_t m, size_t nwords, CoverAt cover_at) {
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t acc = cover_at(0)[w];
      for (size_t i = 1; i < m && acc != 0; ++i) acc &= cover_at(i)[w];
      if (acc != 0) return true;
    }
    return false;
  }
  /// The one- and two-cover forms route through the SIMD dispatch: a lone
  /// cover is a straight popcount, a pair uses the fused AND+popcount
  /// kernel (no intermediate bitmap); wider products keep the word-outer
  /// scalar loop whose running AND early-exits on a zero accumulator.
  template <typename CoverAt>
  static size_t ProductCount(size_t m, size_t nwords, CoverAt cover_at) {
    if (m == 1) return DenseBitmap::PopcountWords(cover_at(0), nwords);
    if (m == 2) {
      return DenseBitmap::AndCountWords(cover_at(0), cover_at(1), nwords);
    }
    size_t count = 0;
    for (size_t w = 0; w < nwords; ++w) {
      uint64_t acc = cover_at(0)[w];
      for (size_t i = 1; i < m && acc != 0; ++i) acc &= cover_at(i)[w];
      count += static_cast<size_t>(__builtin_popcountll(acc));
    }
    return count;
  }

  /// "ext(e_1) × ... × ext(e_m) ⊆ Ans" in counting form, the why dual's
  /// product test: the product tuples are pairwise distinct and Ans must
  /// be duplicate-free, so the product is inside Ans iff |product| equals
  /// the number of answers covered componentwise — `count()`, one
  /// ProductCount. `size_at(i)` yields position i's ExtSize. An empty
  /// position makes the product empty and vacuously inside; otherwise an
  /// All position (an infinite product) or a product larger than |Ans|
  /// can never be covered, and `count()` is not called.
  template <typename SizeAt, typename Count>
  static bool ProductInside(size_t m, size_t num_answers, SizeAt size_at,
                            Count count) {
    for (size_t i = 0; i < m; ++i) {
      ExtSize e = size_at(i);
      if (!e.all && e.size == 0) return true;
    }
    size_t product_size = 1;
    for (size_t i = 0; i < m; ++i) {
      ExtSize e = size_at(i);
      if (e.all) return false;
      // Bail before the product overflows.
      if (product_size > num_answers / e.size) return false;
      product_size *= e.size;
    }
    return count() == product_size;
  }

  // The pre-resolved per-candidate-list cover table lives in
  // search_core.h (explain::CoverTable), next to the chunked candidate
  // filter that probes it.

  /// Heap + object bytes resident across arenas and bookkeeping.
  size_t MemoryBytes() const;

 private:
  const uint64_t* BuildCover(onto::ConceptId c, size_t pos);

  onto::BoundOntology* bound_;
  std::vector<std::vector<ValueId>> answers_;
  size_t num_words_;
  // chunks_[pos][chunk]: kChunkConcepts × num_words_ words (empty until a
  // concept of that chunk is built); built_[pos][concept].
  std::vector<std::vector<std::vector<uint64_t>>> chunks_;
  std::vector<std::vector<uint8_t>> built_;
  std::vector<uint64_t> full_;
  std::vector<const uint64_t*> scratch_rows_;
};

/// Covers for the derived ontology O_I: keyed by ls::Extension *identity*.
/// Extensions passed to Cover must be stable for the covers' lifetime —
/// references into an ls::EvalCache (node-based maps) or locals owned by
/// the search; All() extensions are recognized by flag, not address.
/// Finite extensions must be over the instance's pool or pool-less.
/// `instance` and `answers` must outlive the covers and stay fixed, except
/// through MergeAnswers.
///
/// Rows are built from a per-position *answer posting index*: the answer
/// indices grouped by the pool id of their value at that position (a CSR
/// whose offsets are indexed by ValueId, indices ascending within an id),
/// plus the short list of answers whose value the pool did not hold when
/// they were indexed (only fixed answer sets bring such values). A row
/// ORs the postings of the extension's ids — and of its extras the pool
/// has interned since — into a zero bitmap, and tests only the
/// non-interned answers against the extras, so it costs
/// O(Σ_{v ∈ ext} |post(v)| + |ext| + ⌈|Ans|/64⌉) instead of one
/// membership probe per answer: a nominal's row touches the few answers
/// that hold its value. ⊤ is the shared full row. MergeAnswers keeps the
/// postings and the cached rows current across session writes; ClearRows
/// drops the rows when the extensions they are keyed by are freed.
class LsAnswerCovers {
 public:
  LsAnswerCovers(const rel::Instance* instance,
                 const std::vector<Tuple>* answers);

  size_t num_answers() const { return answers_->size(); }

  /// Merges `delta` — rows of instance-pool ids, sorted and duplicate-free
  /// in the Value order, as rel::EvaluateIds returns them — into
  /// `answers`, which must be the vector these covers index, into the
  /// postings, and into every cached row. Each delta row is placed by
  /// binary search over the boxed answers (sorted in the Value order); one
  /// backward pass then moves the old answers past the first insertion
  /// and boxes only the new rows (InsertAtPositions). Per position, the
  /// old postings are renumbered past each insertion and the new indices
  /// go into the runs of their ids only. Each cached row gets the new
  /// answers' bits inserted at their merged positions (one word-shift
  /// pass), set where the row's extension holds the new answer's value —
  /// so the extensions keying the rows must still be alive (ClearRows
  /// first when they are not). A row already present is skipped, so
  /// merging the same delta twice is a no-op. Returns the positions the
  /// new answers took in the merged vector, ascending.
  std::vector<size_t> MergeAnswers(
      const std::vector<std::vector<ValueId>>& delta,
      std::vector<Tuple>* answers);

  /// Drops every cached row (the postings stay). Required before the
  /// extensions the rows are keyed by are freed: a later extension at the
  /// same address would be served the old row.
  void ClearRows() { covers_.clear(); }

  /// Cover(ext, pos), built on first use (identity-cached).
  const uint64_t* Cover(const ls::Extension& ext, size_t pos);

  /// ⋀_i Cover(exts_i, i) ≠ 0, with position `swap_pos` (if != SIZE_MAX)
  /// read from `repl` instead of exts[swap_pos] — the probe form of the
  /// greedy searches, no vector copies.
  bool ProductIntersects(const std::vector<const ls::Extension*>& exts,
                         size_t swap_pos = SIZE_MAX,
                         const ls::Extension* repl = nullptr);

  /// popcount of the AND, same swap convention.
  size_t CountCovered(const std::vector<const ls::Extension*>& exts,
                      size_t swap_pos = SIZE_MAX,
                      const ls::Extension* repl = nullptr);

  /// ext product ⊆ Ans (ConceptAnswerCovers::ProductInside), same swap
  /// convention. The answers must be duplicate-free.
  bool ProductInside(const std::vector<const ls::Extension*>& exts,
                     size_t swap_pos = SIZE_MAX,
                     const ls::Extension* repl = nullptr);

  /// Heap + object bytes across postings and cached cover rows.
  size_t MemoryBytes() const;

 private:
  struct KeyHash {
    size_t operator()(const std::pair<const ls::Extension*, size_t>& k) const {
      uintptr_t p = reinterpret_cast<uintptr_t>(k.first);
      return (p >> 4) * 1099511628211ull ^ k.second;
    }
  };

  /// One position's answer posting index.
  struct Postings {
    // offsets[id] .. offsets[id + 1] delimit id's answers in `answers`;
    // ids past offsets.size() - 1 hold no answer.
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> answers;
    // Answers whose value was not interned when indexed, ascending.
    std::vector<uint32_t> foreign;
  };

  /// Adds new answers to `p`: new answer i holds pool id ids[i] (-1 if
  /// not interned) and takes index added[i] (ascending); old answer a
  /// takes index moved[a]. Only the runs of the new ids grow: the offsets
  /// past the smallest new id shift by the new answers before them.
  static void MergePostings(Postings* p, const std::vector<ValueId>& ids,
                            const std::vector<size_t>& added,
                            const std::vector<uint32_t>& moved);

  const std::vector<Tuple>* answers_;
  const ValuePool* pool_;
  std::vector<Postings> postings_;  // one per answer position
  // Cached rows, ⌈|Ans|/64⌉ words each, trailing bits zero.
  std::unordered_map<std::pair<const ls::Extension*, size_t>,
                     std::vector<uint64_t>, KeyHash>
      covers_;
  DenseBitmap full_;
  std::vector<const uint64_t*> scratch_rows_;
};

/// The first check of every derived entry point that takes caller-owned
/// LsAnswerCovers, and the one statement of which stores those need. The
/// covers key rows by extension address, so the extensions must live in a
/// caller-owned store: a per-call local frees its extensions at return, a
/// later call reuses the addresses, and the covers would serve another
/// extension's row. The O_I searches and checks (IncrementalSearch,
/// CheckMgeDerived, EnumerateAllMges and their why duals) evaluate through
/// the memo a ConceptCache owns, so covers need a caller-owned
/// `concept_cache` there, and a null `cache` means that memo.
/// IsLsWhyExplanation takes no concept cache and needs a caller-owned
/// `cache`. `stores_given` says whether the caller passed that store;
/// InvalidArgument naming `where` when covers come without it.
inline Status RequireCoverStores(const LsAnswerCovers* covers,
                                 bool stores_given, const char* where) {
  if (covers == nullptr || stores_given) return Status::OK();
  return Status::InvalidArgument(
      std::string(where) +
      ": caller-owned covers need the caller-owned extension stores their "
      "rows are keyed by");
}

}  // namespace whynot::explain

#endif  // WHYNOT_EXPLAIN_ANSWER_COVER_H_
