#ifndef WHYNOT_COMMON_EXEC_CONTROL_H_
#define WHYNOT_COMMON_EXEC_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "whynot/common/status.h"

/// Engine-wide execution control: deadlines, cooperative cancellation, and
/// the quality certificates of interrupted searches.
///
/// The NP-hard searches (Theorems 5.1/5.2) have no useful worst-case bound,
/// so every explain entry point takes an optional ExecContext and observes
/// it *only at serial merge points* — the per-candidate serial odometer
/// step, the per-survivor replay, the frontier wave merge, the enumeration
/// queue pop. Parallel workers never consult it except through
/// ShouldAbandon(), whose effect (discarding a whole not-yet-merged chunk)
/// is invisible to the output. That placement is what keeps interrupted
/// executions deterministic: a stop injected at probe ordinal N truncates
/// the consumed linearization prefix at exactly the same candidate at
/// every thread count, because the probe ordinals themselves are
/// thread-invariant.
///
/// Stops are reported one of two ways, chosen by the caller:
///  * no Certificate requested — the search returns kDeadlineExceeded /
///    kCancelled (budget exhaustion keeps its existing kResourceExhausted
///    report) and any partial output is discarded;
///  * Certificate requested — the search returns OK with the deterministic
///    prefix it covered, and the certificate says what that prefix is
///    worth: Quality::kExact when the search actually finished,
///    kLowerBound for sound-but-possibly-incomplete antichain/enumeration
///    prefixes, kHeuristic for greedy partials, plus Progress counters.

namespace whynot::test {
class FaultInjector;
}  // namespace whynot::test

namespace whynot::exec {

/// A monotonic-clock deadline. Default-constructed deadlines never expire,
/// so plumbing one unconditionally costs a comparison, not a clock read.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : at_(Clock::time_point::max()) {}

  static Deadline After(int64_t ms) {
    Deadline d;
    d.at_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }
  static Deadline Infinite() { return Deadline(); }

  bool infinite() const { return at_ == Clock::time_point::max(); }
  bool Expired() const { return !infinite() && Clock::now() >= at_; }

 private:
  Clock::time_point at_;
};

/// Copyable cancellation handle; all copies share one flag. Cancel() may be
/// called from any thread (the session's Cancel() races request threads by
/// design); searches observe it at serial merge points only.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Why a search stopped early. kBudget is the existing candidate/node
/// budget surfacing through the certificate path — with no certificate the
/// budget keeps its historical ResourceExhausted error.
enum class StopReason { kNone, kDeadline, kCancelled, kBudget };

const char* StopReasonName(StopReason reason);

/// A stop observed at a serial merge point. `at` is the canonical probe
/// ordinal: the injector's configured trigger under fault injection
/// (identical at every thread count), the raw probe ordinal for real
/// wall-clock / cancellation stops (which are inherently timing-dependent).
struct Stop {
  StopReason reason = StopReason::kNone;
  size_t at = 0;
};

/// What a (possibly partial) result is worth.
enum class Quality {
  kExact,       ///< the search ran to completion
  kLowerBound,  ///< sound prefix of the exact answer set / linearization
  kHeuristic,   ///< greedy / incremental partial — sound but unranked
};

const char* QualityName(Quality quality);

/// Coverage counters of an interrupted search. `tested` counts predicate
/// probes actually evaluated, `remaining` the known still-queued work at
/// the stop point (0 when unknown or complete), `best_so_far` a
/// search-specific scalar (explanations kept, best degree, nodes output).
/// The candidate-product searches (explain::ProductSearch) count
/// `remaining` as the untested rest of the raw product, saturated at
/// SIZE_MAX when the product overflows a word — on the odometer and the
/// frontier alike.
struct Progress {
  size_t tested = 0;
  size_t remaining = 0;
  size_t best_so_far = 0;
};

/// The quality certificate attached to a partial (or complete) result.
struct Certificate {
  Quality quality = Quality::kExact;
  StopReason stop = StopReason::kNone;
  Progress progress;

  bool complete() const { return stop == StopReason::kNone; }
};

/// Maps a Stop to the status an uncertified search returns.
Status StopStatus(const Stop& stop, const std::string& what);

/// Fills `cert` (null-tolerant) from a search's stop + progress counters.
/// `partial_quality` tags an interrupted run; a complete run (reason
/// kNone) is always kExact.
inline void FillCertificate(Certificate* cert, const Stop& stop,
                            Progress progress, size_t best_so_far,
                            Quality partial_quality = Quality::kLowerBound) {
  if (cert == nullptr) return;
  progress.best_so_far = best_so_far;
  cert->quality =
      stop.reason == StopReason::kNone ? Quality::kExact : partial_quality;
  cert->stop = stop.reason;
  cert->progress = progress;
}

/// The per-request execution context threaded through every layer. All
/// fields are optional: a default-constructed context never stops
/// anything, and a null ExecContext* (the historical call shape) costs
/// nothing at all.
///
/// Check() is the serial-merge-point probe. Contract: called from exactly
/// one thread at a time (the serial consumer), with `probe` a
/// thread-invariant ordinal of the search's linearization (candidates
/// enumerated, nodes expanded, ...). The clock/cancel poll is strided so
/// per-candidate checks stay a few cycles; the fault injector, when
/// present, observes every probe so injected stops are exact.
struct ExecContext {
  Deadline deadline;
  CancelToken cancel;
  whynot::test::FaultInjector* fault = nullptr;

  std::optional<Stop> Check(size_t probe) const {
    if (fault != nullptr) return CheckFault(probe);
    if ((++poll_tick_ & (kPollStride - 1)) != 0) return std::nullopt;
    return Poll(probe);
  }

  /// Async worker poll: cancellation / deadline only, NEVER injection —
  /// abandoning a chunk early must not change the merged output, and
  /// injected stops must stay exactly reproducible at the serial points.
  bool ShouldAbandon() const {
    return cancel.cancelled() || deadline.Expired();
  }

  /// Unstrided real poll (cancel / deadline, never injection): resolves an
  /// abandoned parallel region into its Stop at a serial point. Both
  /// abandon conditions are monotone, so this is engaged whenever a worker
  /// saw ShouldAbandon().
  std::optional<Stop> PollNow(size_t probe) const { return Poll(probe); }

 private:
  static constexpr uint32_t kPollStride = 64;

  std::optional<Stop> Poll(size_t probe) const;
  std::optional<Stop> CheckFault(size_t probe) const;

  // Serial-only by the Check contract, mutable so const contexts stride.
  // Starts one short of the stride so the first check polls immediately
  // (a pre-cancelled request dies at its first merge point).
  mutable uint32_t poll_tick_ = kPollStride - 1;
};

/// Null-tolerant probe: the historical no-context call shape stays a
/// pointer test.
inline std::optional<Stop> Check(const ExecContext* ctx, size_t probe) {
  if (ctx == nullptr) return std::nullopt;
  return ctx->Check(probe);
}

inline bool ShouldAbandon(const ExecContext* ctx) {
  return ctx != nullptr && ctx->ShouldAbandon();
}

}  // namespace whynot::exec

namespace whynot::test {

/// Deterministic fault injection for the execution-control paths. An
/// injector rides in ExecContext::fault and fires when the *probe ordinal*
/// reaches its trigger — never on call count, because the serial and
/// parallel paths of one search legitimately make different numbers of
/// checks; the ordinal sequence is what both paths share. The reported
/// Stop carries `at = trigger` even when the observed ordinal jumped past
/// it (wave-granular probes), so certificates are bit-identical at every
/// thread count.
class FaultInjector {
 public:
  /// Fires a cooperative cancellation once probes reach `n`.
  static FaultInjector CancelAt(size_t n) {
    return FaultInjector(exec::StopReason::kCancelled, n);
  }
  /// Fires a deadline expiry once probes reach `n`.
  static FaultInjector DeadlineAt(size_t n) {
    return FaultInjector(exec::StopReason::kDeadline, n);
  }
  /// Never fires on probes (carrier for fail_warm / probe_delay_us).
  FaultInjector() = default;

  /// Serial-merge-point observation; applies probe_delay_us, then fires
  /// iff probe >= trigger.
  std::optional<exec::Stop> Observe(size_t probe);

  size_t observations() const { return observations_; }
  size_t trigger() const { return trigger_; }

  /// Forces the next WarmExtensions through this context to fail its
  /// freeze path with ResourceExhausted (allocation-failure stand-in).
  bool fail_warm = false;
  /// Injected slow evaluator: sleep this long on every observed probe.
  uint32_t probe_delay_us = 0;

 private:
  FaultInjector(exec::StopReason reason, size_t trigger)
      : reason_(reason), trigger_(trigger) {}

  exec::StopReason reason_ = exec::StopReason::kNone;
  size_t trigger_ = SIZE_MAX;
  size_t observations_ = 0;
};

}  // namespace whynot::test

#endif  // WHYNOT_COMMON_EXEC_CONTROL_H_
