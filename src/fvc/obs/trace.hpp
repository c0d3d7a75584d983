/// \file trace.hpp
/// \brief Event tracing: per-thread lock-free ring buffers behind a
/// process-wide session.
///
/// The metrics tree (run_metrics.hpp) answers *how much*; this layer
/// answers *when*.  Instrumented code emits `TraceEvent`s — begin/end
/// slices, instants and counter samples stamped with a steady-clock
/// nanosecond timestamp and a small thread id — into a fixed-capacity
/// ring buffer owned by the emitting thread.  A `TraceSession` registers
/// the rings and drains them into one timeline that trace_export.hpp
/// renders as Chrome-trace JSON (loadable in Perfetto or
/// chrome://tracing).
///
/// Cost model, mirroring the pointer-gated metrics of metrics.hpp:
///
/// * **Compiled out** (`FVC_TRACE_DISABLED`, set by `-DFVC_TRACING=OFF`):
///   every emit function and `TraceScope` below is an empty inline stub,
///   so instrumented translation units contain no trace code at all —
///   the hot path is bit- and cost-identical to an uninstrumented build
///   (CI asserts the hot-path TUs carry no trace symbols).
/// * **Compiled in, no session installed**: one relaxed atomic load and
///   a predictable branch per *event site* — and event sites are per
///   batch of work (a task, a trial, a whole-grid scan), never per
///   candidate or per grid point.
/// * **Session installed**: one ring-buffer store per event.  The writer
///   never blocks and never allocates after its ring exists; when the
///   ring wraps, the oldest events are evicted and accounted for at
///   drain time.
///
/// Concurrency contract: each ring has exactly one writer (its owning
/// thread).  `TraceSession::drain` may run concurrently with writers —
/// it discards events that wrapped mid-copy instead of tearing — but the
/// session must outlive every writer's last emit: uninstall (and join
/// worker threads) before destroying the session.  Tracing never touches
/// the arithmetic of instrumented code; traced results are bit-identical
/// to untraced runs.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "fvc/obs/metrics.hpp"

namespace fvc::obs {

/// Which subsystem emitted the event; exported as the Chrome-trace "cat"
/// field so timelines can be filtered per layer.
enum class TraceCategory : std::uint8_t {
  kEngine,    ///< core::GridEvalEngine (builds, whole-grid scans)
  kPool,      ///< sim::parallel_for (workers, per-index slices, queue waits)
  kTrial,     ///< Monte-Carlo trials and estimates
  kScan,      ///< sweeps, phase scans, threshold searches
  kWatchdog,  ///< stall detection
  kCli,       ///< command dispatch
};
inline constexpr std::size_t kTraceCategoryCount = 6;

/// Chrome-trace phase of the event.
enum class TracePhase : std::uint8_t {
  kBegin,    ///< "B": a slice opens on this thread
  kEnd,      ///< "E": the innermost open slice closes
  kInstant,  ///< "i": a point-in-time marker
  kCounter,  ///< "C": a sampled counter value (in arg1)
};

/// One trace event.  `name` (and the arg names) must point to storage
/// that outlives the session — string literals in practice — so emitting
/// never copies or allocates; the exporter reads them at drain time.
struct TraceEvent {
  const char* name = nullptr;
  const char* arg1_name = nullptr;  ///< nullptr = no argument
  const char* arg2_name = nullptr;
  std::uint64_t ts_ns = 0;  ///< monotonic_ns() at emit
  std::uint64_t arg1 = 0;   ///< also the sample of a kCounter event
  std::uint64_t arg2 = 0;
  std::uint32_t tid = 0;    ///< session-assigned small thread id (1-based)
  TraceCategory category = TraceCategory::kCli;
  TracePhase phase = TracePhase::kInstant;
};

/// Fixed-capacity single-writer ring buffer of trace events.  The writer
/// overwrites the oldest slot when full (tracing must never stall the
/// traced code); the consumer detects lapped slots at drain time and
/// reports them as evicted.  Each slot carries a sequence stamp, a
/// per-slot seqlock: the writer stores 2*seq + 1 (writing) before the
/// payload and 2*seq + 2 (published) after it, and a reader accepts a copy
/// only when the stamp reads seq's published value both before and after
/// the copy — so a copy the writer touched, or a slot a later lap already
/// reused, is never returned.  Always compiled — the compile-time gate
/// applies to the *emit call sites*, not to the data structures, so the
/// session/export/watchdog machinery keeps working in disabled builds
/// (it just sees no events).
class TraceRing {
 public:
  /// \param capacity rounded up to the next power of two, minimum 8.
  /// \param tid the session-assigned id stamped on every event.
  TraceRing(std::size_t capacity, std::uint32_t tid);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
  [[nodiscard]] std::uint32_t tid() const { return tid_; }

  /// Writer side (owning thread only): stamp `ev` with this ring's tid
  /// and publish it, overwriting the oldest event when full.
  void push(TraceEvent ev) {
    const std::uint64_t seq = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[seq & mask_];
    slot.stamp.store(2 * seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    ev.tid = tid_;
    slot.event = ev;
    slot.stamp.store(2 * seq + 2, std::memory_order_release);
    head_.store(seq + 1, std::memory_order_release);
  }

  /// Events ever pushed (monotone; includes evicted ones).
  [[nodiscard]] std::uint64_t produced() const {
    return head_.load(std::memory_order_acquire);
  }

  struct DrainResult {
    std::size_t drained = 0;   ///< events appended to `out`
    std::uint64_t evicted = 0;  ///< events lost to wraparound since last drain
  };

  /// Consumer side: append every event published since the last drain to
  /// `out`, oldest first.  Safe to call while the writer is pushing: a
  /// slot the writer overwrote before or during the copy is discarded
  /// (counted as evicted) rather than returned torn or twice.  Single consumer (the session serializes
  /// drains under its mutex).
  DrainResult drain_into(std::vector<TraceEvent>& out);

  /// Racy snapshot of the most recently published event, for watchdog
  /// diagnostics.  Returns false when no event is available or the
  /// writer lapped the slot mid-read.
  [[nodiscard]] bool last_event(TraceEvent& out) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  ///< 2*seq+1 writing, 2*seq+2 published
    TraceEvent event;
  };

  /// Copy the event published as `seq` out of its slot; false when the
  /// slot does not hold that event for the whole copy.
  bool read_slot(std::uint64_t seq, TraceEvent& out) const;

  std::unique_ptr<Slot[]> slots_;
  std::uint64_t mask_ = 0;
  std::uint32_t tid_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_ = 0;  ///< consumer-owned: drained up to here
};

/// The process-wide trace collector: owns one ring per emitting thread
/// and renders them into a single drained timeline.  Install at most one
/// at a time; emit sites find the current session through one atomic
/// load.  Threads register lazily on their first event and cache their
/// ring thread-locally (invalidated by install/uninstall, so sessions
/// can be created and torn down repeatedly, e.g. by tests).
class TraceSession {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1 << 14;

  explicit TraceSession(std::size_t ring_capacity = kDefaultRingCapacity);
  ~TraceSession();  ///< uninstalls first if still current

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The installed session; nullptr when tracing is off.
  [[nodiscard]] static TraceSession* current();

  /// Make this the process-wide session / retire it.  Not thread-safe
  /// against each other; call from the coordinating thread.
  void install();
  void uninstall();

  /// The calling thread's ring, created (and tid-assigned, in
  /// registration order starting at 1) on first use.
  [[nodiscard]] TraceRing& ring_for_current_thread();

  /// One drained timeline: per-ring event order is preserved, rings are
  /// concatenated in tid order and stably sorted by timestamp — so
  /// same-timestamp events of one thread keep their emit order and
  /// begin/end nesting survives.
  struct Drained {
    std::vector<TraceEvent> events;
    std::uint64_t evicted = 0;  ///< ring-wraparound losses, all threads
    std::size_t threads = 0;    ///< rings that ever registered
  };

  /// Drain every ring.  Incremental (a second drain returns only newer
  /// events) and safe while writers are active.
  [[nodiscard]] Drained drain();

  /// Watchdog diagnostics: per-thread last-event snapshots.
  struct ThreadState {
    std::uint32_t tid = 0;
    std::uint64_t produced = 0;
    bool has_last = false;
    TraceEvent last;  ///< valid when has_last
  };
  [[nodiscard]] std::vector<ThreadState> thread_states() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::size_t ring_capacity_;
};

namespace detail {
/// The emit-site fast path: current session (acquire) and a generation
/// counter that invalidates per-thread ring caches on install/uninstall.
extern std::atomic<TraceSession*> g_trace_session;
extern std::atomic<std::uint64_t> g_trace_generation;

void emit(const char* name, TraceCategory category, TracePhase phase,
          const char* arg1_name, std::uint64_t arg1, const char* arg2_name,
          std::uint64_t arg2);
}  // namespace detail

#if !defined(FVC_TRACE_DISABLED)

/// Compile-time gate: false when tracing is compiled out.
inline constexpr bool kTraceEnabled = true;

/// True when a session is installed — the one branch a disabled-at-
/// runtime event site pays.
[[nodiscard]] inline bool trace_active() {
  return detail::g_trace_session.load(std::memory_order_acquire) != nullptr;
}

inline void trace_begin(const char* name, TraceCategory category) {
  if (trace_active()) {
    detail::emit(name, category, TracePhase::kBegin, nullptr, 0, nullptr, 0);
  }
}
inline void trace_begin(const char* name, TraceCategory category,
                        const char* arg1_name, std::uint64_t arg1) {
  if (trace_active()) {
    detail::emit(name, category, TracePhase::kBegin, arg1_name, arg1, nullptr, 0);
  }
}
inline void trace_begin(const char* name, TraceCategory category,
                        const char* arg1_name, std::uint64_t arg1,
                        const char* arg2_name, std::uint64_t arg2) {
  if (trace_active()) {
    detail::emit(name, category, TracePhase::kBegin, arg1_name, arg1, arg2_name,
                 arg2);
  }
}
inline void trace_end(const char* name, TraceCategory category) {
  if (trace_active()) {
    detail::emit(name, category, TracePhase::kEnd, nullptr, 0, nullptr, 0);
  }
}
inline void trace_instant(const char* name, TraceCategory category) {
  if (trace_active()) {
    detail::emit(name, category, TracePhase::kInstant, nullptr, 0, nullptr, 0);
  }
}
inline void trace_instant(const char* name, TraceCategory category,
                          const char* arg1_name, std::uint64_t arg1) {
  if (trace_active()) {
    detail::emit(name, category, TracePhase::kInstant, arg1_name, arg1, nullptr,
                 0);
  }
}
/// Counter sample: rendered as its own counter track named `name`.
inline void trace_counter(const char* name, TraceCategory category,
                          std::uint64_t value) {
  if (trace_active()) {
    detail::emit(name, category, TracePhase::kCounter, name, value, nullptr, 0);
  }
}

/// RAII begin/end slice.  The end is emitted only when the begin was
/// (the session decision is latched at construction), so a session
/// installed mid-scope cannot see an unmatched end.
class TraceScope {
 public:
  TraceScope(const char* name, TraceCategory category)
      : name_(name), category_(category), live_(trace_active()) {
    if (live_) {
      detail::emit(name_, category_, TracePhase::kBegin, nullptr, 0, nullptr, 0);
    }
  }
  TraceScope(const char* name, TraceCategory category, const char* arg1_name,
             std::uint64_t arg1)
      : name_(name), category_(category), live_(trace_active()) {
    if (live_) {
      detail::emit(name_, category_, TracePhase::kBegin, arg1_name, arg1,
                   nullptr, 0);
    }
  }
  TraceScope(const char* name, TraceCategory category, const char* arg1_name,
             std::uint64_t arg1, const char* arg2_name, std::uint64_t arg2)
      : name_(name), category_(category), live_(trace_active()) {
    if (live_) {
      detail::emit(name_, category_, TracePhase::kBegin, arg1_name, arg1,
                   arg2_name, arg2);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() {
    if (live_) {
      detail::emit(name_, category_, TracePhase::kEnd, nullptr, 0, nullptr, 0);
    }
  }

 private:
  const char* name_;
  TraceCategory category_;
  bool live_;
};

#else  // FVC_TRACE_DISABLED

inline constexpr bool kTraceEnabled = false;

[[nodiscard]] inline bool trace_active() { return false; }
inline void trace_begin(const char*, TraceCategory) {}
inline void trace_begin(const char*, TraceCategory, const char*, std::uint64_t) {}
inline void trace_begin(const char*, TraceCategory, const char*, std::uint64_t,
                        const char*, std::uint64_t) {}
inline void trace_end(const char*, TraceCategory) {}
inline void trace_instant(const char*, TraceCategory) {}
inline void trace_instant(const char*, TraceCategory, const char*, std::uint64_t) {}
inline void trace_counter(const char*, TraceCategory, std::uint64_t) {}

class TraceScope {
 public:
  TraceScope(const char*, TraceCategory) {}
  TraceScope(const char*, TraceCategory, const char*, std::uint64_t) {}
  TraceScope(const char*, TraceCategory, const char*, std::uint64_t, const char*,
             std::uint64_t) {}
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

#endif  // FVC_TRACE_DISABLED

}  // namespace fvc::obs
