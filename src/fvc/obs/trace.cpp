#include "fvc/obs/trace.hpp"

#include <algorithm>
#include <bit>

namespace fvc::obs {

namespace detail {

std::atomic<TraceSession*> g_trace_session{nullptr};
std::atomic<std::uint64_t> g_trace_generation{0};

namespace {

/// Per-thread ring cache.  The generation stamp ties the cached pointer to
/// one install(): any install/uninstall bumps the generation, so a stale
/// pointer into a torn-down session is never dereferenced — the cache
/// re-registers against the current session instead.
struct RingCache {
  TraceRing* ring = nullptr;
  std::uint64_t generation = ~std::uint64_t{0};
};
thread_local RingCache t_ring_cache;

}  // namespace

void emit(const char* name, TraceCategory category, TracePhase phase,
          const char* arg1_name, std::uint64_t arg1, const char* arg2_name,
          std::uint64_t arg2) {
  TraceSession* const session = g_trace_session.load(std::memory_order_acquire);
  if (session == nullptr) {
    return;  // raced an uninstall between the call site's check and here
  }
  const std::uint64_t generation = g_trace_generation.load(std::memory_order_acquire);
  RingCache& cache = t_ring_cache;
  if (cache.ring == nullptr || cache.generation != generation) {
    cache.ring = &session->ring_for_current_thread();
    cache.generation = generation;
  }
  TraceEvent ev;
  ev.name = name;
  ev.arg1_name = arg1_name;
  ev.arg2_name = arg2_name;
  ev.ts_ns = monotonic_ns();
  ev.arg1 = arg1;
  ev.arg2 = arg2;
  ev.category = category;
  ev.phase = phase;
  cache.ring->push(ev);
}

}  // namespace detail

TraceRing::TraceRing(std::size_t capacity, std::uint32_t tid) : tid_(tid) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 8));
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

bool TraceRing::read_slot(std::uint64_t seq, TraceEvent& out) const {
  // Seqlock read.  The acquire load of the published stamp makes the
  // writer's payload stores for `seq` visible; the acquire fence keeps the
  // payload copy before the second stamp load, so if the writer began
  // reusing the slot (odd stamp, then payload) anywhere before the copy
  // finished, the second load no longer reads seq's published value.
  const Slot& slot = slots_[seq & mask_];
  const std::uint64_t published = 2 * seq + 2;
  if (slot.stamp.load(std::memory_order_acquire) != published) {
    return false;
  }
  out = slot.event;
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.stamp.load(std::memory_order_relaxed) == published;
}

TraceRing::DrainResult TraceRing::drain_into(std::vector<TraceEvent>& out) {
  DrainResult res;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t from = tail_;
  const std::uint64_t cap = mask_ + 1;
  if (head - from > cap) {
    // The writer lapped the consumer: everything older than one full ring
    // below head is gone.
    res.evicted += head - from - cap;
    from = head - cap;
  }
  for (std::uint64_t seq = from; seq < head; ++seq) {
    TraceEvent ev;
    if (!read_slot(seq, ev)) {
      ++res.evicted;  // overwritten by a later lap before or during the copy
      continue;
    }
    out.push_back(ev);
    ++res.drained;
  }
  tail_ = head;
  return res;
}

bool TraceRing::last_event(TraceEvent& out) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  return head != 0 && read_slot(head - 1, out);
}

TraceSession::TraceSession(std::size_t ring_capacity)
    : ring_capacity_(std::max<std::size_t>(ring_capacity, 8)) {}

TraceSession::~TraceSession() {
  uninstall();
}

TraceSession* TraceSession::current() {
  return detail::g_trace_session.load(std::memory_order_acquire);
}

void TraceSession::install() {
  detail::g_trace_session.store(this, std::memory_order_release);
  detail::g_trace_generation.fetch_add(1, std::memory_order_acq_rel);
}

void TraceSession::uninstall() {
  if (detail::g_trace_session.load(std::memory_order_acquire) == this) {
    detail::g_trace_session.store(nullptr, std::memory_order_release);
    detail::g_trace_generation.fetch_add(1, std::memory_order_acq_rel);
  }
}

TraceRing& TraceSession::ring_for_current_thread() {
  const std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::make_unique<TraceRing>(
      ring_capacity_, static_cast<std::uint32_t>(rings_.size() + 1)));
  return *rings_.back();
}

TraceSession::Drained TraceSession::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  Drained d;
  d.threads = rings_.size();
  for (const std::unique_ptr<TraceRing>& ring : rings_) {
    const TraceRing::DrainResult r = ring->drain_into(d.events);
    d.evicted += r.evicted;
  }
  // Rings were appended in tid order, so a stable sort keeps each thread's
  // emit order for same-timestamp events (begin/end nesting survives).
  std::stable_sort(d.events.begin(), d.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return d;
}

std::vector<TraceSession::ThreadState> TraceSession::thread_states() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadState> states;
  states.reserve(rings_.size());
  for (const std::unique_ptr<TraceRing>& ring : rings_) {
    ThreadState st;
    st.tid = ring->tid();
    st.produced = ring->produced();
    st.has_last = ring->last_event(st.last);
    states.push_back(st);
  }
  return states;
}

}  // namespace fvc::obs
