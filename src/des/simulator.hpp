#pragma once

/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// This is the substrate standing in for the SimGrid toolkit the paper used:
/// a simulated clock, a pending-event queue ordered by (time, insertion
/// sequence), and callback-based event handlers. Ties are broken by insertion
/// order, which makes every simulation fully deterministic.
///
/// Internals are built for throughput — every paper figure is thousands of
/// simulated runs, so this inner loop bounds sweep capacity:
///
///   - The pending queue is an *indexed 4-ary heap*: flatter than a binary
///     heap (fewer cache-missing levels at depth), and because every record
///     knows its heap position, cancel() is a true O(log n) removal — no
///     tombstones, no hash-set bookkeeping on the hot path. Heap entries
///     carry their sort key (time, sequence) inline, so sifting compares
///     contiguous memory and never dereferences into the slab.
///   - Event records live in a slab with a free list. A retired slot (fired
///     or cancelled) is reused by the next schedule_at(), so steady-state
///     simulation performs no per-event allocation at all; callbacks are
///     EventCallback (64 bytes inline — see event_callback.hpp), so the
///     engine's lambdas never touch the heap either. The slab is split
///     structure-of-arrays style: 8-byte {generation, heap_pos} metadata in
///     one dense array (the part sift loops write), callbacks in another
///     (touched once at schedule and once at fire/cancel).
///   - EventId packs {generation, slot}: cancel() validates a handle with
///     two array reads instead of a hash lookup, and stale handles (fired,
///     cancelled, or reused slots) are rejected exactly, with no memory of
///     retired ids ever accumulating.
///   - Observation is zero-cost when off: without an attached EventObserver
///     the kernel's only instrumentation is its O(1) counters (scheduled /
///     executed / cancelled / queue-depth high-water, all maintained
///     natively). The observer hook is one predictable branch per event;
///     auditors (check::SimulatorAuditor) and probes pay for themselves only
///     when attached.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event_callback.hpp"

namespace rumr::des {

/// Simulated time, in seconds.
using SimTime = double;

/// Handle for a scheduled event, usable with Simulator::cancel(). Packs
/// {generation:32, slot:32}; 0 is never a valid handle, so it can serve as
/// an engine-side "no event" sentinel. Handles are exact: a handle stays
/// cancellable until its event fires or is cancelled, and is dead forever
/// after — even once its slot is reused.
using EventId = std::uint64_t;

/// Observation hooks for auditing the kernel (see check/des_audit.hpp).
///
/// An observer sees every lifecycle transition: schedule (with the time the
/// caller *requested*, before any clamping), execute, and cancel. The kernel
/// holds a non-owning pointer; a null observer costs one branch per event.
class EventObserver {
 public:
  virtual ~EventObserver() = default;

  /// A new event was scheduled. `requested` is the caller's time argument
  /// verbatim; `now` the simulated clock at the call.
  virtual void on_schedule(EventId id, SimTime requested, SimTime now) = 0;

  /// An event's handler is about to run at simulated time `at`.
  virtual void on_execute(EventId id, SimTime at) = 0;

  /// cancel(id) was called; `was_pending` is its return value.
  virtual void on_cancel(EventId id, bool was_pending) = 0;
};

/// Callback-driven discrete-event simulator.
///
/// Usage: schedule initial events, then call run(). Handlers may schedule
/// further events. Event handlers run strictly in non-decreasing time order;
/// events at equal times run in the order they were scheduled (FIFO).
class Simulator {
 public:
  using Callback = EventCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Schedules `callback` to fire at absolute time `t`. Requires t >= now().
  /// Returns a handle that can be passed to cancel().
  EventId schedule_at(SimTime t, Callback callback);

  /// Schedules `callback` to fire `delay` seconds from now. Requires delay >= 0.
  EventId schedule_in(SimTime delay, Callback callback);

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled,
  /// or unknown event is a harmless no-op. Returns true if the event was
  /// pending.
  bool cancel(EventId id);

  /// Current simulated time. Starts at 0.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Number of events whose handlers have been executed.
  [[nodiscard]] std::size_t events_processed() const noexcept { return processed_; }

  /// Number of events ever scheduled.
  [[nodiscard]] std::size_t events_scheduled() const noexcept { return scheduled_; }

  /// Number of events successfully cancelled.
  [[nodiscard]] std::size_t events_cancelled() const noexcept { return cancel_count_; }

  /// Number of events still pending. Exact: cancelled events leave the queue
  /// immediately.
  [[nodiscard]] std::size_t events_pending() const noexcept { return heap_.size(); }

  /// Highest pending-event count ever reached. Maintained natively (one
  /// compare per schedule) so observability needs no observer on the hot
  /// path.
  [[nodiscard]] std::size_t queue_depth_high_water() const noexcept { return high_water_; }

  /// Installs (or clears, with nullptr) the audit observer. Not owned.
  void set_observer(EventObserver* observer) noexcept { observer_ = observer; }

  /// Executes the single next pending event. Returns false if none remain.
  bool step();

  /// Runs until the event queue is empty or `max_events` handlers have fired.
  /// Returns the number of events executed by this call. The default cap is a
  /// runaway-simulation guard, far above any legitimate run in this project.
  std::size_t run(std::size_t max_events = kDefaultMaxEvents);

  /// Runs until the queue is empty or simulated time would exceed `deadline`.
  /// Events scheduled exactly at `deadline` are executed.
  std::size_t run_until(SimTime deadline, std::size_t max_events = kDefaultMaxEvents);

  static constexpr std::size_t kDefaultMaxEvents = 500'000'000;

 private:
  /// Per-slot bookkeeping. `generation` validates handles; `heap_pos` makes
  /// cancel() an indexed removal. Kept separate from the callback array so
  /// the sift loops' random heap_pos updates hit a dense array packing eight
  /// slots per cache line instead of dragging 80-byte records through the
  /// cache. The sort key lives in the heap entry, not here.
  struct SlotMeta {
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = kNotPending;
  };

  /// One heap element: the sort key plus the slot it refers to, packed into
  /// 16 bytes so four children span exactly one cache line. `key` is
  /// {seq:32, slot:32}: seq (not the event id) carries the FIFO tie-break —
  /// slots are reused, so id order does not track insertion order, but seq
  /// increments on every schedule, making the packed key strictly increasing
  /// in schedule order. schedule_at() fails loudly if a single simulator
  /// ever issues 2^32 schedules (hours of kernel time; sweeps use a fresh
  /// simulator per run). Keeping the key inline means sift comparisons read
  /// only the (contiguous) heap array.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;

    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(key & 0xFFFFFFFFU);
    }
  };

  static constexpr std::uint32_t kNotPending = 0xFFFFFFFFU;
  /// Heap arity. 4 keeps the tree half as deep as a binary heap, and with
  /// 16-byte entries the four children of a node fill exactly one cache
  /// line. (8 was measured slower: fewer levels, but each level's child scan
  /// spans two lines and does twice the comparisons.)
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static EventId make_id(std::uint32_t generation, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32U) | slot;
  }

  /// Strict queue order: (time, insertion sequence).
  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;
  /// Removes the root (bottom-up: hole walks down min-children, the tail
  /// entry refills it at the bottom). Does not touch the removed root's
  /// heap_pos.
  void pop_root() noexcept;
  /// Removes the heap entry at `pos`, restoring the heap property. Does not
  /// touch the removed record's heap_pos.
  void heap_remove(std::size_t pos) noexcept;

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t scheduled_ = 0;
  std::size_t processed_ = 0;
  std::size_t cancel_count_ = 0;
  std::size_t high_water_ = 0;
  EventObserver* observer_ = nullptr;

  std::vector<SlotMeta> slots_;            ///< Handle/heap-index bookkeeping.
  std::vector<EventCallback> callbacks_;   ///< Pooled callbacks, parallel to slots_.
  std::vector<std::uint32_t> free_slots_;  ///< Retired slots awaiting reuse.
  std::vector<HeapEntry> heap_;            ///< Indexed 4-ary heap, keys inline.
};

}  // namespace rumr::des
