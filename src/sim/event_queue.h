// Pending-event set for the discrete-event kernel: a binary min-heap
// ordered by (time, priority, sequence number), so simultaneous events
// fire in a deterministic, FIFO order.
//
//   * A heap entry is a 24-byte trivially-copyable key; the callback
//     lives in a slot, so sifts move plain bytes.
//   * Cancellation is O(1) through generation-checked slots and frees
//     the callback at once.  The cancelled key stays in the heap until
//     it reaches the top or is compacted away (when cancelled keys make
//     up half the heap), and only then is its slot reused — so a key
//     never needs a generation of its own.
//
// The measured queue depths are small (peak 1 to ~2500 on the benchmark
// workloads) and same-instant cohorts average ~1 event, so nothing
// cleverer pays; see docs/performance.md §9.

#ifndef STAGGER_SIM_EVENT_QUEUE_H_
#define STAGGER_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/units.h"

namespace stagger {

/// Callback executed when an event fires.
using EventFn = std::function<void()>;

/// \brief Opaque handle to a scheduled event; used to cancel it.
///
/// valid() distinguishes a handle obtained from Schedule() from a
/// default-constructed one; it stays true after the event fires or is
/// cancelled (Cancel() reports liveness, the handle cannot).
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class EventQueue;
  explicit EventHandle(uint64_t id) : id_(id) {}
  uint64_t id_ = 0;
};

/// \brief Time-ordered pending-event set (binary heap).
///
/// Not thread-safe — the simulation is single-threaded by design
/// (determinism over parallelism; see DESIGN.md).
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `when`.  Ties fire in ascending
  /// `priority`, then insertion order.
  EventHandle Schedule(SimTime when, EventFn fn, int priority = 0);

  /// Cancels a previously scheduled event; a handle that already fired
  /// or was cancelled is ignored.  Returns true if the event was live.
  /// The callback (and anything it captured) is destroyed immediately.
  bool Cancel(EventHandle handle);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Time of the earliest live event; Max() if empty.
  SimTime NextTime() const;

  /// Removes and returns the earliest live event with its full key.
  /// Precondition: !empty().
  struct Fired {
    SimTime time;
    int priority = 0;
    uint64_t seq = 0;  ///< insertion order; unique, starts at 1
    EventFn fn;
  };
  Fired PopNext();

  /// The seq the next Schedule() will assign: every pending event has a
  /// smaller one.
  uint64_t next_seq() const { return next_seq_; }

  // --- introspection (tests) --------------------------------------------

  /// Heap entries, live or cancelled.  Bounds the cancellation debt: a
  /// cancelled event's callback is freed at once, and its 24-byte key is
  /// compacted away before it can accumulate.
  size_t buffered_entries() const { return heap_.size(); }

  /// Callback slots currently allocated (live events, cancelled keys
  /// still in the heap, and the free list).
  size_t allocated_slots() const { return slots_.size(); }

 private:
  struct Entry {
    int64_t time_us;
    uint64_t seq;
    int32_t priority;
    uint32_t slot;
  };

  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  struct Slot {
    EventFn fn;
    uint32_t gen = 1;  ///< bumped when the event fires or is cancelled
    uint32_t next_free = kNoSlot;
    bool live = false;
  };

  /// Heap order for the std:: heap algorithms: "a fires after b".
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time_us != b.time_us) return a.time_us > b.time_us;
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.seq > b.seq;
  }

  /// Ends the slot's event: destroys the callback, invalidates handles.
  void Retire(Slot& s);
  /// Returns a slot whose key has left the heap to the free list.
  void Release(uint32_t slot);
  /// Pops cancelled keys off the top of the heap.
  void SkipDead();
  /// Drops every cancelled key and rebuilds the heap.
  void Compact();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  size_t dead_ = 0;  ///< cancelled keys still in heap_
  size_t size_ = 0;  ///< live events
  uint64_t next_seq_ = 1;
};

}  // namespace stagger

#endif  // STAGGER_SIM_EVENT_QUEUE_H_
