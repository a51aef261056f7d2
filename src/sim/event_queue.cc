#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/hot_path.h"

namespace stagger {

EventHandle EventQueue::Schedule(SimTime when, EventFn fn, int priority) {
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  heap_.push_back(Entry{when.micros(), next_seq_++, priority, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  ++size_;
  return EventHandle((uint64_t{slot} << 32) | s.gen);
}

bool EventQueue::Cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const uint32_t slot = static_cast<uint32_t>(handle.id_ >> 32);
  const uint32_t gen = static_cast<uint32_t>(handle.id_);
  // A stale generation means the event already fired or was cancelled
  // (and the slot possibly reused): a no-op returning false.
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.gen != gen) return false;
  Retire(s);
  --size_;
  // The key stays behind; rebuilding once cancelled keys are half the
  // heap keeps the debt bounded at O(1) amortized per cancel.
  if (++dead_ * 2 >= heap_.size()) Compact();
  return true;
}

void EventQueue::Retire(Slot& s) {
  s.fn = nullptr;
  s.live = false;
  // gen 0 is reserved: a (slot 0, gen 0) handle would alias the invalid
  // default-constructed EventHandle.
  if (++s.gen == 0) s.gen = 1;
}

void EventQueue::Release(uint32_t slot) {
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

STAGGER_HOT_PATH void EventQueue::SkipDead() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    Release(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
    STAGGER_DCHECK(dead_ > 0);
    --dead_;
  }
}

void EventQueue::Compact() {
  size_t out = 0;
  for (const Entry& e : heap_) {
    if (slots_[e.slot].live) {
      heap_[out++] = e;
    } else {
      Release(e.slot);
    }
  }
  STAGGER_DCHECK(out == size_);
  heap_.resize(out);
  std::make_heap(heap_.begin(), heap_.end(), Later);
  dead_ = 0;
}

STAGGER_HOT_PATH SimTime EventQueue::NextTime() const {
  if (size_ == 0) return SimTime::Max();
  // Dropping cancelled keys does not change observable state, so it is
  // safe behind const.
  const_cast<EventQueue*>(this)->SkipDead();
  return SimTime(heap_.front().time_us);
}

STAGGER_HOT_PATH EventQueue::Fired EventQueue::PopNext() {
  STAGGER_CHECK(size_ != 0) << "PopNext on empty event queue";
  SkipDead();
  const Entry e = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
  Slot& s = slots_[e.slot];
  STAGGER_DCHECK(s.live);
  Fired fired{SimTime(e.time_us), e.priority, e.seq, std::move(s.fn)};
  Retire(s);
  Release(e.slot);
  --size_;
  return fired;
}

}  // namespace stagger
