// Lifecycle events and reads of the displays a scheduler serves.  The
// scheduler (Section 3.2.1) only admits displays and moves them along;
// whoever cares when one starts, ends or reads hears it here.

#ifndef STAGGER_CORE_DISPLAY_LISTENER_H_
#define STAGGER_CORE_DISPLAY_LISTENER_H_

#include "core/stream.h"
#include "util/units.h"

namespace stagger {

/// \brief Receives a scheduler's display lifecycle events; each event
/// it does not override is ignored.
///
/// For an accepted request, OnStarted fires at most once, when its first
/// subobject is delivered (never again after a degraded-mode resume or a
/// Seek), and exactly one of OnCompleted and OnInterrupted fires
/// eventually unless the request is cancelled; nothing fires after a
/// Cancel.  A Seek moves the display to the handle it returns, and later
/// events carry that handle.  Events fire from inside the tick; a
/// listener may Submit new requests from them.
class DisplayListener {
 public:
  virtual ~DisplayListener() = default;

  /// The first subobject of request `id` was delivered, `latency` after
  /// the request arrived.
  virtual void OnStarted(RequestId /*id*/, SimTime /*latency*/) {}
  /// The last subobject of request `id` was delivered.
  virtual void OnCompleted(RequestId /*id*/) {}
  /// The degraded-mode policy abandoned request `id` (a pause longer
  /// than the cap); never fires for a user-initiated Cancel.
  virtual void OnInterrupted(RequestId /*id*/) {}
};

/// \brief Hears every fragment read of a scheduler, once, in its
/// interval; the reads of one interval come in no particular order, and
/// a read given back (its stream pauses first, or its lane migrates) is
/// not heard.  Slept-through intervals are heard in closed form before
/// the next event runs, so OnRead must neither schedule nor cancel
/// events.
class ReadListener {
 public:
  virtual ~ReadListener() = default;
  /// Fragment `fragment` of layout row `layout_row` of `object` was read
  /// in `interval` from physical disk `disk` (for a degraded read, the
  /// substitute or parity disk actually read).
  virtual void OnRead(int64_t interval, ObjectId object, int64_t layout_row,
                      int32_t fragment, int32_t disk) = 0;
};

}  // namespace stagger

#endif  // STAGGER_CORE_DISPLAY_LISTENER_H_
