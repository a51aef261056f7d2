// Lifecycle events of the displays a scheduler serves.  The scheduler
// (Section 3.2.1) only admits displays and moves them along; whoever
// cares when one starts or ends hears it here, by request id.

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

}  // namespace stagger

#endif  // STAGGER_CORE_DISPLAY_LISTENER_H_
