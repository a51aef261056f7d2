// The service interface a media server exposes to display stations.
// Implemented by the staggered/simple-striping server (src/server) and
// the virtual-data-replication baseline (src/baseline), so the same
// workload drives both in the Section 4 comparison.

#ifndef STAGGER_WORKLOAD_MEDIA_SERVICE_H_
#define STAGGER_WORKLOAD_MEDIA_SERVICE_H_

#include <functional>

#include "storage/media_object.h"
#include "util/status.h"
#include "util/units.h"

namespace stagger {

/// \brief Asynchronous display service.
class MediaService {
 public:
  virtual ~MediaService() = default;

  /// Invoked when the display's first subobject is delivered; the
  /// argument is the startup latency (request arrival to display start).
  using StartedFn = std::function<void(SimTime)>;
  /// Invoked when the display's last subobject is delivered.
  using CompletedFn = std::function<void()>;
  /// Invoked when the service abandons the display mid-stream (a
  /// striped stream paused longer than its pause cap).
  /// Exactly one of on_completed / on_interrupted eventually fires for
  /// an accepted request; a service that never abandons displays simply
  /// never invokes it.
  using InterruptedFn = std::function<void()>;

  /// Requests one complete display of `object`.  The call returns
  /// immediately; progress is reported through the callbacks.  Errors
  /// (unknown object, invalid state) surface as a non-OK Status and no
  /// callbacks fire.
  virtual Status RequestDisplay(ObjectId object, StartedFn on_started,
                                CompletedFn on_completed,
                                InterruptedFn on_interrupted = nullptr) = 0;
};

}  // namespace stagger

#endif  // STAGGER_WORKLOAD_MEDIA_SERVICE_H_
