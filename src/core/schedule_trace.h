// Records the per-interval read schedule and renders it as the paper's
// Figure 3 ("read Z(k+1) / read X(i+1) / idle" per cluster per
// interval) or as a raw disk-by-interval grid.  Attach via
// SchedulerConfig::read_listener (or StripedConfig::read_listener).

#ifndef STAGGER_CORE_SCHEDULE_TRACE_H_
#define STAGGER_CORE_SCHEDULE_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "core/display_listener.h"
#include "storage/media_object.h"
#include "util/table.h"

namespace stagger {

/// \brief Accumulates (interval, object, subobject, fragment, disk)
/// read events.
class ScheduleTracer : public ReadListener {
 public:
  /// \brief One recorded fragment read.
  struct Event {
    ObjectId object;
    int64_t subobject;
    int32_t fragment;
  };

  /// \param num_disks      D.
  /// \param max_intervals  recording stops after this many intervals
  ///                       (keeps traces bounded); <= 0 records forever.
  explicit ScheduleTracer(int32_t num_disks, int64_t max_intervals = 64);

  void OnRead(int64_t interval, ObjectId object, int64_t subobject,
              int32_t fragment, int32_t disk) override;

  /// Assigns a display name to an object id (defaults to "#<id>").
  void Name(ObjectId object, std::string name);

  int64_t num_events() const { return num_events_; }
  int64_t last_interval() const { return last_interval_; }
  /// Events recorded onto an already-occupied (interval, disk) cell: a
  /// disk asked to transfer two fragments in one interval, i.e. a
  /// B_Disk bandwidth-conservation violation.  The auditor requires 0.
  int64_t num_collisions() const { return num_collisions_; }
  /// True when events past `max_intervals` were dropped; completeness
  /// audits are skipped on truncated traces.
  bool truncated() const { return truncated_; }
  /// Raw recorded schedule: events()[interval][disk].
  const std::map<int64_t, std::map<int32_t, Event>>& events() const {
    return events_;
  }

  /// Figure 3 rendering: one row per interval, one column per cluster
  /// of `cluster_size` adjacent disks; each cell is "read X(s)" for the
  /// subobject read from that cluster, or "idle".  Only meaningful when
  /// displays are cluster-aligned (k = M).
  Table RenderClusters(int32_t cluster_size) const;

  /// Raw rendering: one row per interval, one column per disk; cells
  /// are "X0.2"-style fragment names (Figures 1/4/5 orientation).
  Table RenderDisks() const;

 private:
  std::string NameOf(ObjectId object) const;

  int32_t num_disks_;
  int64_t max_intervals_;
  int64_t num_events_ = 0;
  int64_t num_collisions_ = 0;
  bool truncated_ = false;
  int64_t last_interval_ = -1;
  /// events_[interval][disk]
  std::map<int64_t, std::map<int32_t, Event>> events_;
  std::map<ObjectId, std::string> names_;
};

}  // namespace stagger

#endif  // STAGGER_CORE_SCHEDULE_TRACE_H_
