// Interval scheduler over *logical* disks (Section 3.2.3).  Each
// physical disk is split into L logical disks of B_Disk / L; a display
// reserves an integral number of logical units per interval, so several
// low-bandwidth objects can share one disk within a time interval
// (Figure 7), at the cost of buffering the fraction of a lane's data
// read ahead of its transmission slot.
//
// This is a deliberately simpler sibling of IntervalScheduler —
// contiguous admission only, FIFO with backfill — used by the E7
// benchmark and the low-bandwidth example to *measure* the rounding
// waste that whole-disk allocation incurs.

#ifndef STAGGER_CORE_LOGICAL_SCHEDULER_H_
#define STAGGER_CORE_LOGICAL_SCHEDULER_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/display_listener.h"
#include "core/stream.h"
#include "core/virtual_disk.h"
#include "sim/simulator.h"
#include "storage/media_object.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/units.h"

namespace stagger {

/// \brief Configuration for the logical-disk scheduler.
struct LogicalSchedulerConfig {
  int32_t num_disks = 0;          ///< D
  int32_t stride = 1;             ///< k
  int32_t logical_per_disk = 2;   ///< L
  SimTime interval = SimTime::Millis(605);

  Status Validate() const;
};

/// \brief One display request in logical units.
struct LogicalRequest {
  ObjectId object = kInvalidObject;
  int32_t start_disk = 0;
  /// Logical units reserved per interval (see AllocateLogical).
  int64_t units = 0;
  int64_t num_subobjects = 0;
  /// Places the partial lane on the *first* disk instead of the last,
  /// letting two fractional objects share a middle disk (Figure 7's
  /// X-then-Y pairing: X = [full, half], Y = [half, full]).
  bool partial_lane_first = false;
};

/// \brief Counters reported by the logical scheduler.
struct LogicalSchedulerMetrics {
  int64_t displays_requested = 0;
  int64_t displays_completed = 0;
  StreamingStats startup_latency_sec;
  /// Unit-intervals actually reserved (for utilization).
  int64_t unit_intervals_used = 0;
  int64_t intervals_elapsed = 0;
  /// Fraction-of-interval buffer load contributed by partial lanes,
  /// time-averaged in fragments.
  TimeWeighted buffered_fraction;
};

/// \brief Interval-synchronous scheduler with L logical units per disk.
///
/// Reports OnStarted at admission and OnCompleted after the last
/// subobject to its DisplayListener; it never interrupts a display.
class LogicalDiskScheduler {
 public:
  /// `listener` may be null; when set it must outlive the scheduler.
  static Result<std::unique_ptr<LogicalDiskScheduler>> Create(
      Simulator* sim, const LogicalSchedulerConfig& config,
      DisplayListener* listener = nullptr);

  ~LogicalDiskScheduler();
  LogicalDiskScheduler(const LogicalDiskScheduler&) = delete;
  LogicalDiskScheduler& operator=(const LogicalDiskScheduler&) = delete;

  Result<RequestId> Submit(LogicalRequest request);

  const LogicalSchedulerMetrics& metrics() const { return metrics_; }
  const LogicalSchedulerConfig& config() const { return config_; }
  size_t active_streams() const { return streams_.size(); }
  size_t pending_requests() const { return queue_.size(); }

  /// Free units on the virtual disk `v` this interval.
  int32_t FreeUnits(int32_t v) const {
    return config_.logical_per_disk - used_units_[static_cast<size_t>(v)];
  }
  /// Mean unit utilization over elapsed intervals.
  double Utilization() const;

 private:
  friend class InvariantAuditor;

  struct ActiveStream {
    LogicalRequest req;
    int32_t first_vdisk = 0;  ///< units occupy vdisks first..first+w-1
    int64_t delivered = 0;
  };
  struct Pending {
    RequestId id;
    LogicalRequest req;
    SimTime arrival;
  };

  LogicalDiskScheduler(Simulator* sim, LogicalSchedulerConfig config,
                       VirtualDiskFrame frame, DisplayListener* listener);

  /// Units the stream places on lane index `lane` (full L except one
  /// possibly-partial lane — last by default, first when
  /// `partial_first`).
  int32_t UnitsOnLane(int64_t units, int32_t lane, bool partial_first) const;
  int32_t WidthOf(int64_t units) const {
    return static_cast<int32_t>(CeilDiv(units, config_.logical_per_disk));
  }
  void Tick(int64_t tick_index);
  bool TryAdmit(const Pending& p);
  void Reserve(int32_t first_vdisk, int64_t units, bool partial_first,
               int32_t sign);

  Simulator* sim_;
  LogicalSchedulerConfig config_;
  DisplayListener* listener_;
  VirtualDiskFrame frame_;
  SimTime epoch_;
  int64_t interval_index_ = 0;
  std::vector<int32_t> used_units_;
  std::unordered_map<RequestId, ActiveStream> streams_;
  std::deque<Pending> queue_;
  RequestId next_id_ = 1;
  LogicalSchedulerMetrics metrics_;
  std::unique_ptr<PeriodicTicker> ticker_;
};

}  // namespace stagger

#endif  // STAGGER_CORE_LOGICAL_SCHEDULER_H_
