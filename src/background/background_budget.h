// A shared idle-bandwidth budget for background subsystems.
//
// The interval scheduler exposes one idle-bandwidth hook per interval:
// whatever disks display traffic left idle may be used for maintenance
// work.  Two consumers take it, the rebuild manager (src/rebuild/) and
// the scrubber (src/scrub/); the accounting lives here so they cannot
// fight over the same idle disk or starve one another.
//
// Per interval the arbiter measures the idle bandwidth
// (DiskArray::IdleAvailableCount), then offers each registered consumer
// a BackgroundGrant in priority order (rebuild before scrub).  A grant
// enforces the consumer's per-interval read cap and routes every
// reservation through the array's busy bitmap, so a disk a high-
// priority consumer takes is simply no longer grantable to the next —
// the combined draw structurally cannot exceed the measured idle
// bandwidth, and the arbiter audits exactly that every interval.
//
// Starvation avoidance: a consumer with a positive floor that has work
// but has made no progress for `starvation_floor_intervals` intervals
// is served *first* the next interval, ahead of higher priorities, for
// one interval.  This bounds scrub latency under a rebuild storm
// without giving scrub steady-state priority.

#ifndef STAGGER_BACKGROUND_BACKGROUND_BUDGET_H_
#define STAGGER_BACKGROUND_BACKGROUND_BUDGET_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "disk/disk_array.h"
#include "util/status.h"

namespace stagger {

/// \brief One interval's allowance for one background consumer.
///
/// All background I/O must go through a grant: CanRead/ReadSlot check
/// and take slot reservations against the array's live busy bitmap plus
/// this consumer's read cap; CanWriteDrive/WriteDrive do the same for
/// spare-drive writes (uncapped — a spare serves no display traffic, so
/// its bandwidth is not part of the foreground budget).
class BackgroundGrant {
 public:
  /// \param max_reads per-interval read cap; 0 means uncapped.
  BackgroundGrant(DiskArray* disks, int64_t max_reads)
      : disks_(disks),
        max_reads_(max_reads == 0 ? std::numeric_limits<int64_t>::max()
                                  : max_reads) {}

  /// True when `slot` may be read this interval: budget left, the slot
  /// available, and nobody (foreground or a higher-priority consumer)
  /// already reserved it.
  bool CanRead(DiskId slot) const {
    return reads_ < max_reads_ && disks_->IsAvailable(slot) &&
           !disks_->SlotBusy(slot);
  }
  /// Takes the read reservation.  Precondition: CanRead(slot).
  void ReadSlot(DiskId slot) {
    disks_->ReserveSlot(slot);
    ++reads_;
  }

  bool CanWriteDrive(int32_t drive) const { return !disks_->DriveBusy(drive); }
  /// Takes a spare-drive write reservation.  Precondition:
  /// CanWriteDrive(drive).
  void WriteDrive(int32_t drive) {
    disks_->ReserveDrive(drive);
    ++spare_writes_;
  }

  int64_t reads_remaining() const { return max_reads_ - reads_; }
  int64_t reads() const { return reads_; }
  int64_t spare_writes() const { return spare_writes_; }

 private:
  DiskArray* disks_;
  int64_t max_reads_;
  int64_t reads_ = 0;
  int64_t spare_writes_ = 0;
};

/// \brief A background subsystem that drains idle bandwidth.
class BackgroundConsumer {
 public:
  virtual ~BackgroundConsumer() = default;
  /// Stable name for stats lookup and reporting.
  virtual const char* name() const = 0;
  /// True when the consumer would use a grant this interval.
  virtual bool HasWork() const = 0;
  /// Runs one interval's work within `grant`; returns the number of
  /// work units completed (fragments rebuilt, stripes scrubbed, ...).
  virtual int64_t RunIdle(int64_t interval, BackgroundGrant* grant) = 0;
};

/// \brief Registration-time policy for one consumer.
struct BackgroundConsumerConfig {
  /// Lower serves first (rebuild 0, scrub 1); ties in registration
  /// order.
  int32_t priority = 0;
  /// Per-interval read cap; 0 = uncapped.
  int64_t max_reads_per_interval = 0;
  /// > 0: if the consumer has work but makes no progress for this many
  /// intervals, it is served first for one interval.  0 disables.
  int64_t starvation_floor_intervals = 0;
};

/// \brief Per-consumer progress accounting.
struct BackgroundConsumerStats {
  int64_t granted_intervals = 0;   ///< intervals offered a grant with work
  int64_t progress_intervals = 0;  ///< intervals with > 0 work units
  int64_t starved_intervals = 0;   ///< had work, got nothing done
  int64_t boosted_runs = 0;        ///< starvation-floor priority boosts
  int64_t ops = 0;                 ///< total work units completed
  int64_t reads = 0;
  int64_t spare_writes = 0;
};

/// \brief Arbiter-wide counters.
struct BackgroundBudgetMetrics {
  int64_t intervals = 0;
  /// Sum over intervals of the measured idle available bandwidth.
  int64_t idle_capacity = 0;
  int64_t reads_granted = 0;
  int64_t spare_writes_granted = 0;
  /// Intervals where combined consumer reads exceeded the measured
  /// idle bandwidth.  Any non-zero value is an arbiter bug; audited.
  int64_t budget_violations = 0;
};

/// \brief Priority arbiter over the idle-bandwidth hook.
///
/// Install exactly one per scheduler via
/// IntervalScheduler::SetIdleBandwidthHook; consumers register once at
/// setup.  Single-threaded like the scheduler tick that drives it.
class BackgroundBudget {
 public:
  explicit BackgroundBudget(DiskArray* disks) : disks_(disks) {}

  /// Registers `consumer`; `consumer` must outlive the budget.
  void Register(BackgroundConsumer* consumer,
                const BackgroundConsumerConfig& config);

  /// Serves every consumer for one interval (see file comment for the
  /// boost-then-priority order).
  void OnIdleInterval(int64_t interval);

  const BackgroundBudgetMetrics& metrics() const { return metrics_; }
  /// Stats of a registered consumer; CHECK-fails for strangers.
  const BackgroundConsumerStats& stats(const BackgroundConsumer* consumer) const;

  /// Internal-consistency audit: zero budget violations.
  Status AuditState() const;

 private:
  struct Entry {
    BackgroundConsumer* consumer = nullptr;
    BackgroundConsumerConfig config;
    BackgroundConsumerStats stats;
    int64_t last_progress_interval = -1;
  };

  DiskArray* disks_;
  /// Sorted by (priority, registration order) at Register time.
  std::vector<Entry> entries_;
  /// Scratch serve order, rebuilt per interval; index into entries_.
  std::vector<size_t> serve_order_;
  BackgroundBudgetMetrics metrics_;
};

}  // namespace stagger

#endif  // STAGGER_BACKGROUND_BACKGROUND_BUDGET_H_
