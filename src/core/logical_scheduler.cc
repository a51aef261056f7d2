#include "core/logical_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/invariants.h"
#include "util/check.h"

namespace stagger {

Status LogicalSchedulerConfig::Validate() const {
  if (num_disks < 1) {
    return Status::InvalidArgument("logical scheduler needs disks");
  }
  if (stride < 1 || stride > num_disks) {
    return Status::InvalidArgument("stride must be in [1, D]");
  }
  if (logical_per_disk < 1) {
    return Status::InvalidArgument("need >= 1 logical disk per physical");
  }
  if (interval <= SimTime::Zero()) {
    return Status::InvalidArgument("interval must be positive");
  }
  return Status::OK();
}

Result<std::unique_ptr<LogicalDiskScheduler>> LogicalDiskScheduler::Create(
    Simulator* sim, const LogicalSchedulerConfig& config,
    DisplayListener* listener) {
  STAGGER_RETURN_NOT_OK(config.Validate());
  STAGGER_ASSIGN_OR_RETURN(
      VirtualDiskFrame frame,
      VirtualDiskFrame::Create(config.num_disks, config.stride));
  return std::unique_ptr<LogicalDiskScheduler>(
      new LogicalDiskScheduler(sim, config, frame, listener));
}

LogicalDiskScheduler::LogicalDiskScheduler(Simulator* sim,
                                           LogicalSchedulerConfig config,
                                           VirtualDiskFrame frame,
                                           DisplayListener* listener)
    : sim_(sim), config_(config), listener_(listener), frame_(frame),
      epoch_(sim->Now()),
      used_units_(static_cast<size_t>(config.num_disks), 0) {
  ticker_ = std::make_unique<PeriodicTicker>(
      sim_, epoch_, config_.interval, [this](int64_t tick) { Tick(tick); });
}

LogicalDiskScheduler::~LogicalDiskScheduler() = default;

int32_t LogicalDiskScheduler::UnitsOnLane(int64_t units, int32_t lane,
                                          bool partial_first) const {
  const int32_t width = WidthOf(units);
  STAGGER_DCHECK(lane >= 0 && lane < width);
  const int32_t partial_lane = partial_first ? 0 : width - 1;
  if (lane != partial_lane) return config_.logical_per_disk;
  // The single possibly-partial lane takes whatever the full lanes
  // leave over (equal to L when units divide evenly).
  return static_cast<int32_t>(
      units - static_cast<int64_t>(config_.logical_per_disk) * (width - 1));
}

Result<RequestId> LogicalDiskScheduler::Submit(LogicalRequest request) {
  const int64_t max_units = static_cast<int64_t>(config_.num_disks) *
                            config_.logical_per_disk;
  if (request.units < 1 || request.units > max_units) {
    return Status::InvalidArgument("units must be in [1, D*L]");
  }
  if (request.num_subobjects < 1) {
    return Status::InvalidArgument("need at least one subobject");
  }
  if (request.start_disk < 0 || request.start_disk >= config_.num_disks) {
    return Status::InvalidArgument("start disk out of range");
  }
  const RequestId id = next_id_++;
  queue_.push_back(Pending{id, std::move(request), sim_->Now()});
  ++metrics_.displays_requested;
  return id;
}

void LogicalDiskScheduler::Reserve(int32_t first_vdisk, int64_t units,
                                   bool partial_first, int32_t sign) {
  const int32_t width = WidthOf(units);
  for (int32_t lane = 0; lane < width; ++lane) {
    const int32_t v = static_cast<int32_t>(
        PositiveMod(static_cast<int64_t>(first_vdisk) + lane,
                    config_.num_disks));
    used_units_[static_cast<size_t>(v)] +=
        sign * UnitsOnLane(units, lane, partial_first);
    STAGGER_DCHECK(used_units_[static_cast<size_t>(v)] >= 0);
    STAGGER_DCHECK(used_units_[static_cast<size_t>(v)] <=
                   config_.logical_per_disk);
  }
}

bool LogicalDiskScheduler::TryAdmit(const Pending& p) {
  const int32_t v0 = frame_.VirtualOf(p.req.start_disk, interval_index_);
  const int32_t width = WidthOf(p.req.units);
  if (width > config_.num_disks) return false;
  for (int32_t lane = 0; lane < width; ++lane) {
    const int32_t v = static_cast<int32_t>(
        PositiveMod(static_cast<int64_t>(v0) + lane, config_.num_disks));
    if (FreeUnits(v) <
        UnitsOnLane(p.req.units, lane, p.req.partial_lane_first)) {
      return false;
    }
  }
  Reserve(v0, p.req.units, p.req.partial_lane_first, +1);

  const SimTime latency = sim_->Now() - p.arrival;
  metrics_.startup_latency_sec.Add(latency.seconds());
  if (listener_) listener_->OnStarted(p.id, latency);
  streams_.emplace(p.id, ActiveStream{p.req, v0});
  return true;
}

void LogicalDiskScheduler::Tick(int64_t tick_index) {
  interval_index_ = tick_index;

  // Admissions (FIFO with backfill).
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (TryAdmit(*it)) {
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }

  // Advance streams: one subobject per interval each.
  std::vector<RequestId> ids;
  ids.reserve(streams_.size());
  // stagger-lint: allow(determinism-unordered-iter) -- collects ids and sorts them before any stateful work; hash order never reaches the schedule
  for (const auto& [id, s] : streams_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  double buffered = 0.0;
  for (RequestId id : ids) {
    ActiveStream& s = streams_.at(id);
    metrics_.unit_intervals_used += s.req.units;
    // A lane holding u < L units reads at full rate for u/L of the
    // interval but transmits throughout: it buffers (1 - u/L) of its
    // per-interval data (Figure 7's half-subobject for u/L = 1/2).
    const int32_t width = WidthOf(s.req.units);
    const int32_t partial_lane = s.req.partial_lane_first ? 0 : width - 1;
    const int32_t partial =
        UnitsOnLane(s.req.units, partial_lane, s.req.partial_lane_first);
    if (partial < config_.logical_per_disk) {
      buffered +=
          1.0 - static_cast<double>(partial) / config_.logical_per_disk;
    }
    ++s.delivered;
  }
  metrics_.buffered_fraction.Set(sim_->Now(), buffered);

  // Completions.
  for (RequestId id : ids) {
    auto it = streams_.find(id);
    ActiveStream& s = it->second;
    if (s.delivered >= s.req.num_subobjects) {
      Reserve(s.first_vdisk, s.req.units, s.req.partial_lane_first, -1);
      streams_.erase(it);
      ++metrics_.displays_completed;
      if (listener_) listener_->OnCompleted(id);
    }
  }
  ++metrics_.intervals_elapsed;
#ifdef STAGGER_AUDIT
  // Self-check every simulated interval: logical-unit occupancy must
  // stay within [0, L] per disk and balance against active streams.
  STAGGER_CHECK_OK(InvariantAuditor::AuditLogicalScheduler(*this));
#endif
}

double LogicalDiskScheduler::Utilization() const {
  const double capacity = static_cast<double>(metrics_.intervals_elapsed) *
                          config_.num_disks * config_.logical_per_disk;
  return capacity <= 0.0
             ? 0.0
             : static_cast<double>(metrics_.unit_intervals_used) / capacity;
}

}  // namespace stagger
