#include "workload/open_arrivals.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace stagger {

namespace {
constexpr double kTwoPi = 6.283185307179586476925287;
}  // namespace

Status OpenArrivalsConfig::Validate() const {
  if (mean_interarrival <= SimTime::Zero()) {
    return Status::InvalidArgument("mean interarrival must be positive");
  }
  if (diurnal_amplitude < 0.0 || diurnal_amplitude > 1.0) {
    return Status::InvalidArgument("diurnal amplitude must be in [0, 1]");
  }
  if (diurnal_amplitude > 0.0 && diurnal_period <= SimTime::Zero()) {
    return Status::InvalidArgument("diurnal period must be positive");
  }
  for (const FlashCrowd& crowd : flash_crowds) {
    if (crowd.duration <= SimTime::Zero()) {
      return Status::InvalidArgument("flash crowd duration must be positive");
    }
    if (crowd.object < 0) {
      return Status::InvalidArgument("flash crowd needs a valid hot object");
    }
    if (crowd.hot_fraction < 0.0 || crowd.hot_fraction > 1.0) {
      return Status::InvalidArgument("hot fraction must be in [0, 1]");
    }
    if (crowd.rate_multiplier < 1.0) {
      return Status::InvalidArgument("crowd rate multiplier must be >= 1");
    }
  }
  if (scan_probability < 0.0 || scan_probability > 1.0) {
    return Status::InvalidArgument("scan probability must be in [0, 1]");
  }
  if (pause_probability < 0.0 || pause_probability > 1.0) {
    return Status::InvalidArgument("pause probability must be in [0, 1]");
  }
  if (pause_probability > 0.0 && mean_pause < SimTime::Zero()) {
    return Status::InvalidArgument("mean pause must be >= 0");
  }
  return Status::OK();
}

OpenArrivals::OpenArrivals(Simulator* sim, MediaService* service,
                           const DiscreteDistribution* distribution,
                           OpenArrivalsConfig config)
    : sim_(sim), service_(service), distribution_(distribution),
      config_(std::move(config)), rng_(config_.seed) {
  STAGGER_CHECK_OK(config_.Validate());
  // Thinning envelope: an upper bound on the instantaneous multiplier.
  // The product over crowds bounds any overlap; exactly 1.0 when every
  // extension is off, which skips the thinning draw.
  peak_multiplier_ = 1.0 + config_.diurnal_amplitude;
  for (const FlashCrowd& crowd : config_.flash_crowds) {
    peak_multiplier_ *= crowd.rate_multiplier;
  }
}

double OpenArrivals::RateMultiplierAt(SimTime t) const {
  double multiplier = 1.0;
  if (config_.diurnal_amplitude > 0.0) {
    multiplier *= 1.0 + config_.diurnal_amplitude *
                            std::sin(kTwoPi * t.seconds() /
                                     config_.diurnal_period.seconds());
  }
  for (const FlashCrowd& crowd : config_.flash_crowds) {
    if (t >= crowd.start && t < crowd.start + crowd.duration) {
      multiplier *= crowd.rate_multiplier;
    }
  }
  return multiplier;
}

void OpenArrivals::Start() {
  STAGGER_CHECK(!running_) << "arrival stream already running";
  running_ = true;
  ScheduleNext();
}

void OpenArrivals::ScheduleNext() {
  // Candidates arrive at the peak rate; each is accepted with
  // probability multiplier(now) / peak, which thins the stream to the
  // exact time-varying rate while staying deterministic per seed.
  const SimTime gap = SimTime::Seconds(rng_.NextExponential(
      config_.mean_interarrival.seconds() / peak_multiplier_));
  sim_->ScheduleAfter(gap, [this] {
    if (!running_) return;
    if (peak_multiplier_ == 1.0 ||
        rng_.NextDouble() * peak_multiplier_ <= RateMultiplierAt(sim_->Now())) {
      Issue();
    }
    ScheduleNext();
  });
}

ObjectId OpenArrivals::SampleObject() {
  ObjectId object = static_cast<ObjectId>(distribution_->Sample(&rng_));
  const SimTime now = sim_->Now();
  for (const FlashCrowd& crowd : config_.flash_crowds) {
    if (now < crowd.start || now >= crowd.start + crowd.duration) continue;
    if (rng_.NextDouble() < crowd.hot_fraction) {
      ++flash_redirects_;
      object = crowd.object;
      break;
    }
  }
  return object;
}

void OpenArrivals::Issue() {
  const ObjectId object = SampleObject();

  // Fixed draw order (scan, then pause) keeps the stream deterministic;
  // a probability of zero consumes no draw at all.
  bool scan = false;
  if (config_.scan_probability > 0.0) {
    const bool drew_scan = rng_.NextDouble() < config_.scan_probability;
    const ObjectId replica =
        static_cast<size_t>(object) < config_.scan_replica.size()
            ? config_.scan_replica[static_cast<size_t>(object)]
            : kInvalidObject;
    scan = drew_scan && replica != kInvalidObject;
  }
  bool pause = false;
  if (config_.pause_probability > 0.0) {
    pause = rng_.NextDouble() < config_.pause_probability;
  }

  // Session tail: after the normal-speed display completes, an optional
  // pause/resume re-requests the same object — the repeat same-object
  // traffic stream batching absorbs.
  std::function<void()> tail;
  if (pause) {
    tail = [this, object] {
      const SimTime pause_gap = SimTime::Seconds(
          rng_.NextExponential(config_.mean_pause.seconds()));
      sim_->ScheduleAfter(pause_gap, [this, object] {
        if (!running_) return;
        ++vcr_resumes_;
        IssueDisplay(object, {});
      });
    };
  }

  if (scan) {
    // Scan-then-play: the fast-forward replica covers the timeline
    // `speedup` times faster; when it completes the station plays the
    // original from the start.
    ++vcr_scans_;
    const ObjectId replica = config_.scan_replica[static_cast<size_t>(object)];
    IssueDisplay(replica, [this, object, tail = std::move(tail)]() mutable {
      IssueDisplay(object, std::move(tail));
    });
  } else {
    IssueDisplay(object, std::move(tail));
  }
}

void OpenArrivals::IssueDisplay(ObjectId object,
                                std::function<void()> next_leg) {
  ++requests_;
  const bool in_window = sim_->Now() >= config_.measure_start;
  Status st = service_->RequestDisplay(
      object,
      [this, in_window](SimTime latency) {
        latency_.Add(latency.seconds());
        if (in_window) admission_latency_.Add(latency.seconds());
      },
      [this, in_window, next = std::move(next_leg)] {
        ++completed_;
        if (in_window) ++completed_in_window_;
        if (next) next();
      },
      [this] { ++interrupted_; });
  STAGGER_CHECK(st.ok()) << "RequestDisplay failed: " << st.ToString();
}

}  // namespace stagger
