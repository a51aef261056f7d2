// Open workload: requests arrive in a Poisson stream at rate lambda,
// independent of completions — the complement of the paper's closed
// station model, used for latency-vs-load studies where the offered
// load must not throttle itself.
//
// Beyond the plain Poisson stream, the generator models three workload
// shapes:
//   - a diurnal cycle: lambda(t) = lambda0 * (1 + A sin(2 pi t / P)),
//     realized by thinning a Poisson stream at the peak rate, so runs
//     stay deterministic per seed;
//   - flash crowds: timed windows that multiply the arrival rate and
//     redirect a fraction of arrivals to one hot object — the workload
//     stream batching (workload/batcher.h) exists to absorb;
//   - VCR sessions: with probability scan_probability a station first
//     scans the object's fast-forward replica (core/fast_forward) and
//     then plays the original; with probability pause_probability it
//     pauses after the display and resumes — modeled as a re-request of
//     the same object after an exponential pause, which creates the
//     repeat same-object traffic batching merges.
//
// With every extension disabled the thinning draw is skipped, so the
// generator draws a plain Poisson stream: one exponential gap and one
// popularity draw per arrival.

#ifndef STAGGER_WORKLOAD_OPEN_ARRIVALS_H_
#define STAGGER_WORKLOAD_OPEN_ARRIVALS_H_

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/media_service.h"

namespace stagger {

/// \brief One timed flash-crowd spike.
struct FlashCrowd {
  SimTime start;                ///< when the crowd forms
  SimTime duration;             ///< how long it lasts (> 0)
  ObjectId object = 0;          ///< the object everyone wants
  /// Fraction of arrivals inside the window redirected to `object`.
  double hot_fraction = 0.8;
  /// Arrival-rate multiplier while the crowd is active (>= 1).
  double rate_multiplier = 1.0;
};

/// \brief Arrival-stream configuration; defaults reproduce the plain
/// Poisson stream.
struct OpenArrivalsConfig {
  SimTime mean_interarrival;    ///< base mean gap (> 0)
  uint64_t seed = 1;

  /// Diurnal amplitude A in [0, 1]: rate swings between
  /// lambda0 * (1 - A) and lambda0 * (1 + A).  Zero disables the cycle.
  double diurnal_amplitude = 0.0;
  SimTime diurnal_period = SimTime::Hours(24);

  std::vector<FlashCrowd> flash_crowds;

  /// Probability a session scans (fast-forward replica first, then the
  /// original).  Needs `scan_replica` entries to take effect.
  double scan_probability = 0.0;
  /// Probability a session pauses after its display and resumes —
  /// re-requesting the same object after an exponential pause.
  double pause_probability = 0.0;
  SimTime mean_pause = SimTime::Minutes(5);
  /// scan_replica[original] = catalog id of the fast-forward replica,
  /// or kInvalidObject when the object has none.  May be shorter than
  /// the catalog (missing entries = no replica).  Build it with
  /// AddFastForwardReplicas (core/fast_forward.h).
  std::vector<ObjectId> scan_replica;

  /// Latency samples and in-window counters only accrue for requests
  /// issued at or after this time (warmup exclusion).
  SimTime measure_start = SimTime::Zero();

  Status Validate() const;
};

/// \brief Poisson request generator over a MediaService.
class OpenArrivals {
 public:
  /// \param sim          kernel; outlives the generator.
  /// \param service      server under test; outlives it.
  /// \param distribution object popularity; outlives it.
  /// \param config       arrival rate, seed and workload shape;
  ///                     validated here.
  OpenArrivals(Simulator* sim, MediaService* service,
               const DiscreteDistribution* distribution,
               OpenArrivalsConfig config);

  OpenArrivals(const OpenArrivals&) = delete;
  OpenArrivals& operator=(const OpenArrivals&) = delete;

  /// Schedules the first arrival; the stream then runs until Stop().
  void Start();
  void Stop() { running_ = false; }

  int64_t requests_issued() const { return requests_; }
  int64_t displays_completed() const { return completed_; }
  int64_t displays_interrupted() const { return interrupted_; }
  /// Requests issued but not yet resolved (system occupancy).
  int64_t in_flight() const { return requests_ - completed_ - interrupted_; }
  const StreamingStats& startup_latency_sec() const { return latency_; }

  // --- measurement-window views (requests issued >= measure_start) ----
  int64_t completed_in_window() const { return completed_in_window_; }
  /// Exact admission-latency percentiles (request arrival to display
  /// start), measurement window only.
  const QuantileTracker& admission_latency_sec() const {
    return admission_latency_;
  }

  // --- workload-shape counters ----------------------------------------
  int64_t vcr_scans() const { return vcr_scans_; }
  int64_t vcr_resumes() const { return vcr_resumes_; }
  int64_t flash_redirects() const { return flash_redirects_; }

  /// Offered load rate (requests per hour) at the base rate.
  double OfferedRatePerHour() const {
    return 3600.0 / config_.mean_interarrival.seconds();
  }
  /// Instantaneous rate multiplier (diurnal x active flash crowds) —
  /// exposed for tests.
  double RateMultiplierAt(SimTime t) const;

 private:
  void ScheduleNext();
  void Issue();
  ObjectId SampleObject();
  /// Issues one display leg; `next_leg` (may be empty) runs on
  /// completion to chain scan -> play -> pause -> resume.
  void IssueDisplay(ObjectId object, std::function<void()> next_leg);

  Simulator* sim_;
  MediaService* service_;
  const DiscreteDistribution* distribution_;
  OpenArrivalsConfig config_;
  /// Upper bound on RateMultiplierAt over all t; the thinning envelope.
  double peak_multiplier_ = 1.0;
  Rng rng_;
  bool running_ = false;
  int64_t requests_ = 0;
  int64_t completed_ = 0;
  int64_t interrupted_ = 0;
  int64_t completed_in_window_ = 0;
  int64_t vcr_scans_ = 0;
  int64_t vcr_resumes_ = 0;
  int64_t flash_redirects_ = 0;
  StreamingStats latency_;
  QuantileTracker admission_latency_;
};

}  // namespace stagger

#endif  // STAGGER_WORKLOAD_OPEN_ARRIVALS_H_
