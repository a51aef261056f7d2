// End-to-end experiment runner for the Section 4 evaluation: builds the
// Table 3 system (disks, tertiary, catalog, server, stations), runs the
// closed workload, and reports throughput and auxiliary statistics.
// Used by the Figure 8 / Table 4 benchmark harnesses and the examples.

#ifndef STAGGER_SERVER_EXPERIMENT_H_
#define STAGGER_SERVER_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/interval_scheduler.h"
#include "disk/disk_parameters.h"
#include "fault/fault_plan.h"
#include "tertiary/tertiary_device.h"
#include "util/result.h"
#include "util/units.h"
#include "workload/open_arrivals.h"

namespace stagger {

/// Which server implementation to run.
enum class Scheme {
  kSimpleStriping,  ///< staggered striping with k = M (Section 4's "simple striping")
  kStaggered,       ///< staggered striping with an arbitrary stride
  kVdr,             ///< virtual data replication baseline
};

std::string SchemeName(Scheme scheme);

/// \brief Full experiment configuration; defaults reproduce Table 3.
struct ExperimentConfig {
  Scheme scheme = Scheme::kSimpleStriping;

  // System (Table 3).
  int32_t num_disks = 1000;                     ///< D
  DiskParameters disk = DiskParameters::Evaluation();
  TertiaryParameters tertiary;                  ///< 40 mbps
  int32_t num_tertiary_devices = 1;             ///< Table 3: 1
  int64_t fragment_cylinders = 1;               ///< fragment = 1 cylinder

  // Database (Table 3).
  int32_t num_objects = 2000;
  int64_t subobjects_per_object = 3000;
  Bandwidth display_bandwidth = Bandwidth::Mbps(100);  ///< => M = 5

  // Scheme parameters.
  int32_t stride = 5;                           ///< k (ignored by VDR)
  AdmissionPolicy policy = AdmissionPolicy::kContiguous;
  bool coalesce = false;
  /// Charge disk-side materialization writes (striped schemes only;
  /// Section 3.2.4).
  bool charge_materialization_writes = false;
  bool enable_replication = true;               ///< VDR only
  int32_t replication_wait_threshold = 1;       ///< VDR only

  // Fault injection (src/fault/); empty plan = all-healthy run.
  FaultPlan fault_plan;
  /// Striped schemes' reaction to reads on unavailable disks; for VDR
  /// the plan is mapped onto cluster failovers instead.
  DegradedPolicy degraded_policy = DegradedPolicy::kRemapOrPause;
  /// Striped schemes: store per-subobject parity fragments (required by
  /// DegradedPolicy::kReconstruct and by online rebuild).
  bool parity = false;
  /// Hot-spare drives beyond the D slots; with parity on, a failed
  /// slot's fragments are rebuilt onto a spare on idle bandwidth.
  int32_t num_spares = 0;
  /// Rebuild rate cap: one fragment per failed slot every this many
  /// intervals.
  int64_t rebuild_intervals_per_fragment = 1;
  /// Striped schemes: run the background scrubber (src/scrub/) that
  /// detects and repairs latent sector errors on idle bandwidth.
  bool scrub = false;
  /// Scrub pacing: at most one stripe every N intervals (1 = as fast as
  /// idle bandwidth allows).
  int64_t scrub_intervals_per_stripe = 1;
  /// Per-interval idle-read caps for the shared background budget;
  /// 0 = uncapped.
  int64_t rebuild_reads_per_interval = 0;
  int64_t scrub_reads_per_interval = 0;
  /// Scrub starvation floor (intervals without progress before the
  /// arbiter serves scrub first once); 0 disables.
  int64_t scrub_starvation_floor_intervals = 64;

  // Workload (Section 4.1).
  int32_t stations = 16;
  double geometric_mean = 10.0;                 ///< 10 / 20 / 43.5
  /// Mean think time between displays (paper: zero, to stress).
  SimTime mean_think_time = SimTime::Zero();
  uint64_t seed = 20240101;

  // Open-arrivals workload: replaces the closed station pool with a
  // Poisson stream whose rate and popularity vary over time.  See
  // workload/open_arrivals.h for the shape knobs.
  bool open_arrivals = false;
  SimTime mean_interarrival = SimTime::Seconds(30);
  /// Zipf skew for open-arrivals popularity; 0 keeps the paper's
  /// truncated-geometric distribution.
  double zipf_theta = 0.0;
  double diurnal_amplitude = 0.0;
  SimTime diurnal_period = SimTime::Hours(24);
  std::vector<FlashCrowd> flash_crowds;
  /// VCR behavior: scan sessions display the fast-forward replica
  /// (appended to the catalog at `scan_speedup`) before the original;
  /// pause sessions re-request the object after an exponential pause.
  double scan_probability = 0.0;
  int32_t scan_speedup = 16;
  double pause_probability = 0.0;
  SimTime mean_pause = SimTime::Minutes(5);

  // Stream batching (striped schemes only; workload/batcher.h): merge
  // same-object requests inside `batch_window` onto one physical
  // stream.  Off by default — admission is untouched.
  bool batch = false;
  SimTime batch_window = SimTime::Zero();
  int32_t max_batch_fanout = 0;

  // Run control.
  SimTime warmup = SimTime::Hours(2);
  SimTime measure = SimTime::Hours(10);
  /// Objects resident at t = 0 (both schemes), to shorten the cold
  /// start; the paper's steady state is reached either way.
  int32_t preload_objects = 200;

  Status Validate() const;

  /// M = ceil(B_Display / B_Disk) under the effective disk bandwidth.
  int32_t Degree() const;
  /// Effective per-disk bandwidth: fragment bits / interval seconds.
  Bandwidth EffectiveDiskBandwidth() const;
  /// S(C_i): one fragment transfer at the effective rate.
  SimTime Interval() const;
  DataSize FragmentSize() const {
    return disk.cylinder_capacity * fragment_cylinders;
  }
};

/// \brief Scalars reported by one run.
struct ExperimentResult {
  double displays_per_hour = 0.0;
  int64_t displays_completed = 0;   ///< inside the measurement window
  double mean_startup_latency_sec = 0.0;
  double disk_utilization = 0.0;    ///< striping: mean disk; VDR: mean cluster
  double tertiary_utilization = 0.0;
  int64_t tertiary_queue_end = 0;
  int64_t materializations = 0;
  int64_t replications = 0;         ///< VDR only
  int64_t evictions = 0;
  int64_t hiccups = 0;              ///< striping only; must be zero
  int64_t unique_objects_referenced = 0;
  int32_t resident_objects_end = 0;
  // --- degraded-mode outcomes (zero on all-healthy runs) ---------------
  int64_t degraded_reads = 0;          ///< striping: remapped fragment reads
  int64_t reconstructed_reads = 0;     ///< striping: parity reconstructions
  int64_t streams_paused = 0;          ///< striping: pauses forced by faults
  int64_t streams_resumed = 0;         ///< striping: successful re-admissions
  int64_t displays_interrupted = 0;    ///< both schemes: displays cut short
  int64_t failovers = 0;               ///< VDR: displays moved to a replica
  double mean_resume_latency_sec = 0;  ///< striping: pause -> re-admission
  // --- rebuild outcomes (parity + spares only) -------------------------
  int64_t rebuilds_completed = 0;      ///< spares promoted into failed slots
  int64_t fragments_rebuilt = 0;
  // --- latent-error / scrub outcomes (zero without kLatentError events) -
  int64_t latent_errors_injected = 0;  ///< corrupt media cells created
  int64_t latent_errors_detected = 0;  ///< first detections (scrub or read)
  int64_t latent_errors_repaired = 0;  ///< cells repaired (all paths)
  /// Cells still corrupt at the end of the run — the scrub-off
  /// signature (latent errors sit undetected forever).
  int64_t latent_errors_unrepaired = 0;
  /// Mean injected-to-repaired time of repaired cells, in seconds
  /// (MTTR of the latent-error population); 0 when nothing was
  /// repaired.
  double mean_time_to_repair_sec = 0.0;
  /// Display reads that hit a corrupt cell and were caught by the
  /// checksum (served via the degraded ladder instead).
  int64_t corrupt_reads_detected = 0;
  /// Corrupt fragments shipped to viewers (possible only under
  /// DegradedPolicy::kNone; fault-aware runs must report zero).
  int64_t corrupt_frames_delivered = 0;
  int64_t scrub_stripes_verified = 0;
  int64_t scrub_passes = 0;
  /// Intervals (summed over disks) a disk spent in the degraded state.
  int64_t degraded_disk_intervals = 0;
  // --- background-budget outcomes (rebuild or scrub on) ----------------
  int64_t background_reads_granted = 0;
  /// Intervals where consumers' reads exceeded the measured idle
  /// capacity.  Any non-zero value is an arbiter bug.
  int64_t background_budget_violations = 0;
  // --- admission latency (exact percentiles; open-arrivals and closed
  // runs report the measurement window, except closed *batched* runs
  // where the batcher's whole-run tracker wins) -------------------------
  double admission_latency_p50_sec = 0.0;
  double admission_latency_p95_sec = 0.0;
  double admission_latency_p99_sec = 0.0;
  // --- open-arrivals workload counters ---------------------------------
  int64_t requests_issued = 0;         ///< logical display requests
  int64_t vcr_scans = 0;
  int64_t vcr_resumes = 0;
  int64_t flash_redirects = 0;
  // --- batching outcomes (batch on only) -------------------------------
  int64_t physical_streams = 0;        ///< streams submitted to the scheduler
  int64_t window_joins = 0;
  int64_t piggyback_joins = 0;
  double mean_fanout = 0.0;            ///< stations per physical stream
  double max_start_offset_sec = 0.0;   ///< piggyback bound: <= batch window
};

/// Runs one experiment to completion (warmup + measurement).
Result<ExperimentResult> RunExperiment(const ExperimentConfig& config);

/// Runs every configuration to completion, up to `threads` at a time,
/// and returns the results in input order.  Each run is a fully
/// isolated simulation (its own Simulator, disk array, catalog, and
/// workload generator share nothing), so the result of a configuration
/// is bit-identical whatever the thread count — parallelism only
/// reorders wall-clock execution, never simulated events.  threads <= 1
/// (or a single configuration) runs serially on the caller's thread.
/// When runs fail, the error of the lowest-indexed failing run is
/// returned, matching what a serial sweep would have reported first.
Result<std::vector<ExperimentResult>> RunMany(
    const std::vector<ExperimentConfig>& configs, int32_t threads = 1);

/// \brief Aggregate over independent replications (seeds seed+0..n-1).
struct ReplicatedResult {
  int32_t replications = 0;
  StreamingStats displays_per_hour;
  StreamingStats mean_startup_latency_sec;
  StreamingStats disk_utilization;
};

/// Runs `replications` independent copies of the experiment, varying
/// only the workload seed, and reports across-run statistics — for
/// confidence intervals on Figure 8 points.  `threads` runs
/// replications concurrently via RunMany; the aggregate is accumulated
/// in seed order regardless, so the statistics are bit-identical to a
/// serial sweep.
Result<ReplicatedResult> RunReplicated(const ExperimentConfig& config,
                                       int32_t replications,
                                       int32_t threads = 1);

}  // namespace stagger

#endif  // STAGGER_SERVER_EXPERIMENT_H_
