#include "workloads.h"

#include "fault/fault_plan.h"
#include "util/rng.h"

namespace stagger::e2e {
namespace {

// Horizons of a shortened run: long enough for the first displays
// (1814 s each) to complete, and open_chaos still injects its faults.
constexpr double kShortWarmupHours = 0.1;
constexpr double kShortMeasureHours = 0.5;
// Seed of open_chaos's fault plan.
constexpr uint64_t kChaosPlanSeed = 20240101;

void SetHorizon(ExperimentConfig* cfg, double warmup_hours,
                double measure_hours, bool shortened) {
  cfg->warmup = SimTime::Hours(shortened ? kShortWarmupHours : warmup_hours);
  cfg->measure = SimTime::Hours(shortened ? kShortMeasureHours : measure_hours);
}

// The paper's E1 / Figure 8 matrix at Table 3 (D = 1000, M = 5).
std::vector<ExperimentConfig> Fig8Matrix(uint64_t seed, bool shortened) {
  std::vector<ExperimentConfig> cells;
  for (Scheme scheme : {Scheme::kSimpleStriping, Scheme::kVdr}) {
    for (double mean : {10.0, 20.0, 43.5}) {
      for (int32_t stations = 1; stations <= 256; stations *= 2) {
        ExperimentConfig cfg;
        cfg.scheme = scheme;
        cfg.geometric_mean = mean;
        cfg.stations = stations;
        cfg.seed = seed;
        SetHorizon(&cfg, 2.0, 10.0, shortened);
        cells.push_back(cfg);
      }
    }
  }
  return cells;
}

// D = 100 000 under 2000 closed stations: the contiguous lockstep path.
ExperimentConfig ScaleD100k(uint64_t seed, bool shortened) {
  ExperimentConfig cfg;
  cfg.num_disks = 100000;
  cfg.stations = 2000;
  cfg.geometric_mean = 10.0;
  cfg.seed = seed;
  SetHorizon(&cfg, 1.0, 10.0, shortened);
  return cfg;
}

// Staggered k = 1 with Algorithms 1-2: the per-lane path and lane
// migrations.
ExperimentConfig CoalesceD1k(uint64_t seed, bool shortened) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kStaggered;
  cfg.stride = 1;
  cfg.policy = AdmissionPolicy::kFragmented;
  cfg.coalesce = true;
  cfg.stations = 256;
  cfg.geometric_mean = 10.0;
  cfg.seed = seed;
  SetHorizon(&cfg, 1.0, 5.0, shortened);
  return cfg;
}

// Open Poisson load just past the D/M ceiling (450/h against ~397/h),
// with every workload shape, batching, write streams, parity, spares,
// scrubbing, and a seeded chaos fault plan.
ExperimentConfig OpenChaos(uint64_t seed, bool shortened) {
  ExperimentConfig cfg;
  cfg.open_arrivals = true;
  cfg.mean_interarrival = SimTime::Seconds(8);
  cfg.zipf_theta = 0.8;
  cfg.scan_probability = 0.1;
  cfg.pause_probability = 0.2;
  cfg.batch = true;
  cfg.batch_window = SimTime::Seconds(60);
  cfg.charge_materialization_writes = true;
  cfg.parity = true;
  cfg.num_spares = 4;
  cfg.degraded_policy = DegradedPolicy::kReconstruct;
  cfg.scrub = true;
  // A hot catalog of 80 titles, all preloaded.  Parity layouts hold
  // fewer objects than plain ones, and past that capacity LFU eviction
  // thrashes (see README.md): startup latency then becomes a lottery of
  // multi-hour tertiary waits that differs wildly between seeds.  The
  // scan sessions' fast-forward replicas still materialize on demand,
  // so write streams run beside reads in the first hours.
  cfg.num_objects = 80;
  cfg.preload_objects = 80;
  cfg.seed = seed;
  SetHorizon(&cfg, 1.0, 24.0, shortened);

  // Workload shape relative to the measurement window: a diurnal period
  // of a quarter of it (6 h in full) and one 3x flash crowd lasting
  // 1/24 of it (1 h in full) at its midpoint.
  const SimTime measure = cfg.measure;
  cfg.diurnal_amplitude = 0.5;
  cfg.diurnal_period = SimTime(measure.micros() / 4);
  FlashCrowd crowd;
  crowd.start = cfg.warmup + SimTime(measure.micros() / 2);
  crowd.duration = SimTime(measure.micros() / 24);
  crowd.object = 10;
  crowd.rate_multiplier = 3.0;
  cfg.flash_crowds.push_back(crowd);

  // The chaos plan is one fixed draw, part of the workload like D is;
  // the seed varies the arrivals.  Drawing it from the seed as well made
  // the simulated work, and so the host run time, differ by a third
  // between seeds: faults decide how much degraded-mode work there is.
  // Fault rates per disk scale with the horizon, so a shortened run
  // draws as many faults as a full one.
  ChaosParams cp;
  cp.horizon = cfg.warmup + cfg.measure;
  const double scale = cp.horizon.hours() / 25.0;
  cp.mtbf = SimTime::Hours(4000.0 * scale);
  cp.mttr = SimTime::Hours(0.5);
  cp.stall_mtbf = SimTime::Hours(2000.0 * scale);
  cp.mean_stall = SimTime::Hours(0.125);
  cp.degrade_mtbf = SimTime::Hours(2000.0 * scale);
  cp.mean_degrade = SimTime::Hours(0.5);
  cp.latent_mtbf = SimTime::Hours(500.0 * scale);
  cp.subobject_space = cfg.subobjects_per_object;
  cp.num_domains = 10;
  Rng rng(kChaosPlanSeed);
  cfg.fault_plan = FaultPlan::Generate(&rng, cfg.num_disks, cp);
  return cfg;
}

}  // namespace

Result<std::vector<ExperimentConfig>> MakeWorkload(const std::string& name,
                                                   uint64_t seed,
                                                   bool shortened) {
  if (name == "fig8_matrix") return Fig8Matrix(seed, shortened);
  if (name == "scale_d100k") {
    return std::vector<ExperimentConfig>{ScaleD100k(seed, shortened)};
  }
  if (name == "coalesce_d1k") {
    return std::vector<ExperimentConfig>{CoalesceD1k(seed, shortened)};
  }
  if (name == "open_chaos") {
    return std::vector<ExperimentConfig>{OpenChaos(seed, shortened)};
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace stagger::e2e
