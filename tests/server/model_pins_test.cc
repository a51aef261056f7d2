// Exact pins of the simulated values the paper-style benches report:
// E14's admission-latency percentiles (bench_batching), Figure 8's
// admission latency at 256 stations (bench_fig8_throughput) and E15's
// latent-error MTTR with the scrubber on (bench_fault_degradation),
// each under the bench's --quick configuration.  These are model
// outputs in simulated seconds, not timings: the simulator is
// deterministic, so any drift is a model change.  A change that means
// to move one re-records its pin (the failure message prints the new
// value as a hexfloat literal), the way a golden trace is re-recorded.

#include <gtest/gtest.h>

#include <ios>

#include "server/experiment.h"

namespace stagger {
namespace {

// bench_batching's CrowdConfig(quick = true): open arrivals at 600/h,
// 80% of them on object 0, against a ~397/h physical ceiling.
ExperimentConfig CrowdConfig() {
  ExperimentConfig config;
  config.scheme = Scheme::kSimpleStriping;
  config.open_arrivals = true;
  config.mean_interarrival = SimTime::Seconds(6);
  FlashCrowd crowd;
  crowd.start = SimTime::Zero();
  crowd.duration = SimTime::Hours(48);
  crowd.object = 0;
  crowd.hot_fraction = 0.8;
  crowd.rate_multiplier = 1.0;
  config.flash_crowds.push_back(crowd);
  config.warmup = SimTime::Hours(1);
  config.measure = SimTime::Hours(3);
  return config;
}

// bench_fault_degradation's E15 scenario with --quick: the 1/10-scale
// Table 3 system at 16 stations, parity + 2 spares under kReconstruct,
// twenty corrupt cells injected from minute 20 on.
ExperimentConfig LatentScrubConfig() {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kSimpleStriping;
  cfg.num_disks = 100;
  cfg.num_objects = 200;
  cfg.subobjects_per_object = 200;
  cfg.preload_objects = 30;
  cfg.stations = 16;
  cfg.geometric_mean = 8.0;
  cfg.warmup = SimTime::Minutes(15);
  cfg.measure = SimTime::Hours(1);
  cfg.parity = true;
  cfg.num_spares = 2;
  cfg.degraded_policy = DegradedPolicy::kReconstruct;
  for (int32_t i = 0; i < 20; ++i) {
    const DiskId disk = (7 * i + 3) % 100;
    const int64_t row = (17 * i) % 200;
    cfg.fault_plan.LatentAt(
        disk, SimTime::Minutes(20) + SimTime::Seconds(30 * i), row, row);
  }
  cfg.scrub = true;
  return cfg;
}

ExperimentResult RunOk(const ExperimentConfig& config) {
  auto result = RunExperiment(config);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *result : ExperimentResult{};
}

TEST(ModelPinsTest, E14AdmissionLatencyUnbatched) {
  const ExperimentResult r = RunOk(CrowdConfig());
  EXPECT_EQ(r.admission_latency_p50_sec, 0x1.94f48e453d20fp+11)
      << std::hexfloat << r.admission_latency_p50_sec;
  EXPECT_EQ(r.admission_latency_p99_sec, 0x1.2170e83553493p+12)
      << std::hexfloat << r.admission_latency_p99_sec;
}

TEST(ModelPinsTest, E14AdmissionLatencyWidestWindow) {
  ExperimentConfig config = CrowdConfig();
  config.batch = true;
  config.batch_window = SimTime::Seconds(300);
  const ExperimentResult r = RunOk(config);
  EXPECT_EQ(r.admission_latency_p50_sec, 0x1.50c9d9d3458cdp+5)
      << std::hexfloat << r.admission_latency_p50_sec;
  EXPECT_EQ(r.admission_latency_p99_sec, 0x1.2cd2c9cab9cd1p+8)
      << std::hexfloat << r.admission_latency_p99_sec;
}

// bench_fig8_throughput --quick, panel (a): the most contended cell,
// simple striping at 256 stations, where queueing dominates startup.
TEST(ModelPinsTest, Fig8AdmissionLatency256Stations) {
  ExperimentConfig config;
  config.scheme = Scheme::kSimpleStriping;
  config.geometric_mean = 10.0;
  config.stations = 256;
  config.warmup = SimTime::Hours(1);
  config.measure = SimTime::Hours(5);
  const ExperimentResult r = RunOk(config);
  EXPECT_EQ(r.admission_latency_p50_sec, 0x1.660aa64c2f838p+4)
      << std::hexfloat << r.admission_latency_p50_sec;
  EXPECT_EQ(r.admission_latency_p95_sec, 0x1.c9f07f23cc8dep+10)
      << std::hexfloat << r.admission_latency_p95_sec;
  EXPECT_EQ(r.admission_latency_p99_sec, 0x1.c514d594f26afp+11)
      << std::hexfloat << r.admission_latency_p99_sec;
}

TEST(ModelPinsTest, E15LatentMttrScrubOn) {
  const ExperimentResult r = RunOk(LatentScrubConfig());
  EXPECT_EQ(r.mean_time_to_repair_sec, 0x1.8c72474538ef3p+7)
      << std::hexfloat << r.mean_time_to_repair_sec;
}

}  // namespace
}  // namespace stagger
