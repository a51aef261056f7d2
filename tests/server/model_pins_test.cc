// Exact pins of the simulated values the paper-style benches report:
// E14's admission-latency percentiles (bench_batching), Figure 8's
// admission latency at 256 stations (bench_fig8_throughput) and E15's
// latent-error MTTR with the scrubber on (bench_fault_degradation),
// each under the full configuration of bench/paper/ that the bench
// prints.  These are model outputs in simulated seconds, not timings:
// the simulator is deterministic, so any drift is a model change.  A
// change that means to move one re-records its pin (the failure message
// prints the new value as a hexfloat literal), the way a golden trace is
// re-recorded.

#include <gtest/gtest.h>

#include <ios>

#include "paper/experiments.h"

namespace stagger {
namespace {

ExperimentResult RunOk(const ExperimentConfig& config) {
  auto result = RunExperiment(config);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *result : ExperimentResult{};
}

TEST(ModelPinsTest, E14AdmissionLatencyUnbatched) {
  const ExperimentResult r = RunOk(paper::CrowdConfig(-1.0, paper::kSeed));
  EXPECT_EQ(r.admission_latency_p50_sec, 0x1.bd16ebedfa44p+12)
      << std::hexfloat << r.admission_latency_p50_sec;
  EXPECT_EQ(r.admission_latency_p99_sec, 0x1.4d4d73acb1796p+13)
      << std::hexfloat << r.admission_latency_p99_sec;
}

TEST(ModelPinsTest, E14AdmissionLatencyWidestWindow) {
  const ExperimentResult r = RunOk(
      paper::CrowdConfig(paper::kBatchWindows.back(), paper::kSeed));
  EXPECT_EQ(r.admission_latency_p50_sec, 0x1.e9e374794ea07p+4)
      << std::hexfloat << r.admission_latency_p50_sec;
  EXPECT_EQ(r.admission_latency_p99_sec, 0x1.2cdd8e5497061p+8)
      << std::hexfloat << r.admission_latency_p99_sec;
}

// Panel (a): the most contended cell, simple striping at 256 stations,
// where queueing dominates startup.
TEST(ModelPinsTest, Fig8AdmissionLatency256Stations) {
  const ExperimentResult r = RunOk(
      paper::Fig8Config(Scheme::kSimpleStriping, 10.0, 256, paper::kSeed));
  EXPECT_EQ(r.admission_latency_p50_sec, 0x1.2bfb15b573eabp+5)
      << std::hexfloat << r.admission_latency_p50_sec;
  EXPECT_EQ(r.admission_latency_p95_sec, 0x1.ca9121ab4b72cp+10)
      << std::hexfloat << r.admission_latency_p95_sec;
  EXPECT_EQ(r.admission_latency_p99_sec, 0x1.bf73c3e74afdap+11)
      << std::hexfloat << r.admission_latency_p99_sec;
}

TEST(ModelPinsTest, E15LatentMttrScrubOn) {
  const ExperimentResult r = RunOk(
      paper::LatentConfig(paper::LatentVariant::kScrubOn, paper::kSeed));
  EXPECT_EQ(r.mean_time_to_repair_sec, 0x1.8c72474538ef3p+7)
      << std::hexfloat << r.mean_time_to_repair_sec;
}

}  // namespace
}  // namespace stagger
