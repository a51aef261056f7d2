// Integration tests: the full Table 3 experiment runner, at reduced
// scale/duration so the whole suite stays fast.  The full-scale Figure 8
// / Table 4 matrices live in bench/.

#include "server/experiment.h"

#include <gtest/gtest.h>

namespace stagger {
namespace {

ExperimentConfig SmallConfig(Scheme scheme) {
  // A 100-disk, 200-object shrink of Table 3: M = 5, 20 clusters,
  // objects of 300 subobjects (~3 min displays), 20 resident objects.
  ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.num_disks = 100;
  cfg.num_objects = 200;
  cfg.subobjects_per_object = 300;
  cfg.preload_objects = 20;
  cfg.stations = 16;
  cfg.geometric_mean = 5.0;
  cfg.warmup = SimTime::Minutes(20);
  cfg.measure = SimTime::Hours(1);
  return cfg;
}

TEST(ExperimentConfigTest, DefaultsMatchTable3) {
  const ExperimentConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
  EXPECT_EQ(cfg.num_disks, 1000);
  EXPECT_EQ(cfg.num_objects, 2000);
  EXPECT_EQ(cfg.subobjects_per_object, 3000);
  EXPECT_EQ(cfg.Degree(), 5);
  EXPECT_DOUBLE_EQ(cfg.display_bandwidth.mbps(), 100.0);
  EXPECT_DOUBLE_EQ(cfg.EffectiveDiskBandwidth().mbps(), 20.0);
  EXPECT_DOUBLE_EQ(cfg.tertiary.bandwidth.mbps(), 40.0);
  EXPECT_EQ(cfg.Interval().micros(), 604800);
  EXPECT_NEAR(cfg.FragmentSize().megabytes(), 1.512, 1e-9);
}

TEST(ExperimentConfigTest, ValidationCatchesBadSettings) {
  ExperimentConfig cfg;
  cfg.stations = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = ExperimentConfig{};
  cfg.geometric_mean = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = ExperimentConfig{};
  cfg.num_disks = 3;  // degree 5 > D
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = ExperimentConfig{};
  cfg.measure = SimTime::Zero();
  EXPECT_FALSE(cfg.Validate().ok());
}

// With a negative warmup the run (warmup + measure) is shorter than
// the window displays/h divides by, so the rate is wrong; it is
// rejected, and zero warmup stays legal.
TEST(ExperimentTest, RejectsNegativeWarmup) {
  ExperimentConfig cfg = SmallConfig(Scheme::kStaggered);
  cfg.warmup = SimTime::Hours(-1);
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  EXPECT_TRUE(RunExperiment(cfg).status().IsInvalidArgument());
  cfg.warmup = SimTime::Zero();
  EXPECT_TRUE(cfg.Validate().ok());
}

// A display bandwidth far below one disk's rounds to a degree of zero,
// which no scheme can lay out (VDR would divide D by it); it is
// rejected on every scheme, and one fragment per subobject stays legal.
TEST(ExperimentTest, RejectsZeroDegree) {
  for (const Scheme scheme :
       {Scheme::kSimpleStriping, Scheme::kStaggered, Scheme::kVdr}) {
    ExperimentConfig cfg = SmallConfig(scheme);
    cfg.display_bandwidth = Bandwidth::Mbps(1e-9);
    EXPECT_EQ(cfg.Degree(), 0);
    EXPECT_TRUE(cfg.Validate().IsInvalidArgument()) << SchemeName(scheme);
    EXPECT_TRUE(RunExperiment(cfg).status().IsInvalidArgument())
        << SchemeName(scheme);
    cfg.display_bandwidth = cfg.EffectiveDiskBandwidth();
    EXPECT_EQ(cfg.Degree(), 1);
    EXPECT_TRUE(cfg.Validate().ok()) << SchemeName(scheme);
  }
}

TEST(ExperimentTest, SchemeNames) {
  EXPECT_EQ(SchemeName(Scheme::kSimpleStriping), "simple-striping");
  EXPECT_EQ(SchemeName(Scheme::kStaggered), "staggered-striping");
  EXPECT_EQ(SchemeName(Scheme::kVdr), "virtual-data-replication");
}

TEST(ExperimentTest, SimpleStripingRuns) {
  auto result = RunExperiment(SmallConfig(Scheme::kSimpleStriping));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->displays_per_hour, 0.0);
  EXPECT_EQ(result->hiccups, 0);
  EXPECT_GT(result->displays_completed, 0);
  EXPECT_GT(result->disk_utilization, 0.0);
  EXPECT_GT(result->unique_objects_referenced, 0);
  EXPECT_GT(result->resident_objects_end, 0);
}

TEST(ExperimentTest, StaggeredStrideOneRuns) {
  ExperimentConfig cfg = SmallConfig(Scheme::kStaggered);
  cfg.stride = 1;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->displays_per_hour, 0.0);
  EXPECT_EQ(result->hiccups, 0);
}

TEST(ExperimentTest, VdrRuns) {
  auto result = RunExperiment(SmallConfig(Scheme::kVdr));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->displays_per_hour, 0.0);
  EXPECT_GT(result->resident_objects_end, 0);
}

// The headline qualitative claim at miniature scale: under skewed
// access and load, striping outperforms virtual data replication.
TEST(ExperimentTest, StripingBeatsVdrUnderLoad) {
  ExperimentConfig cfg = SmallConfig(Scheme::kSimpleStriping);
  cfg.stations = 40;
  auto striping = RunExperiment(cfg);
  ASSERT_TRUE(striping.ok());
  cfg.scheme = Scheme::kVdr;
  auto vdr = RunExperiment(cfg);
  ASSERT_TRUE(vdr.ok());
  EXPECT_GT(striping->displays_per_hour, vdr->displays_per_hour);
}

TEST(ExperimentTest, DeterministicForFixedSeed) {
  auto a = RunExperiment(SmallConfig(Scheme::kSimpleStriping));
  auto b = RunExperiment(SmallConfig(Scheme::kSimpleStriping));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->displays_completed, b->displays_completed);
  EXPECT_DOUBLE_EQ(a->displays_per_hour, b->displays_per_hour);
  EXPECT_DOUBLE_EQ(a->mean_startup_latency_sec, b->mean_startup_latency_sec);
}

TEST(ExperimentTest, SeedChangesOutcome) {
  ExperimentConfig cfg = SmallConfig(Scheme::kSimpleStriping);
  auto a = RunExperiment(cfg);
  cfg.seed = 999;
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->mean_startup_latency_sec, b->mean_startup_latency_sec);
}

// More stations -> more throughput while capacity remains.
TEST(ExperimentTest, ThroughputScalesWithStations) {
  ExperimentConfig cfg = SmallConfig(Scheme::kSimpleStriping);
  cfg.stations = 4;
  auto small = RunExperiment(cfg);
  cfg.stations = 16;
  auto big = RunExperiment(cfg);
  ASSERT_TRUE(small.ok() && big.ok());
  EXPECT_GT(big->displays_per_hour, small->displays_per_hour * 2);
}

}  // namespace
}  // namespace stagger
