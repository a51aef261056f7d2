// End-to-end chaos properties: generated fault plans — whole-disk
// failures, stalls, degrades, latent sector errors, optionally
// correlated across failure domains — replayed against a scrub-enabled
// striped server.  Checked per seed:
//  * the generated plan is Validate-clean and round-trips through its
//    text form bit-identically (any chaos run is replayable from its
//    printed plan);
//  * no corrupt frame reaches a viewer — every latent read is caught by
//    the fault-aware ladder (corrupt_frames_delivered == 0);
//  * the background budget never exceeds the measured idle bandwidth
//    (budget_violations == 0; under the debug-audit preset a violation
//    is also a fatal in-run check);
//  * every latent error is repaired by run end — the chaos horizon
//    closes well before the measurement window does, so the scrubber's
//    repair paths (parity, archive, orphan, targeted) must converge to
//    zero active cells;
//  * delivery stays hiccup-free and the run completes displays.
//
// The seed count defaults to 20 (the acceptance sweep width) and is
// widened by the weekly sweep through STAGGER_CHAOS_SEEDS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/invariants.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "server/experiment.h"
#include "server/striped_server.h"
#include "storage/catalog.h"
#include "tertiary/tertiary_manager.h"
#include "util/rng.h"
#include "workload/open_arrivals.h"

namespace stagger {
namespace {

/// A 24-disk shrink with parity, hot spares, scrubbing, and moderate
/// load — idle-bandwidth maintenance needs idle bandwidth: a scrub
/// stripe read needs all M+1 members free in one interval, so the
/// station count (M = 5: 3 stations pin ~15 of 24 disks at peak) keeps
/// whole-stripe windows opening often enough for repair to converge.
/// The catalog is sized so one full scrub cycle (<= num_objects *
/// subobjects_per_object stripes at ~1 stripe per interval for stride-1
/// layouts) fits inside the post-chaos repair runway: an undetected
/// latent cell is only found when the cursor crosses it, so "repaired
/// by run end" needs cycle time < runway — the same sizing rule real
/// deployments apply to scrub rate versus detection-window targets.
ExperimentConfig ChaosConfig(uint64_t seed) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kStaggered;
  cfg.num_disks = 24;
  cfg.num_objects = 40;
  cfg.subobjects_per_object = 25;
  cfg.preload_objects = 8;
  cfg.stations = 3;
  cfg.geometric_mean = 5.0;
  cfg.warmup = SimTime::Minutes(10);
  cfg.measure = SimTime::Minutes(40);
  cfg.seed = seed;
  cfg.degraded_policy = DegradedPolicy::kReconstruct;
  cfg.parity = true;
  cfg.num_spares = 2;
  cfg.scrub = true;
  return cfg;
}

/// MTBF rates tuned to draw a handful of events of each kind over the
/// chaos horizon (expected count per kind = D * horizon / mtbf).
FaultPlan ChaosPlan(uint64_t seed, const ExperimentConfig& cfg) {
  ChaosParams params;
  // Faults stop halfway through the measurement window, leaving the
  // tail as repair runway: by run end everything must have healed.
  params.horizon = cfg.warmup + SimTime::Micros(cfg.measure.micros() / 2);
  params.mtbf = SimTime::Hours(5);
  params.mttr = SimTime::Minutes(5);
  params.stall_mtbf = SimTime::Hours(5);
  params.mean_stall = SimTime::Seconds(45);
  params.degrade_mtbf = SimTime::Hours(5);
  params.mean_degrade = SimTime::Minutes(4);
  params.latent_mtbf = SimTime::Hours(3);
  params.subobject_space = cfg.subobjects_per_object;
  params.max_latent_run = 2;
  // Half the seeds exercise correlated (enclosure-level) events.
  params.num_domains = seed % 2 == 0 ? 2 : 0;
  Rng rng(seed);
  return FaultPlan::Generate(&rng, cfg.num_disks, params);
}

int64_t NumSeeds() {
  int64_t seeds = 20;
  if (const char* env = std::getenv("STAGGER_CHAOS_SEEDS")) {
    seeds = std::max<int64_t>(1, std::atoll(env));
  }
  return seeds;
}

std::string CaseName(const ::testing::TestParamInfo<uint64_t>& info) {
  std::ostringstream os;
  os << (info.param % 2 == 0 ? "domains" : "plain") << "_s" << info.param;
  return os.str();
}

std::vector<uint64_t> MakeSeeds() {
  std::vector<uint64_t> seeds;
  for (int64_t s = 1; s <= NumSeeds(); ++s) {
    seeds.push_back(static_cast<uint64_t>(s));
  }
  return seeds;
}

class ChaosPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosPropertyTest, GeneratedFaultsNeverCorruptOrOverdraw) {
  const uint64_t seed = GetParam();
  ExperimentConfig cfg = ChaosConfig(seed);
  const FaultPlan plan = ChaosPlan(seed, cfg);

  ASSERT_TRUE(plan.Validate(cfg.num_disks).ok())
      << plan.Validate(cfg.num_disks) << "\n" << plan.ToString();
  auto reparsed = FaultPlan::Parse(plan.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->ToString(), plan.ToString())
      << "chaos plans must replay from their printed text";

  cfg.fault_plan = plan;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status() << "\nplan:\n"
                           << plan.ToString();

  // The run made progress and delivery never hiccuped.
  EXPECT_GT(result->displays_completed, 0) << plan.ToString();
  EXPECT_EQ(result->hiccups, 0) << plan.ToString();

  // No corrupt frame reached a viewer: the fault-aware read ladder
  // catches every latent cell a display touches.
  EXPECT_EQ(result->corrupt_frames_delivered, 0) << plan.ToString();

  // Background maintenance lived strictly inside idle bandwidth.
  EXPECT_EQ(result->background_budget_violations, 0) << plan.ToString();

  // Every injected latent error healed before run end, whichever path
  // repaired it (scrub parity/archive/orphan/targeted, or a rebuild
  // replacing the medium).
  EXPECT_EQ(result->latent_errors_unrepaired, 0) << plan.ToString();
  EXPECT_EQ(result->latent_errors_repaired, result->latent_errors_injected)
      << plan.ToString();
  if (result->latent_errors_injected > 0) {
    EXPECT_GE(result->mean_time_to_repair_sec, 0.0);
  }

  // The scrubber actually cycled (it is configured on in every run).
  EXPECT_GT(result->scrub_stripes_verified, 0) << plan.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPropertyTest,
                         ::testing::ValuesIn(MakeSeeds()), CaseName);

TEST(ChaosDeterminismTest, IdenticalSeedsReplayBitIdentically) {
  ExperimentConfig cfg = ChaosConfig(2);
  cfg.fault_plan = ChaosPlan(2, cfg);
  auto a = RunExperiment(cfg);
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->displays_per_hour, b->displays_per_hour);
  EXPECT_EQ(a->displays_completed, b->displays_completed);
  EXPECT_EQ(a->latent_errors_injected, b->latent_errors_injected);
  EXPECT_EQ(a->latent_errors_detected, b->latent_errors_detected);
  EXPECT_EQ(a->latent_errors_repaired, b->latent_errors_repaired);
  EXPECT_EQ(a->mean_time_to_repair_sec, b->mean_time_to_repair_sec);
  EXPECT_EQ(a->corrupt_reads_detected, b->corrupt_reads_detected);
  EXPECT_EQ(a->scrub_stripes_verified, b->scrub_stripes_verified);
  EXPECT_EQ(a->degraded_disk_intervals, b->degraded_disk_intervals);
  EXPECT_EQ(a->background_reads_granted, b->background_reads_granted);
  EXPECT_EQ(a->rebuilds_completed, b->rebuilds_completed);
}

// Batching, a generated chaos plan, kPause with a short pause cap and
// fragmented admission with Algorithm 2 together, at D = 64: paused
// remainders wait on the wake wheel beside the queued requests, frees
// wake the waiting keys and the coalescing misses, and pauses past the
// cap are given up.  Every interval each physical request is completed,
// cancelled or still in flight (queued, paused or active) and the
// scheduler audit passes (debug-audit builds also plan every waiting
// entry and every skipped coalescing search each tick); once arrivals
// stop and the load drains, every logical request completed or was
// interrupted, without a hiccup.
TEST(ChaosBatchingTest, PauseGiveUpsKeepEveryRequestAccounted) {
  constexpr int32_t kDisks = 64;
  const SimTime interval = SimTime::Micros(604800);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Simulator sim;
    Catalog catalog = Catalog::Uniform(16, 60, Bandwidth::Mbps(100));
    auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    TertiaryManager tertiary(&sim, TertiaryDevice(TertiaryParameters{}));
    StripedConfig config;
    config.stride = 1;
    config.interval = interval;
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    config.preload_objects = catalog.size();
    config.degraded_policy = DegradedPolicy::kPause;
    config.max_pause_intervals = 6;
    config.batch = true;
    config.batch_window = SimTime::Seconds(20);
    config.max_batch_fanout = 6;
    auto server =
        StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
    ASSERT_TRUE(server.ok()) << server.status();

    ChaosParams params;
    params.horizon = SimTime::Minutes(30);
    params.mtbf = SimTime::Hours(4);
    params.mttr = SimTime::Minutes(2);
    params.stall_mtbf = SimTime::Hours(4);
    params.mean_stall = SimTime::Seconds(20);
    params.degrade_mtbf = SimTime::Hours(6);
    params.mean_degrade = SimTime::Minutes(2);
    params.latent_mtbf = SimTime::Hours(4);
    params.subobject_space = 60;
    params.max_latent_run = 2;
    params.num_domains = 4;
    Rng rng(seed);
    const FaultPlan plan = FaultPlan::Generate(&rng, kDisks, params);
    auto injector = FaultInjector::Create(&sim, &*disks, plan);
    ASSERT_TRUE(injector.ok()) << injector.status();

    auto popularity = TruncatedGeometric::FromMean(16, 4);
    ASSERT_TRUE(popularity.ok());
    OpenArrivalsConfig oc;
    oc.mean_interarrival = SimTime::Seconds(2);
    oc.seed = seed;
    OpenArrivals arrivals(&sim, server->get(), &*popularity, std::move(oc));
    arrivals.Start();

    const IntervalScheduler& sched = *(*server)->scheduler();
    for (SimTime t = interval; t <= params.horizon; t = t + interval) {
      sim.RunUntil(t);
      ASSERT_TRUE(InvariantAuditor::AuditScheduler(sched).ok());
      const SchedulerMetrics& m = sched.metrics();
      ASSERT_EQ(m.displays_requested,
                m.displays_completed + m.displays_cancelled +
                    static_cast<int64_t>(sched.pending_requests() +
                                         sched.paused_streams() +
                                         sched.active_streams()))
          << "seed " << seed << " at " << t.seconds() << " s";
    }
    arrivals.Stop();
    sim.RunUntil(params.horizon + SimTime::Hours(1));  // drain

    const StreamBatcher* batcher = (*server)->batcher();
    ASSERT_NE(batcher, nullptr);
    const BatcherMetrics& bm = batcher->metrics();
    const SchedulerMetrics& m = sched.metrics();
    EXPECT_GT(bm.window_joins + bm.piggyback_joins, 0) << "seed " << seed;
    EXPECT_GT(m.streams_paused, 0) << "seed " << seed;
    EXPECT_GT(m.displays_interrupted, 0) << "seed " << seed;
    EXPECT_GT(m.fragmented_admissions, 0) << "seed " << seed;
    EXPECT_EQ(m.hiccups, 0) << "seed " << seed;
    EXPECT_EQ(arrivals.in_flight(), 0) << "seed " << seed;
    EXPECT_EQ(bm.requests, bm.completed + bm.interrupted) << "seed " << seed;
    EXPECT_EQ(m.displays_requested,
              m.displays_completed + m.displays_cancelled)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace stagger
