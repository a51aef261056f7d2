// Property tests for the fault subsystem: randomized fault plans
// against a randomized display load must leave every scheduler
// invariant intact, every interval.  Checked per seed:
//  * InvariantAuditor::AuditScheduler passes after every interval
//    (includes the degraded-state rules: an unavailable disk carries
//    zero load, and no request is scheduled twice across the active,
//    queued, and paused sets);
//  * every pause resolves — streams_paused == streams_resumed +
//    displays_interrupted once the array is healthy again and the
//    backoff runway has elapsed;
//  * every admitted display either completes or is cancelled, and
//    delivery stays hiccup-free throughout.
//
// The seed count defaults to 6 and is widened by the CI sweep through
// STAGGER_FAULT_SEEDS (see .github/workflows).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include "core/interval_scheduler.h"
#include "core/invariants.h"
#include "../core/display_callbacks.h"
#include "disk/disk_array.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

struct FaultCase {
  uint64_t seed;
  DegradedPolicy policy;
};

std::string CaseName(const ::testing::TestParamInfo<FaultCase>& info) {
  std::ostringstream os;
  os << (info.param.policy == DegradedPolicy::kPause ? "pause" : "remap")
     << "_s" << info.param.seed;
  return os.str();
}

std::vector<FaultCase> MakeCases() {
  int64_t seeds = 6;
  if (const char* env = std::getenv("STAGGER_FAULT_SEEDS")) {
    seeds = std::max<int64_t>(1, std::atoll(env));
  }
  std::vector<FaultCase> cases;
  for (int64_t s = 1; s <= seeds; ++s) {
    cases.push_back({static_cast<uint64_t>(s),
                     s % 2 == 0 ? DegradedPolicy::kPause
                                : DegradedPolicy::kRemapOrPause});
  }
  return cases;
}

class FaultPropertyTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultPropertyTest, RandomFaultsKeepInvariantsEveryInterval) {
  const FaultCase& c = GetParam();
  Rng rng(c.seed);

  constexpr int32_t kDisks = 12;
  Simulator sim;
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());

  SchedulerConfig config;
  config.stride = static_cast<int32_t>(1 + rng.NextBounded(3));
  config.interval = kInterval;
  config.degraded_policy = c.policy;
  // Bound the pause runway so interrupted displays resolve within the
  // simulated horizon even for never-healing stragglers.
  config.max_pause_intervals = 64;
  CallbackListener calls;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
  ASSERT_TRUE(sched.ok()) << sched.status();

  // All faults start inside the first 200 intervals; failures recover
  // within the plan by construction.  At a per-disk MTBF of 800
  // intervals, 12 disks draw 3 failures and 3 stalls over the horizon;
  // no degrades, latent errors or failure domains.
  ChaosParams params;
  params.horizon = kInterval * 200;
  params.mtbf = kInterval * 800;
  params.mttr = kInterval * 20;
  params.stall_mtbf = kInterval * 800;
  params.mean_stall = kInterval * 5;
  ASSERT_TRUE(params.Validate(kDisks).ok());
  const FaultPlan plan = FaultPlan::Generate(&rng, kDisks, params);
  ASSERT_TRUE(plan.Validate(kDisks).ok());
  auto injector = FaultInjector::Create(&sim, &*disks, plan);
  ASSERT_TRUE(injector.ok()) << injector.status();

  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = static_cast<int32_t>(1 + rng.NextBounded(4));
    req.start_disk = static_cast<int32_t>(rng.NextBounded(kDisks));
    req.num_subobjects = static_cast<int64_t>(10 + rng.NextBounded(50));
    const SimTime at = kInterval * static_cast<int64_t>(rng.NextBounded(100));
    sim.ScheduleAt(at, [&sched, req = std::move(req)]() mutable {
      auto id = (*sched)->Submit(std::move(req));
      STAGGER_CHECK(id.ok()) << id.status();
    });
  }

  // Faults end by interval ~270 (200 + the outage tail); the remaining
  // runway covers the longest displays plus max_pause_intervals of
  // backoff, so by interval 500 everything must have settled.
  constexpr int64_t kHorizonIntervals = 500;
  for (int64_t step = 1; step <= kHorizonIntervals; ++step) {
    sim.RunUntil(kInterval * step);
    ASSERT_TRUE(InvariantAuditor::AuditScheduler(**sched).ok())
        << InvariantAuditor::AuditScheduler(**sched) << " after interval "
        << step;
  }

  const SchedulerMetrics& m = (*sched)->metrics();
  // Everything drained: no stream is active, queued, or parked.
  EXPECT_EQ((*sched)->active_streams(), 0u);
  EXPECT_EQ((*sched)->pending_requests(), 0u);
  EXPECT_EQ((*sched)->paused_streams(), 0u);
  // Every pause resolved, one way or the other.
  EXPECT_EQ(m.streams_paused, m.streams_resumed + m.displays_interrupted);
  // Every request was admitted exactly once and then completed or
  // cancelled; the events the listener heard agree.
  EXPECT_EQ(m.displays_requested, kRequests);
  EXPECT_EQ(m.displays_admitted, kRequests);
  EXPECT_EQ(m.displays_completed + m.displays_cancelled, kRequests);
  EXPECT_EQ(m.displays_completed, calls.completed());
  EXPECT_EQ(m.displays_interrupted, calls.interrupted());
  EXPECT_EQ(calls.breach(), "");
  EXPECT_EQ(m.displays_cancelled, m.displays_interrupted);
  // Delivery never hiccuped, degraded or not.
  EXPECT_EQ(m.hiccups, 0);
  if (c.policy == DegradedPolicy::kPause) {
    EXPECT_EQ(m.degraded_reads, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPropertyTest,
                         ::testing::ValuesIn(MakeCases()), CaseName);

}  // namespace
}  // namespace stagger
