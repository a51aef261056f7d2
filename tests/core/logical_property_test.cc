// Property tests for the logical-disk scheduler: randomized unit
// demands must never oversubscribe a disk's units, always complete, and
// conserve unit-interval accounting.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/logical_scheduler.h"
#include "display_callbacks.h"
#include "util/rng.h"

namespace stagger {
namespace {

struct LogicalCase {
  int32_t num_disks;
  int32_t logical_per_disk;
  int32_t stride;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<LogicalCase>& info) {
  std::ostringstream os;
  os << "D" << info.param.num_disks << "_L" << info.param.logical_per_disk
     << "_k" << info.param.stride << "_s" << info.param.seed;
  return os.str();
}

class LogicalPropertyTest : public ::testing::TestWithParam<LogicalCase> {};

TEST_P(LogicalPropertyTest, RandomLoadConservesUnits) {
  const LogicalCase& c = GetParam();
  Simulator sim;
  LogicalSchedulerConfig config;
  config.num_disks = c.num_disks;
  config.logical_per_disk = c.logical_per_disk;
  config.stride = c.stride;
  config.interval = SimTime::Millis(605);
  CallbackListener calls;
  auto sched = LogicalDiskScheduler::Create(&sim, config, &calls);
  ASSERT_TRUE(sched.ok()) << sched.status();

  Rng rng(c.seed);
  constexpr int kRequests = 30;
  int64_t expected_unit_intervals = 0;
  SimTime at = SimTime::Zero();
  for (int i = 0; i < kRequests; ++i) {
    LogicalRequest req;
    req.object = i;
    // Demand between one unit and half the farm.
    const int64_t max_units =
        std::max<int64_t>(1, static_cast<int64_t>(c.num_disks) *
                                 c.logical_per_disk / 2);
    req.units = static_cast<int64_t>(
        1 + rng.NextBounded(static_cast<uint64_t>(max_units)));
    req.start_disk = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(c.num_disks)));
    req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(25));
    req.partial_lane_first = rng.NextBool(0.5);
    expected_unit_intervals += req.units * req.num_subobjects;
    at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(2000000)));
    sim.ScheduleAt(at, [&sched, req = std::move(req)]() mutable {
      auto id = (*sched)->Submit(std::move(req));
      STAGGER_CHECK(id.ok()) << id.status();
    });
  }
  sim.RunUntil(SimTime::Hours(2));

  EXPECT_EQ(calls.completed(), kRequests);
  EXPECT_EQ(calls.started(), kRequests);
  EXPECT_EQ(calls.breach(), "");
  EXPECT_EQ((*sched)->metrics().displays_completed, kRequests);
  EXPECT_EQ((*sched)->active_streams(), 0u);
  EXPECT_EQ((*sched)->pending_requests(), 0u);
  // Exact unit-interval conservation: every admitted stream consumed
  // units * subobjects unit-intervals, nothing more.
  EXPECT_EQ((*sched)->metrics().unit_intervals_used, expected_unit_intervals);
  // All units returned.
  for (int32_t v = 0; v < c.num_disks; ++v) {
    EXPECT_EQ((*sched)->FreeUnits(v), c.logical_per_disk);
  }
  EXPECT_LE((*sched)->Utilization(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LogicalPropertyTest,
    ::testing::Values(LogicalCase{4, 1, 1, 1}, LogicalCase{4, 2, 1, 2},
                      LogicalCase{6, 2, 5, 3}, LogicalCase{8, 4, 3, 4},
                      LogicalCase{9, 3, 3, 5}, LogicalCase{12, 2, 7, 6},
                      LogicalCase{5, 8, 2, 7}),
    CaseName);

}  // namespace
}  // namespace stagger
