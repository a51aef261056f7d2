// Property tests for stream batching under a hot-object flash-crowd
// load: a seeded sweep drives a real StripedServer with a positive
// admission window and asserts the batching invariants —
//  * bandwidth: a merged stream is ONE physical stream however many
//    stations ride it, so no disk ever transfers two fragments in one
//    interval (ScheduleTracer collision count stays zero, delivery
//    stays hiccup-free) and the per-interval scheduler audit passes
//    throughout — an admitted batch can never exceed the stripe's
//    bandwidth;
//  * start-offset bound: every piggybacked station's start offset is
//    <= the admission window, and nothing exceeds the fanout cap;
//  * teardown: once arrivals stop and streams drain, every logical
//    request has resolved (completed or interrupted — no starved
//    stations, mirroring the PR 2 on_interrupted fix), no batch stays
//    open, and batching actually merged work (fanout > 1 somewhere,
//    fewer physical streams than requests).
//
// The seed count defaults to 6 and is widened by the CI sweep through
// STAGGER_BATCH_SEEDS (see .github/workflows).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/invariants.h"
#include "core/schedule_trace.h"
#include "disk/disk_array.h"
#include "server/striped_server.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "tertiary/tertiary_manager.h"
#include "workload/open_arrivals.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Micros(604800);
constexpr int32_t kDisks = 50;

std::vector<uint64_t> MakeSeeds() {
  int64_t seeds = 6;
  if (const char* env = std::getenv("STAGGER_BATCH_SEEDS")) {
    seeds = std::max<int64_t>(1, std::atoll(env));
  }
  std::vector<uint64_t> cases;
  for (int64_t s = 1; s <= seeds; ++s) {
    cases.push_back(static_cast<uint64_t>(s));
  }
  return cases;
}

class BatchingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchingPropertyTest, FlashCrowdKeepsEveryInvariant) {
  const uint64_t seed = GetParam();
  const SimTime window = SimTime::Seconds(30);
  const int32_t max_fanout = 8;

  Simulator sim;
  Catalog catalog = Catalog::Uniform(20, 100, Bandwidth::Mbps(100));
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  TertiaryManager tertiary(&sim, TertiaryDevice(TertiaryParameters{}));

  ScheduleTracer tracer(kDisks, /*max_intervals=*/-1);
  StripedConfig config;
  config.stride = 5;
  config.interval = kInterval;
  config.preload_objects = catalog.size();
  config.batch = true;
  config.batch_window = window;
  config.max_batch_fanout = max_fanout;
  config.read_listener = &tracer;
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  ASSERT_TRUE(server.ok()) << server.status();

  auto popularity = TruncatedGeometric::FromMean(20, 5);
  ASSERT_TRUE(popularity.ok());

  // A crowd hammering object 0: most arrivals in the spike want the
  // same object, which is what the window and piggyback paths absorb.
  OpenArrivalsConfig oc;
  oc.mean_interarrival = SimTime::Seconds(6);
  oc.seed = seed;
  FlashCrowd crowd;
  crowd.start = SimTime::Minutes(10);
  crowd.duration = SimTime::Minutes(15);
  crowd.object = 0;
  crowd.hot_fraction = 0.9;
  crowd.rate_multiplier = 4.0;
  oc.flash_crowds.push_back(crowd);
  oc.pause_probability = 0.2;  // repeat same-object traffic
  oc.mean_pause = SimTime::Minutes(1);
  OpenArrivals arrivals(&sim, server->get(), &*popularity, std::move(oc));
  arrivals.Start();

  // Step interval by interval with the full scheduler audit on, through
  // the crowd and past it.
  const SimTime horizon = SimTime::Minutes(40);
  for (SimTime t = kInterval; t <= horizon; t = t + kInterval) {
    sim.RunUntil(t);
    ASSERT_TRUE(InvariantAuditor::AuditScheduler(*(*server)->scheduler()).ok());
  }
  arrivals.Stop();
  sim.RunUntil(horizon + SimTime::Hours(1));  // drain

  const StreamBatcher* batcher = (*server)->batcher();
  ASSERT_NE(batcher, nullptr);
  const BatcherMetrics& bm = batcher->metrics();

  // The run exercised both merge paths.
  ASSERT_GT(bm.requests, 0);
  EXPECT_GT(bm.window_joins, 0) << "seed " << seed;
  EXPECT_GT(bm.piggyback_joins, 0) << "seed " << seed;

  // Bandwidth: one stripe per physical stream, no disk overcommitted,
  // no hiccups, fewer streams than logical requests.
  EXPECT_EQ(tracer.num_collisions(), 0);
  EXPECT_EQ((*server)->scheduler_metrics().hiccups, 0);
  EXPECT_LT(bm.physical_streams, bm.requests);
  EXPECT_GT(bm.fanout.max(), 1.0);
  EXPECT_LE(bm.fanout.max(), static_cast<double>(max_fanout));

  // Start-offset bound: piggyback joins never miss more than the window.
  if (bm.start_offset_sec.count() > 0) {
    EXPECT_LE(bm.start_offset_sec.max(), window.seconds() + 1e-9);
    EXPECT_GE(bm.start_offset_sec.min(), 0.0);
  }

  // Teardown: every station returns to the pool — all logical requests
  // resolved, nothing starved, no batch left open.
  EXPECT_EQ(bm.requests, bm.completed + bm.interrupted);
  EXPECT_EQ(arrivals.in_flight(), 0);
  EXPECT_EQ(batcher->open_batches(), 0);
  // Physical accounting closes too: every issued stream ended.
  const SchedulerMetrics& sm = (*server)->scheduler_metrics();
  EXPECT_EQ(sm.displays_requested, bm.physical_streams);
  EXPECT_EQ(sm.displays_completed + sm.displays_cancelled,
            sm.displays_requested);
  // Admission latency is bounded by window + scheduler admission; the
  // tracker saw every logical request.
  EXPECT_EQ(bm.admission_latency_sec.count(), bm.requests);
  EXPECT_GE(bm.admission_latency_sec.p99(), bm.admission_latency_sec.p50());
}

std::string CaseName(const ::testing::TestParamInfo<uint64_t>& info) {
  std::ostringstream os;
  os << "s" << info.param;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingPropertyTest,
                         ::testing::ValuesIn(MakeSeeds()), CaseName);

}  // namespace
}  // namespace stagger
