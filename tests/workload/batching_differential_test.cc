// Differential test for the stream batcher's zero-window pass-through
// (in the style of tests/sim/event_queue_equivalence_test.cc): a
// StripedServer with batching enabled at batch_window = 0 must be
// BIT-IDENTICAL to a server with no batcher at all — the same fragment
// lands on the same disk in the same interval for every event of the
// run, and every workload/scheduler/server counter matches exactly.
// That proves batching is a strict opt-in extension: the pass-through
// inserts no timers, no reordering, and no extra events.
//
// Each seed drives the full workload surface through both servers —
// Poisson open arrivals, a flash crowd, VCR scan-then-play sessions
// (fast-forward replicas) and pause/resume re-requests — so follow-up
// requests issued from completion callbacks cross the batcher too.
//
// The seed count defaults to 20 (the acceptance bar) and is widened by
// the CI sweep through STAGGER_BATCH_SEEDS.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../core/display_callbacks.h"
#include "core/fast_forward.h"
#include "disk/disk_array.h"
#include "server/striped_server.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "tertiary/tertiary_manager.h"
#include "workload/open_arrivals.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Micros(604800);

std::vector<uint64_t> MakeSeeds() {
  int64_t seeds = 20;
  if (const char* env = std::getenv("STAGGER_BATCH_SEEDS")) {
    seeds = std::max<int64_t>(1, std::atoll(env));
  }
  std::vector<uint64_t> cases;
  for (int64_t s = 1; s <= seeds; ++s) {
    cases.push_back(static_cast<uint64_t>(s));
  }
  return cases;
}

/// Everything observable about one run, rendered comparably.
struct Fingerprint {
  std::vector<ReadLog::Read> schedule;  ///< every fragment read
  int64_t requests = 0;
  int64_t completed = 0;
  int64_t interrupted = 0;
  int64_t completed_in_window = 0;
  int64_t vcr_scans = 0;
  int64_t vcr_resumes = 0;
  int64_t flash_redirects = 0;
  int64_t latency_count = 0;
  double latency_mean = 0.0;
  double admission_p50 = 0.0;
  double admission_p99 = 0.0;
  int64_t sched_requested = 0;
  int64_t sched_admitted = 0;
  int64_t sched_completed = 0;
  int64_t hiccups = 0;
  int64_t server_requests = 0;
  int64_t resident_hits = 0;
};

Fingerprint RunOnce(uint64_t seed, bool with_batcher) {
  Fingerprint fp;
  Simulator sim;
  Catalog catalog = Catalog::Uniform(24, 100, Bandwidth::Mbps(100));
  auto replicas = AddFastForwardReplicas(&catalog, 16);
  EXPECT_TRUE(replicas.ok());

  auto disks = DiskArray::Create(50, DiskParameters::Evaluation());
  EXPECT_TRUE(disks.ok());
  TertiaryManager tertiary(&sim, TertiaryDevice(TertiaryParameters{}));

  ReadLog schedule;
  StripedConfig config;
  config.stride = 5;
  config.interval = kInterval;
  config.preload_objects = catalog.size();
  config.batch = with_batcher;
  config.batch_window = SimTime::Zero();  // the pass-through under test
  config.read_listener = &schedule;
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  EXPECT_TRUE(server.ok()) << server.status();

  auto popularity = TruncatedGeometric::FromMean(24, 6);
  EXPECT_TRUE(popularity.ok());

  OpenArrivalsConfig oc;
  oc.mean_interarrival = SimTime::Seconds(15);
  oc.seed = seed;
  oc.diurnal_amplitude = 0.3;
  oc.diurnal_period = SimTime::Hours(1);
  FlashCrowd crowd;
  crowd.start = SimTime::Minutes(20);
  crowd.duration = SimTime::Minutes(10);
  crowd.object = 0;
  crowd.hot_fraction = 0.8;
  crowd.rate_multiplier = 3.0;
  oc.flash_crowds.push_back(crowd);
  oc.scan_probability = 0.3;
  oc.pause_probability = 0.2;
  oc.mean_pause = SimTime::Minutes(2);
  oc.scan_replica = *replicas;
  oc.measure_start = SimTime::Minutes(10);
  OpenArrivals arrivals(&sim, server->get(), &*popularity, std::move(oc));
  arrivals.Start();
  sim.RunUntil(SimTime::Minutes(90));
  arrivals.Stop();
  sim.RunUntil(SimTime::Minutes(120));  // drain in-flight displays

  fp.schedule = std::move(schedule.reads);
  fp.requests = arrivals.requests_issued();
  fp.completed = arrivals.displays_completed();
  fp.interrupted = arrivals.displays_interrupted();
  fp.completed_in_window = arrivals.completed_in_window();
  fp.vcr_scans = arrivals.vcr_scans();
  fp.vcr_resumes = arrivals.vcr_resumes();
  fp.flash_redirects = arrivals.flash_redirects();
  fp.latency_count = arrivals.startup_latency_sec().count();
  fp.latency_mean = arrivals.startup_latency_sec().mean();
  fp.admission_p50 = arrivals.admission_latency_sec().p50();
  fp.admission_p99 = arrivals.admission_latency_sec().p99();
  const SchedulerMetrics& sm = (*server)->scheduler_metrics();
  fp.sched_requested = sm.displays_requested;
  fp.sched_admitted = sm.displays_admitted;
  fp.sched_completed = sm.displays_completed;
  fp.hiccups = sm.hiccups;
  fp.server_requests = (*server)->metrics().requests;
  fp.resident_hits = (*server)->metrics().resident_hits;

  // The window-0 batcher must leave nothing open once drained.
  if (const StreamBatcher* batcher = (*server)->batcher()) {
    EXPECT_EQ(batcher->open_batches(), 0);
    EXPECT_EQ(batcher->metrics().requests, fp.requests);
    EXPECT_EQ(batcher->metrics().physical_streams, fp.requests);
    EXPECT_EQ(batcher->metrics().window_joins, 0);
    EXPECT_EQ(batcher->metrics().piggyback_joins, 0);
  }
  return fp;
}

class BatchingDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchingDifferentialTest, WindowZeroIsBitIdenticalToNoBatcher) {
  const uint64_t seed = GetParam();
  const Fingerprint batched = RunOnce(seed, /*with_batcher=*/true);
  const Fingerprint plain = RunOnce(seed, /*with_batcher=*/false);

  // The whole run produced work (the comparison is not vacuous).
  ASSERT_GT(plain.requests, 0);
  ASSERT_GT(plain.completed, 0);
  ASSERT_FALSE(plain.schedule.empty());

  EXPECT_EQ(batched.schedule, plain.schedule);
  EXPECT_EQ(batched.requests, plain.requests);
  EXPECT_EQ(batched.completed, plain.completed);
  EXPECT_EQ(batched.interrupted, plain.interrupted);
  EXPECT_EQ(batched.completed_in_window, plain.completed_in_window);
  EXPECT_EQ(batched.vcr_scans, plain.vcr_scans);
  EXPECT_EQ(batched.vcr_resumes, plain.vcr_resumes);
  EXPECT_EQ(batched.flash_redirects, plain.flash_redirects);
  EXPECT_EQ(batched.latency_count, plain.latency_count);
  EXPECT_EQ(batched.latency_mean, plain.latency_mean);  // bit-exact
  EXPECT_EQ(batched.admission_p50, plain.admission_p50);
  EXPECT_EQ(batched.admission_p99, plain.admission_p99);
  EXPECT_EQ(batched.sched_requested, plain.sched_requested);
  EXPECT_EQ(batched.sched_admitted, plain.sched_admitted);
  EXPECT_EQ(batched.sched_completed, plain.sched_completed);
  EXPECT_EQ(batched.hiccups, 0);
  EXPECT_EQ(plain.hiccups, 0);
  EXPECT_EQ(batched.server_requests, plain.server_requests);
  EXPECT_EQ(batched.resident_hits, plain.resident_hits);
}

std::string CaseName(const ::testing::TestParamInfo<uint64_t>& info) {
  std::ostringstream os;
  os << "s" << info.param;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingDifferentialTest,
                         ::testing::ValuesIn(MakeSeeds()), CaseName);

}  // namespace
}  // namespace stagger
