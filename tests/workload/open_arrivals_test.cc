#include "workload/open_arrivals.h"

#include <gtest/gtest.h>

#include <memory>

#include "server/striped_server.h"
#include "sim/simulator.h"

namespace stagger {
namespace {

class DelayService : public MediaService {
 public:
  DelayService(Simulator* sim, SimTime duration)
      : sim_(sim), duration_(duration) {}
  Status RequestDisplay(ObjectId, StartedFn on_started,
                        CompletedFn on_completed,
                        InterruptedFn /*on_interrupted*/ = nullptr) override {
    if (on_started) on_started(SimTime::Millis(250));
    sim_->ScheduleAfter(duration_, [done = std::move(on_completed)] {
      if (done) done();
    });
    return Status::OK();
  }

 private:
  Simulator* sim_;
  SimTime duration_;
};

/// A plain Poisson stream: every workload-shape extension off.
OpenArrivalsConfig PlainPoisson(SimTime mean_interarrival, uint64_t seed) {
  OpenArrivalsConfig config;
  config.mean_interarrival = mean_interarrival;
  config.seed = seed;
  return config;
}

TEST(OpenArrivalsTest, PoissonRateApproximatelyLambda) {
  Simulator sim;
  DelayService service(&sim, SimTime::Seconds(1));
  auto dist = UniformDistribution::Create(50);
  ASSERT_TRUE(dist.ok());
  OpenArrivals arrivals(&sim, &service, &*dist,
                        PlainPoisson(SimTime::Seconds(10), 3));
  arrivals.Start();
  sim.RunUntil(SimTime::Hours(10));
  // Expected 3600 arrivals over 10 h; Poisson sigma = 60.
  EXPECT_NEAR(static_cast<double>(arrivals.requests_issued()), 3600.0, 300.0);
  EXPECT_NEAR(arrivals.OfferedRatePerHour(), 360.0, 1e-9);
}

TEST(OpenArrivalsTest, CompletionsTrailArrivals) {
  Simulator sim;
  DelayService service(&sim, SimTime::Minutes(5));
  auto dist = UniformDistribution::Create(50);
  ASSERT_TRUE(dist.ok());
  OpenArrivals arrivals(&sim, &service, &*dist,
                        PlainPoisson(SimTime::Seconds(30), 4));
  arrivals.Start();
  sim.RunUntil(SimTime::Hours(1));
  EXPECT_GT(arrivals.requests_issued(), arrivals.displays_completed());
  // Little's law sanity: occupancy ~ lambda * service = 10.
  EXPECT_NEAR(static_cast<double>(arrivals.in_flight()), 10.0, 8.0);
  EXPECT_GT(arrivals.startup_latency_sec().count(), 0);
}

TEST(OpenArrivalsTest, StopHaltsTheStream) {
  Simulator sim;
  DelayService service(&sim, SimTime::Seconds(1));
  auto dist = UniformDistribution::Create(10);
  ASSERT_TRUE(dist.ok());
  OpenArrivals arrivals(&sim, &service, &*dist,
                        PlainPoisson(SimTime::Seconds(5), 5));
  arrivals.Start();
  sim.RunUntil(SimTime::Minutes(5));
  const int64_t at_stop = arrivals.requests_issued();
  arrivals.Stop();
  sim.RunUntil(SimTime::Minutes(30));
  EXPECT_EQ(arrivals.requests_issued(), at_stop);
}

TEST(OpenArrivalsTest, DrivesTheRealServerHiccupFree) {
  Simulator sim;
  Catalog catalog = Catalog::Uniform(30, 100, Bandwidth::Mbps(100));
  auto disks = DiskArray::Create(50, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  TertiaryParameters tp;
  TertiaryManager tertiary(&sim, TertiaryDevice(tp));
  StripedConfig config;
  config.stride = 5;
  config.interval = SimTime::Micros(604800);
  config.preload_objects = 30;
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  ASSERT_TRUE(server.ok());

  auto dist = TruncatedGeometric::FromMean(30, 5);
  ASSERT_TRUE(dist.ok());
  OpenArrivals arrivals(&sim, server->get(), &*dist,
                        PlainPoisson(SimTime::Seconds(20), 6));
  arrivals.Start();
  sim.RunUntil(SimTime::Hours(2));
  EXPECT_GT(arrivals.displays_completed(), 0);
  EXPECT_EQ((*server)->scheduler_metrics().hiccups, 0);
}

TEST(CatalogMixedTest, BuildsHeterogeneousDatabase) {
  Catalog catalog = Catalog::Mixed({
      {"Y", 2, 12, Bandwidth::Mbps(80)},
      {"X", 3, 12, Bandwidth::Mbps(60)},
      {"Z", 1, 12, Bandwidth::Mbps(40)},
  });
  EXPECT_EQ(catalog.size(), 6);
  EXPECT_EQ(catalog.Get(0).name, "Y0");
  EXPECT_EQ(catalog.Get(2).name, "X0");
  EXPECT_EQ(catalog.Get(5).name, "Z0");
  const Bandwidth disk = Bandwidth::Mbps(20);
  EXPECT_EQ(catalog.Get(0).DegreeOfDeclustering(disk), 4);
  EXPECT_EQ(catalog.Get(2).DegreeOfDeclustering(disk), 3);
  EXPECT_EQ(catalog.Get(5).DegreeOfDeclustering(disk), 2);
}

TEST(CatalogMixedTest, ServerHandlesMixedDegrees) {
  // Figure 5's database on 12 disks, stride 1: objects of degree 4 / 3
  // / 2 displayed together, hiccup-free.
  Simulator sim;
  Catalog catalog = Catalog::Mixed({
      {"Y", 2, 24, Bandwidth::Mbps(80)},
      {"X", 2, 24, Bandwidth::Mbps(60)},
      {"Z", 2, 24, Bandwidth::Mbps(40)},
  });
  auto disks = DiskArray::Create(12, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  TertiaryManager tertiary(&sim, TertiaryDevice(TertiaryParameters{}));
  StripedConfig config;
  config.stride = 1;
  config.interval = SimTime::Micros(604800);
  config.preload_objects = 6;
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  ASSERT_TRUE(server.ok()) << server.status();

  int completed = 0;
  for (ObjectId id = 0; id < 6; ++id) {
    ASSERT_TRUE((*server)
                    ->RequestDisplay(id, nullptr, [&] { ++completed; })
                    .ok());
  }
  sim.RunUntil(SimTime::Minutes(10));
  EXPECT_EQ(completed, 6);
  EXPECT_EQ((*server)->scheduler_metrics().hiccups, 0);
}

}  // namespace
}  // namespace stagger
