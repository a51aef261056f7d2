#include "baseline/vdr_server.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

class VdrServerTest : public ::testing::Test {
 protected:
  // 4 clusters; objects of 10 subobjects => display time 6.05 s.
  void MakeServer(int32_t num_objects = 10, int32_t preload = 4,
                  bool replication = true, int64_t subobjects = 10) {
    catalog_ = Catalog::Uniform(num_objects, subobjects, Bandwidth::Mbps(100));
    TertiaryParameters tp;
    tp.bandwidth = Bandwidth::Mbps(40);
    tp.reposition = SimTime::Zero();
    tertiary_ = std::make_unique<TertiaryManager>(&sim_, TertiaryDevice(tp));
    VdrConfig config;
    config.num_clusters = 4;
    config.cluster_degree = 5;
    config.interval = kInterval;
    config.fragment_size = DataSize::MB(1.512);
    config.enable_replication = replication;
    config.preload_objects = preload;
    auto server = VdrServer::Create(&sim_, &catalog_, tertiary_.get(), config);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = *std::move(server);
  }

  struct Probe {
    bool started = false;
    bool completed = false;
    bool interrupted = false;
    SimTime latency;
  };

  void Request(ObjectId object, Probe* probe) {
    Status st = server_->RequestDisplay(
        object,
        [probe](SimTime latency) {
          probe->started = true;
          probe->latency = latency;
        },
        [probe] { probe->completed = true; },
        [probe] { probe->interrupted = true; });
    ASSERT_TRUE(st.ok()) << st;
  }

  SimTime DisplayTime() const { return kInterval * 10; }

  Simulator sim_;
  Catalog catalog_;
  std::unique_ptr<TertiaryManager> tertiary_;
  std::unique_ptr<VdrServer> server_;
};

TEST_F(VdrServerTest, ConfigValidation) {
  VdrConfig config;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());  // no clusters
  config.num_clusters = 4;
  config.cluster_degree = 5;
  config.interval = kInterval;
  EXPECT_TRUE(config.Validate().ok());
  config.objects_per_cluster = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.objects_per_cluster = 2;
  config.preload_replicas = {1, 1};
  EXPECT_TRUE(config.Validate().IsInvalidArgument());  // needs opc == 1
}

TEST_F(VdrServerTest, UnknownObjectRejected) {
  MakeServer();
  EXPECT_TRUE(server_->RequestDisplay(99, nullptr, nullptr).IsNotFound());
}

TEST_F(VdrServerTest, PreloadedObjectDisplaysImmediately) {
  MakeServer();
  Probe p;
  Request(0, &p);
  EXPECT_TRUE(p.started);
  EXPECT_EQ(p.latency, SimTime::Zero());
  sim_.RunUntil(DisplayTime() + SimTime::Seconds(1));
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(server_->metrics().displays_completed, 1);
}

TEST_F(VdrServerTest, SecondRequestForSameObjectWaits) {
  MakeServer(/*num_objects=*/10, /*preload=*/4, /*replication=*/false);
  Probe a, b;
  Request(0, &a);
  Request(0, &b);
  EXPECT_TRUE(a.started);
  EXPECT_FALSE(b.started);  // sole replica busy
  sim_.RunUntil(DisplayTime() + SimTime::Seconds(1));
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(b.started);
  EXPECT_NEAR(b.latency.seconds(), DisplayTime().seconds(), 0.01);
}

TEST_F(VdrServerTest, DifferentObjectsDisplayConcurrently) {
  MakeServer();
  Probe p[4];
  for (ObjectId i = 0; i < 4; ++i) Request(i, &p[i]);
  for (const Probe& probe : p) EXPECT_TRUE(probe.started);
  sim_.RunUntil(DisplayTime() + SimTime::Seconds(1));
  for (const Probe& probe : p) EXPECT_TRUE(probe.completed);
}

TEST_F(VdrServerTest, MissTriggersMaterialization) {
  MakeServer(/*num_objects=*/10, /*preload=*/3);
  Probe p;
  Request(5, &p);  // not preloaded; cluster 3 is empty
  EXPECT_FALSE(p.started);
  EXPECT_EQ(server_->metrics().materializations, 1);
  // Object: 10 subobjects x 5 frags x 1.512 MB = 75.6 MB at 40 mbps
  // ~15.1 s, then the display runs.
  sim_.RunUntil(SimTime::Seconds(16));
  EXPECT_TRUE(p.started);
  sim_.RunUntil(SimTime::Seconds(16) + DisplayTime());
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(server_->ReplicaCount(5), 1);
}

TEST_F(VdrServerTest, ConcurrentMissesShareOneMaterialization) {
  MakeServer(/*num_objects=*/10, /*preload=*/3);
  Probe a, b;
  Request(5, &a);
  Request(5, &b);
  EXPECT_EQ(server_->metrics().materializations, 1);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(b.completed);
}

TEST_F(VdrServerTest, MaterializationEvictsLfuWhenFull) {
  MakeServer(/*num_objects=*/10, /*preload=*/4);
  // Touch objects 0-2 so object 3 is the LFU resident.
  Probe warm[3];
  for (ObjectId i = 0; i < 3; ++i) Request(i, &warm[i]);
  sim_.RunUntil(DisplayTime() + SimTime::Seconds(1));
  Probe p;
  Request(7, &p);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(server_->ReplicaCount(3), 0);  // evicted
  EXPECT_EQ(server_->ReplicaCount(7), 1);
  EXPECT_GE(server_->metrics().evictions, 1);
}

TEST_F(VdrServerTest, PiggybackReplicationGrowsHotObjects) {
  MakeServer(/*num_objects=*/10, /*preload=*/2);
  // Three queued requests for object 0 while one replica exists.
  Probe p[4];
  for (int i = 0; i < 4; ++i) Request(0, &p[i]);
  sim_.RunUntil(DisplayTime() * 5);
  EXPECT_GE(server_->metrics().replications, 1);
  EXPECT_GE(server_->ReplicaCount(0), 2);
  for (const Probe& probe : p) EXPECT_TRUE(probe.completed);
}

TEST_F(VdrServerTest, ReplicationDisabledNeverReplicates) {
  MakeServer(/*num_objects=*/10, /*preload=*/2, /*replication=*/false);
  Probe p[4];
  for (int i = 0; i < 4; ++i) Request(0, &p[i]);
  sim_.RunUntil(DisplayTime() * 6);
  EXPECT_EQ(server_->metrics().replications, 0);
  EXPECT_EQ(server_->ReplicaCount(0), 1);
  for (const Probe& probe : p) EXPECT_TRUE(probe.completed);
}

TEST_F(VdrServerTest, ReplicationNeverDisplacesSoleReplicas) {
  // All four clusters hold sole replicas of touched objects; replication
  // of the hot object must find no destination.
  MakeServer(/*num_objects=*/10, /*preload=*/4);
  Probe warm[4];
  for (ObjectId i = 0; i < 4; ++i) Request(i, &warm[i]);
  sim_.RunUntil(DisplayTime() + SimTime::Seconds(1));
  Probe p[3];
  for (int i = 0; i < 3; ++i) Request(0, &p[i]);
  sim_.RunUntil(DisplayTime() * 6);
  EXPECT_EQ(server_->metrics().replications, 0);
  EXPECT_EQ(server_->ResidentObjectCount(), 4);
}

TEST_F(VdrServerTest, DemandProportionalPreload) {
  catalog_ = Catalog::Uniform(10, 10, Bandwidth::Mbps(100));
  TertiaryParameters tp;
  tertiary_ = std::make_unique<TertiaryManager>(&sim_, TertiaryDevice(tp));
  VdrConfig config;
  config.num_clusters = 4;
  config.cluster_degree = 5;
  config.interval = kInterval;
  config.preload_replicas = {2, 1, 1};
  auto server = VdrServer::Create(&sim_, &catalog_, tertiary_.get(), config);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->ReplicaCount(0), 2);
  EXPECT_EQ((*server)->ReplicaCount(1), 1);
  EXPECT_EQ((*server)->ReplicaCount(2), 1);
  EXPECT_EQ((*server)->ResidentObjectCount(), 3);
}

TEST_F(VdrServerTest, ClusterUtilizationAccounts) {
  MakeServer();
  Probe p;
  Request(0, &p);
  sim_.RunUntil(DisplayTime() * 2);
  // One of four clusters busy for half the elapsed time.
  EXPECT_NEAR(server_->MeanClusterUtilization(), 0.125, 0.01);
}

}  // namespace
}  // namespace stagger
