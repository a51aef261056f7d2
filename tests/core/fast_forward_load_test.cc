// Fast-forward replicas under load: scan replicas built by
// AddFastForwardReplicas join the catalog and are displayed through a
// real StripedServer by an open-arrivals VCR workload — scan-then-play
// sessions (replica first, original after) interleaved with
// pause/resume re-requests and a flash crowd — with the per-interval
// scheduler audit on throughout.  The
// mixed-degree schedule (7-subobject replicas next to 100-subobject
// originals on the same stripes) must stay hiccup-free with every
// invariant intact.

#include <gtest/gtest.h>

#include <memory>

#include "core/fast_forward.h"
#include "core/invariants.h"
#include "disk/disk_array.h"
#include "server/striped_server.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "tertiary/tertiary_manager.h"
#include "workload/open_arrivals.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Micros(604800);

TEST(FastForwardLoadTest, ReplicaCatalogMapsOriginalsToScans) {
  Catalog catalog = Catalog::Uniform(10, 100, Bandwidth::Mbps(100));
  auto replicas = AddFastForwardReplicas(&catalog, 16);
  ASSERT_TRUE(replicas.ok());
  ASSERT_EQ(replicas->size(), 10u);
  EXPECT_EQ(catalog.size(), 20);
  for (ObjectId id = 0; id < 10; ++id) {
    const ObjectId rid = (*replicas)[static_cast<size_t>(id)];
    ASSERT_TRUE(catalog.Contains(rid));
    const MediaObject& replica = catalog.Get(rid);
    EXPECT_EQ(replica.num_subobjects, 7);  // ceil(100 / 16)
    EXPECT_EQ(replica.name, catalog.Get(id).name + ".ff16");
    EXPECT_EQ(replica.display_bandwidth.bits_per_sec(),
              catalog.Get(id).display_bandwidth.bits_per_sec());
  }
}

TEST(FastForwardLoadTest, ReplicaPositionMappingRoundTrips) {
  MediaObject original;
  original.num_subobjects = 100;
  auto replica = MakeFastForwardReplica(original, 16);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica->object.num_subobjects, 7);
  EXPECT_EQ(replica->ToReplica(0), 0);
  EXPECT_EQ(replica->ToReplica(99), 6);
  EXPECT_EQ(replica->FromReplica(6), 96);
  // Every normal position maps into a valid replica subobject.
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_LT(replica->ToReplica(i), replica->object.num_subobjects);
    EXPECT_LE(replica->FromReplica(replica->ToReplica(i)), i);
  }
  EXPECT_NEAR(replica->StorageOverhead(original), 0.07, 1e-9);
}

TEST(FastForwardLoadTest, ScanSessionsUnderOpenArrivalsStayAuditClean) {
  Simulator sim;
  Catalog catalog = Catalog::Uniform(20, 100, Bandwidth::Mbps(100));
  auto replicas = AddFastForwardReplicas(&catalog, 16);
  ASSERT_TRUE(replicas.ok());

  auto disks = DiskArray::Create(50, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  TertiaryManager tertiary(&sim, TertiaryDevice(TertiaryParameters{}));

  StripedConfig config;
  config.stride = 5;
  config.interval = kInterval;
  config.preload_objects = catalog.size();  // originals + replicas resident
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  ASSERT_TRUE(server.ok()) << server.status();

  auto popularity = TruncatedGeometric::FromMean(20, 5);
  ASSERT_TRUE(popularity.ok());

  OpenArrivalsConfig oc;
  oc.mean_interarrival = SimTime::Seconds(10);
  oc.seed = 42;
  oc.scan_probability = 0.5;   // half the sessions scan first
  oc.pause_probability = 0.3;  // and re-request after a pause
  oc.mean_pause = SimTime::Minutes(1);
  oc.scan_replica = *replicas;
  FlashCrowd crowd;
  crowd.start = SimTime::Minutes(15);
  crowd.duration = SimTime::Minutes(10);
  crowd.object = 0;
  crowd.hot_fraction = 0.7;
  crowd.rate_multiplier = 2.0;
  oc.flash_crowds.push_back(crowd);
  OpenArrivals arrivals(&sim, server->get(), &*popularity, std::move(oc));
  arrivals.Start();

  // Interval-by-interval with the scheduler audit on; the full server
  // sweep (catalog + every resident layout) every 64 intervals.
  const SimTime horizon = SimTime::Minutes(45);
  int64_t step = 0;
  for (SimTime t = kInterval; t <= horizon; t = t + kInterval, ++step) {
    sim.RunUntil(t);
    ASSERT_TRUE(InvariantAuditor::AuditScheduler(*(*server)->scheduler()).ok());
    if (step % 64 == 0) {
      ASSERT_TRUE((*server)->AuditInvariants().ok());
    }
  }
  arrivals.Stop();
  sim.RunUntil(horizon + SimTime::Hours(1));  // drain
  ASSERT_TRUE((*server)->AuditInvariants().ok());

  // The VCR surface was actually exercised.
  EXPECT_GT(arrivals.vcr_scans(), 0);
  EXPECT_GT(arrivals.vcr_resumes(), 0);
  EXPECT_GT(arrivals.flash_redirects(), 0);
  EXPECT_GT(arrivals.displays_completed(), 0);
  // Every session leg resolved; a scan adds its play leg, so completed
  // displays exceed the scan count.
  EXPECT_EQ(arrivals.in_flight(), 0);
  EXPECT_GT(arrivals.displays_completed(), arrivals.vcr_scans());
  // Delivery stayed clean across mixed replica/original degrees.
  EXPECT_EQ((*server)->scheduler_metrics().hiccups, 0);
  EXPECT_EQ(arrivals.displays_interrupted(), 0);
}

TEST(FastForwardLoadTest, BatchedScanSessionsMergeReplicaStreams) {
  // Scans through the batcher: crowds of stations scanning the same hot
  // object share replica and original streams alike.
  Simulator sim;
  Catalog catalog = Catalog::Uniform(12, 100, Bandwidth::Mbps(100));
  auto replicas = AddFastForwardReplicas(&catalog, 16);
  ASSERT_TRUE(replicas.ok());
  auto disks = DiskArray::Create(50, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  TertiaryManager tertiary(&sim, TertiaryDevice(TertiaryParameters{}));

  StripedConfig config;
  config.stride = 5;
  config.interval = kInterval;
  config.preload_objects = catalog.size();
  config.batch = true;
  config.batch_window = SimTime::Seconds(30);
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  ASSERT_TRUE(server.ok()) << server.status();

  auto popularity = TruncatedGeometric::FromMean(12, 3);
  ASSERT_TRUE(popularity.ok());
  OpenArrivalsConfig oc;
  oc.mean_interarrival = SimTime::Seconds(5);
  oc.seed = 7;
  oc.scan_probability = 0.6;
  oc.scan_replica = *replicas;
  OpenArrivals arrivals(&sim, server->get(), &*popularity, std::move(oc));
  arrivals.Start();
  sim.RunUntil(SimTime::Minutes(30));
  arrivals.Stop();
  sim.RunUntil(SimTime::Minutes(90));

  const StreamBatcher* batcher = (*server)->batcher();
  ASSERT_NE(batcher, nullptr);
  EXPECT_GT(arrivals.vcr_scans(), 0);
  EXPECT_GT(batcher->metrics().window_joins, 0);
  EXPECT_LT(batcher->metrics().physical_streams,
            batcher->metrics().requests);
  EXPECT_EQ(batcher->open_batches(), 0);
  EXPECT_EQ(arrivals.in_flight(), 0);
  EXPECT_EQ((*server)->scheduler_metrics().hiccups, 0);
}

}  // namespace
}  // namespace stagger
