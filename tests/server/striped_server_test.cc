#include "server/striped_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/analysis.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace stagger {

/// Reaches StripedServer::LostFragmentsOn, the private rebuild work list.
class StripedServerTestPeer {
 public:
  static std::vector<LostFragment> LostFragmentsOn(const StripedServer& s,
                                                   DiskId slot) {
    return s.LostFragmentsOn(slot);
  }

  /// Reference: probe every fragment of every row with DiskFor /
  /// ParityDiskFor, as the rebuild work list was first built.
  static std::vector<LostFragment> ProbeEveryFragment(const StripedServer& s,
                                                      DiskId slot) {
    std::vector<LostFragment> lost;
    for (ObjectId id = 0; id < s.catalog_->size(); ++id) {
      if (!s.objects_->IsResident(id)) continue;
      const StaggeredLayout& layout = s.objects_->LayoutOf(id);
      const int64_t n = s.catalog_->Get(id).num_subobjects;
      for (int64_t i = 0; i < n; ++i) {
        const Stripe stripe{
            layout.num_disks(), layout.StripeOf(i).first, layout.degree(),
            layout.has_parity() ? layout.ParityDiskFor(i) : -1};
        for (int32_t j = 0; j < layout.degree(); ++j) {
          if (layout.DiskFor(i, j) != slot) continue;
          lost.push_back(LostFragment{id, i, j, stripe});
        }
        if (layout.has_parity() && layout.ParityDiskFor(i) == slot) {
          lost.push_back(LostFragment{id, i, layout.degree(), stripe});
        }
      }
    }
    return lost;
  }
};

namespace {

constexpr SimTime kInterval = SimTime::Micros(604800);

class StripedServerTest : public ::testing::Test {
 protected:
  // 10 disks x 3000 cylinders; objects of 600 subobjects, M = 5 ->
  // 3000 fragments (300 cylinders per disk with stride 1), so the farm
  // holds exactly 10 objects.  Display time: 600 intervals ~ 363 s.
  void MakeServer(int32_t num_objects = 20, int32_t preload = 10,
                  int64_t subobjects = 600, int32_t stride = 1,
                  double tertiary_mbps = 40) {
    catalog_ = Catalog::Uniform(num_objects, subobjects, Bandwidth::Mbps(100));
    auto disks = DiskArray::Create(10, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
    TertiaryParameters tp;
    tp.bandwidth = Bandwidth::Mbps(tertiary_mbps);
    tp.reposition = SimTime::Zero();
    tertiary_ = std::make_unique<TertiaryManager>(&sim_, TertiaryDevice(tp));
    StripedConfig config;
    config.stride = stride;
    config.interval = kInterval;
    config.fragment_size = DataSize::MB(1.512);
    config.preload_objects = preload;
    auto server = StripedServer::Create(&sim_, &catalog_, disks_.get(),
                                        tertiary_.get(), config);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = *std::move(server);
  }

  struct Probe {
    bool started = false;
    bool completed = false;
    SimTime latency;
  };

  void Request(ObjectId object, Probe* probe) {
    Status st = server_->RequestDisplay(
        object,
        [probe](SimTime latency) {
          probe->started = true;
          probe->latency = latency;
        },
        [probe] { probe->completed = true; });
    ASSERT_TRUE(st.ok()) << st;
  }

  SimTime DisplayTime() const { return kInterval * 600; }

  Simulator sim_;
  Catalog catalog_;
  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<TertiaryManager> tertiary_;
  std::unique_ptr<StripedServer> server_;
};

TEST_F(StripedServerTest, ConfigValidation) {
  StripedConfig config;
  config.stride = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config = StripedConfig{};
  config.fragment_cylinders = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config = StripedConfig{};
  config.preload_objects = -1;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  EXPECT_TRUE(StripedConfig{}.Validate().ok());
}

TEST_F(StripedServerTest, ConfigValidationFragmentedAndCoalesce) {
  // kFragmented with a non-positive lookahead degenerates to contiguous
  // admission while paying Algorithm 1's bookkeeping: rejected.
  StripedConfig config;
  config.policy = AdmissionPolicy::kFragmented;
  config.fragmented_lookahead = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.fragmented_lookahead = -3;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.fragmented_lookahead = 16;
  EXPECT_TRUE(config.Validate().ok());
  // A contiguous policy tolerates any lookahead value (it is unused).
  config = StripedConfig{};
  config.policy = AdmissionPolicy::kContiguous;
  config.fragmented_lookahead = 0;
  EXPECT_TRUE(config.Validate().ok());

  // Coalescing requires the fragmented policy.
  config = StripedConfig{};
  config.coalesce = true;
  config.policy = AdmissionPolicy::kContiguous;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.policy = AdmissionPolicy::kFragmented;
  EXPECT_TRUE(config.Validate().ok());
}

TEST_F(StripedServerTest, EffectiveDiskBandwidthFromFragmentAndInterval) {
  MakeServer();
  EXPECT_NEAR(server_->EffectiveDiskBandwidth().mbps(), 20.0, 0.01);
}

TEST_F(StripedServerTest, PreloadFillsFarm) {
  MakeServer();
  EXPECT_EQ(server_->object_manager().ResidentCount(), 10);
  EXPECT_EQ(disks_->FreeCylinders(), 0);
}

// Asking for more objects than the farm holds must stop at the first
// one that does not fit.  Evicting to make room would drop the lowest
// ids, the most popular titles, since no access has been counted yet.
TEST_F(StripedServerTest, PreloadPastCapacityEvictsNothing) {
  MakeServer(/*num_objects=*/20, /*preload=*/15);
  SystemModel model;
  model.num_disks = 10;
  model.disk = DiskParameters::Evaluation();
  model.display_bandwidth = Bandwidth::Mbps(100);
  model.subobjects_per_object = 600;
  model.transfer_rate_is_effective = true;
  const int32_t capacity = model.MaxResidentObjects();
  ASSERT_EQ(capacity, 10);

  const ObjectManager& objects = server_->object_manager();
  EXPECT_EQ(objects.evictions(), 0);
  EXPECT_EQ(objects.ResidentCount(), capacity);
  for (ObjectId id = 0; id < capacity; ++id) {
    EXPECT_TRUE(objects.IsResident(id)) << "object " << id;
  }
}

TEST_F(StripedServerTest, UnknownObjectRejected) {
  MakeServer();
  EXPECT_TRUE(server_->RequestDisplay(999, nullptr, nullptr).IsNotFound());
}

TEST_F(StripedServerTest, ResidentHitDisplays) {
  MakeServer();
  Probe p;
  Request(0, &p);
  sim_.RunUntil(DisplayTime() + SimTime::Seconds(2));
  EXPECT_TRUE(p.started);
  EXPECT_TRUE(p.completed);
  EXPECT_EQ(server_->metrics().resident_hits, 1);
  EXPECT_EQ(server_->scheduler_metrics().hiccups, 0);
  EXPECT_EQ(server_->object_manager().PinCount(0), 0);  // unpinned after
}

TEST_F(StripedServerTest, MissMaterializesThenDisplays) {
  MakeServer(/*num_objects=*/20, /*preload=*/10, /*subobjects=*/600,
             /*stride=*/1, /*tertiary_mbps=*/400);
  Probe p;
  Request(15, &p);  // beyond the preload
  EXPECT_FALSE(p.started);
  EXPECT_EQ(server_->metrics().materializations_started, 1);
  // Object size: 600 x 5 x 1.512 MB = 4.536 GB at 400 mbps ~ 90.7 s,
  // plus eviction + admission.
  sim_.RunUntil(SimTime::Seconds(95));
  EXPECT_TRUE(p.started);
  EXPECT_TRUE(server_->object_manager().IsResident(15));
  sim_.RunUntil(SimTime::Seconds(95) + DisplayTime());
  EXPECT_TRUE(p.completed);
  // LFU: some never-accessed preloaded object was evicted to make room.
  EXPECT_EQ(server_->object_manager().ResidentCount(), 10);
}

TEST_F(StripedServerTest, ConcurrentMissesShareMaterialization) {
  MakeServer(/*num_objects=*/20, /*preload=*/10, /*subobjects=*/600,
             /*stride=*/1, /*tertiary_mbps=*/400);
  Probe a, b;
  Request(15, &a);
  Request(15, &b);
  EXPECT_EQ(server_->metrics().materializations_started, 1);
  sim_.RunUntil(SimTime::Minutes(10));
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(b.completed);
}

TEST_F(StripedServerTest, ConcurrentDisplaysOfSameObject) {
  // Unlike VDR, striping serves several displays of one object at a
  // small stagger — the core advantage the paper demonstrates.
  MakeServer();
  Probe a, b;
  Request(0, &a);
  Request(0, &b);
  sim_.RunUntil(kInterval * 8);
  EXPECT_TRUE(a.started);
  EXPECT_TRUE(b.started);
  EXPECT_LE(b.latency, kInterval * 6);
  sim_.RunUntil(SimTime::Minutes(8));
  EXPECT_TRUE(a.completed && b.completed);
  EXPECT_EQ(server_->scheduler_metrics().hiccups, 0);
}

TEST_F(StripedServerTest, PinnedObjectsSurviveEvictionPressure) {
  // Fast tertiary (400 mbps): the miss lands in ~91 s, while every
  // resident object is pinned by an active or queued display until the
  // first displays complete at ~363 s.
  MakeServer(/*num_objects=*/20, /*preload=*/10, /*subobjects=*/600,
             /*stride=*/1, /*tertiary_mbps=*/400);
  Probe displays[10];
  for (ObjectId id = 0; id < 10; ++id) Request(id, &displays[id]);
  Probe miss;
  Request(15, &miss);
  sim_.RunUntil(SimTime::Seconds(100));  // after materialization, before
                                         // any display completion
  EXPECT_GE(server_->metrics().landings_deferred, 1);
  EXPECT_FALSE(miss.started);
  // Two displays run at a time; the miss display queues behind the
  // other eight and starts around t ~ 1815 s.
  sim_.RunUntil(SimTime::Minutes(35));
  EXPECT_TRUE(miss.started);
  sim_.RunUntil(SimTime::Minutes(45));
  EXPECT_TRUE(miss.completed);
}

TEST_F(StripedServerTest, SimpleStripingStrideM) {
  MakeServer(/*num_objects=*/20, /*preload=*/10, /*subobjects=*/600,
             /*stride=*/5);
  Probe a, b;
  Request(0, &a);
  Request(1, &b);
  sim_.RunUntil(SimTime::Minutes(8));
  EXPECT_TRUE(a.completed && b.completed);
  EXPECT_EQ(server_->scheduler_metrics().hiccups, 0);
}

TEST_F(StripedServerTest, AccessCountsDriveLfu) {
  MakeServer(/*num_objects=*/20, /*preload=*/10, /*subobjects=*/600,
             /*stride=*/1, /*tertiary_mbps=*/400);
  Probe p;
  Request(0, &p);  // object 0 now has an access
  sim_.RunUntil(DisplayTime() + SimTime::Seconds(2));
  Probe miss;
  Request(15, &miss);
  sim_.RunUntil(SimTime::Minutes(15));
  EXPECT_TRUE(miss.completed);
  EXPECT_TRUE(server_->object_manager().IsResident(0));   // accessed: kept
  EXPECT_TRUE(server_->object_manager().IsResident(15));  // newly landed
}

// The closed-form lost-fragment list (one offset per row) matches the
// per-fragment probe entry for entry, in order, on random layouts:
// strides above 1, parity on and off, rows that wrap past disk D - 1.
TEST(StripedServerLostFragmentsTest, ClosedFormMatchesPerFragmentProbe) {
  Rng rng(20240101);
  int64_t compared = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const int32_t d = static_cast<int32_t>(6 + rng.NextBounded(12));
    const double mbps = 20.0 * static_cast<double>(1 + rng.NextBounded(5));
    Simulator sim;
    Catalog catalog = Catalog::Uniform(
        8, static_cast<int64_t>(5 + rng.NextBounded(60)), Bandwidth::Mbps(mbps));
    auto disks = DiskArray::Create(d, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    TertiaryManager tertiary(&sim, TertiaryDevice(TertiaryParameters{}));
    StripedConfig config;
    config.stride = static_cast<int32_t>(1 + rng.NextBounded(
                                                 static_cast<uint64_t>(d)));
    config.parity = rng.NextBool(0.5);
    config.preload_objects = 8;
    auto server =
        StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
    ASSERT_TRUE(server.ok()) << server.status();
    for (DiskId slot = 0; slot < d; ++slot) {
      const std::vector<LostFragment> got =
          StripedServerTestPeer::LostFragmentsOn(**server, slot);
      const std::vector<LostFragment> want =
          StripedServerTestPeer::ProbeEveryFragment(**server, slot);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " slot " << slot;
      for (size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].object, want[e].object);
        EXPECT_EQ(got[e].subobject, want[e].subobject);
        EXPECT_EQ(got[e].fragment, want[e].fragment);
        EXPECT_TRUE(got[e].stripe == want[e].stripe);
      }
      compared += static_cast<int64_t>(got.size());
    }
  }
  EXPECT_GT(compared, 0);
}

// A full-width object (M = D) falls back to a layout without parity, so
// a failed slot's fragments of it cannot be rebuilt: the server starts
// no rebuild, claims no spare and reads nothing on the rebuild's
// behalf, leaving the slot to the degraded-read ladder.
TEST(StripedServerRebuildTest, ParitylessSlotIsNotRebuilt) {
  Simulator sim;
  // 100 Mb/s at 20 Mb/s per disk: M = 5 = D.
  Catalog catalog = Catalog::Uniform(1, 40, Bandwidth::Mbps(100));
  auto disks = DiskArray::Create(5, DiskParameters::Evaluation(),
                                 /*num_spares=*/1);
  ASSERT_TRUE(disks.ok());
  TertiaryManager tertiary(&sim, TertiaryDevice(TertiaryParameters{}));
  StripedConfig config;
  config.interval = kInterval;
  config.fragment_size = DataSize::MB(1.512);
  config.parity = true;
  config.preload_objects = 1;
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->object_manager().IsResident(0));
  ASSERT_EQ((*server)->object_manager().LayoutOf(0).degree(), 5);
  ASSERT_FALSE((*server)->object_manager().LayoutOf(0).has_parity());
  ASSERT_NE((*server)->rebuild(), nullptr);

  disks->FailDisk(2);
  (*server)->OnDiskDown(2, sim.Now());
  EXPECT_FALSE((*server)->rebuild()->rebuilding(2));
  EXPECT_EQ(disks->FreeSpareCount(), 1);

  // Run the intervals a rebuild would have used.  Under audits a source
  // read reserved twice in one interval aborts the run.
  sim.RunUntil(kInterval * 200);
  const RebuildMetrics& m = (*server)->rebuild()->metrics();
  EXPECT_EQ(m.rebuilds_started, 0);
  EXPECT_EQ(m.source_reads, 0);
  EXPECT_EQ(m.fragments_rebuilt, 0);
  EXPECT_EQ(disks->FreeSpareCount(), 1);
  EXPECT_FALSE(disks->IsAvailable(2));
}

}  // namespace
}  // namespace stagger
