// Golden-trace regression tests: fixed-seed runs are serialized — the
// per-interval read schedule for the striped scheduler, an event log
// for the VDR baseline — and compared byte-for-byte against checked-in
// baselines in tests/golden/.  Any change to a scheduling decision
// shows up as a readable diff.
//
// To refresh the baselines after an *intentional* behavior change:
//
//   ./build/tests/golden_trace_test --update-golden
//
// then review the diff and commit the .golden files with the change.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "baseline/vdr_server.h"
#include "core/interval_scheduler.h"
#include "core/invariants.h"
#include "core/schedule_trace.h"
#include "../core/scheduler_outcome.h"
#include "disk/disk_array.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "server/striped_server.h"
#include "sim/simulator.h"
#include "tertiary/tertiary_manager.h"
#include "util/rng.h"

namespace stagger {

// Set by --update-golden in main(): record baselines instead of
// comparing against them.
bool g_update_golden = false;

namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

std::string GoldenPath(const std::string& name) {
  return std::string(STAGGER_GOLDEN_DIR) + "/" + name + ".golden";
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden baseline " << path
      << " — run golden_trace_test --update-golden to record it";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "schedule diverged from " << path
      << "; if the change is intentional, re-record with --update-golden";
}

// --- striped scheduler traces -----------------------------------------

struct StripedScenario {
  int32_t num_disks = 10;
  int32_t stride = 1;
  AdmissionPolicy policy = AdmissionPolicy::kContiguous;
  bool coalesce = false;
  FaultPlan faults;
  uint64_t seed = 7;
  int64_t run_intervals = 48;
};

// With `observe` false no read observer is installed, so the scheduler
// sleeps through quiet runs (and the rendered schedule is empty).
// `outcome`, when given, receives every scheduler outcome.
std::string TraceStriped(const StripedScenario& sc, bool observe = true,
                         BareRun* outcome = nullptr) {
  Simulator sim;
  auto disks = DiskArray::Create(sc.num_disks, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());

  ScheduleTracer tracer(sc.num_disks, /*max_intervals=*/sc.run_intervals + 1);
  SchedulerConfig config;
  config.stride = sc.stride;
  config.interval = kInterval;
  config.policy = sc.policy;
  config.coalesce = sc.coalesce;
  if (observe) {
    config.read_observer = [&tracer](int64_t interval, ObjectId object,
                                     int64_t subobject, int32_t fragment,
                                     int32_t disk) {
      tracer.Record(interval, object, subobject, fragment, disk);
    };
  }
  auto sched = IntervalScheduler::Create(&sim, &*disks, config);
  STAGGER_CHECK(sched.ok());

  std::unique_ptr<FaultInjector> injector;
  if (!sc.faults.empty()) {
    auto created = FaultInjector::Create(&sim, &*disks, sc.faults);
    STAGGER_CHECK(created.ok()) << created.status();
    injector = *std::move(created);
  }

  // A fixed-seed randomized load: the seed pins every request, so the
  // recorded schedule is a pure function of the scheduler's decisions.
  Rng rng(sc.seed);
  for (int i = 0; i < 5; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = static_cast<int32_t>(1 + rng.NextBounded(3));
    req.start_disk =
        static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(sc.num_disks)));
    req.num_subobjects = static_cast<int64_t>(8 + rng.NextBounded(16));
    const SimTime at = kInterval * static_cast<int64_t>(rng.NextBounded(8));
    sim.ScheduleAt(at, [&sched, req = std::move(req)]() mutable {
      STAGGER_CHECK((*sched)->Submit(std::move(req)).ok());
    });
  }
  sim.RunUntil(kInterval * sc.run_intervals);
  if (outcome != nullptr) {
    *outcome = BareRun{SchedulerOutcome(**sched, *disks, sim),
                       sim.ticks_skipped()};
  }

  std::ostringstream os;
  os << "# D=" << sc.num_disks << " k=" << sc.stride << " policy="
     << (sc.policy == AdmissionPolicy::kContiguous ? "contiguous"
                                                   : "fragmented")
     << (sc.coalesce ? "+coalesce" : "") << " seed=" << sc.seed << "\n";
  if (!sc.faults.empty()) {
    os << "# fault plan:\n" << sc.faults.ToString();
  }
  tracer.RenderDisks().Print(os);
  const SchedulerMetrics& m = (*sched)->metrics();
  os << "reads=" << tracer.num_events()
     << " collisions=" << tracer.num_collisions() << "\n"
     << "displays: requested=" << m.displays_requested
     << " admitted=" << m.displays_admitted
     << " completed=" << m.displays_completed
     << " cancelled=" << m.displays_cancelled << "\n"
     << "fragmented_admissions=" << m.fragmented_admissions
     << " coalesce_migrations=" << m.coalesce_migrations << "\n"
     << "degraded: reads=" << m.degraded_reads
     << " paused=" << m.streams_paused << " resumed=" << m.streams_resumed
     << " interrupted=" << m.displays_interrupted << "\n"
     << "hiccups=" << m.hiccups << "\n";
  return os.str();
}

TEST(GoldenTraceTest, StripedContiguous) {
  CompareOrUpdate("striped_contiguous", TraceStriped({}));
}

TEST(GoldenTraceTest, StripedFragmentedCoalesce) {
  StripedScenario sc;
  sc.stride = 2;
  sc.policy = AdmissionPolicy::kFragmented;
  sc.coalesce = true;
  CompareOrUpdate("striped_fragmented_coalesce", TraceStriped(sc));
}

// The acceptance scenario: a single-disk failure mid-run under load.
// The trace records the remapped reads and the pause/resume decisions;
// a fixed seed must reproduce the identical failure trace.
TEST(GoldenTraceTest, StripedSingleDiskFailure) {
  StripedScenario sc;
  sc.faults.FailAt(4, kInterval * 12)
      .RecoverAt(4, kInterval * 24)
      .StallAt(8, kInterval * 30, kInterval * 2);
  sc.run_intervals = 64;
  CompareOrUpdate("striped_single_disk_failure", TraceStriped(sc));
}

// The loads above, run without the read observer: the scheduler then
// sleeps through their quiet stretches, and every outcome must equal
// the traced run's.
TEST(GoldenTraceTest, StripedLoadsMatchWithoutObserver) {
  StripedScenario coalesce;
  coalesce.stride = 2;
  coalesce.policy = AdmissionPolicy::kFragmented;
  coalesce.coalesce = true;
  StripedScenario failure;
  failure.faults.FailAt(4, kInterval * 12)
      .RecoverAt(4, kInterval * 24)
      .StallAt(8, kInterval * 30, kInterval * 2);
  failure.run_intervals = 64;
  for (const StripedScenario& sc : {StripedScenario{}, coalesce, failure}) {
    BareRun traced;
    BareRun slept;
    TraceStriped(sc, /*observe=*/true, &traced);
    TraceStriped(sc, /*observe=*/false, &slept);
    EXPECT_EQ(slept.outcome, traced.outcome) << "k=" << sc.stride;
    EXPECT_GT(slept.ticks_skipped, 0u) << "k=" << sc.stride;
    EXPECT_EQ(traced.ticks_skipped, 0u) << "k=" << sc.stride;
  }
}

// --- reconstruct + rebuild acceptance trace ---------------------------

// The explicit placement (parity column included) of every resident
// object, one row per subobject.  Captured before the failure and after
// the rebuild: spare promotion must leave the slot-space placement
// bit-identical.
std::string RenderPlacements(const StripedServer& srv, int32_t num_objects,
                             int64_t num_subobjects) {
  std::ostringstream os;
  for (ObjectId id = 0; id < num_objects; ++id) {
    const StaggeredLayout& layout = srv.object_manager().LayoutOf(id);
    const PlacementTable table =
        MaterializePlacement(layout, num_subobjects, layout.has_parity());
    os << "obj " << id << ":";
    for (const auto& row : table) {
      os << " ";
      for (size_t j = 0; j < row.size(); ++j) {
        os << (j ? "." : "") << row[j];
      }
    }
    os << "\n";
  }
  return os.str();
}

// The ISSUE acceptance scenario: kReconstruct under load with one
// *unrecovered* disk failure on a parity-striped server with a hot
// spare.  While every stripe has slack (low-degree objects on a wide
// array), degraded reads reconstruct in place — zero pauses, zero
// abandoned displays — and the online rebuild drains the lost slot onto
// the spare on idle bandwidth until promotion restores the full array.
TEST(GoldenTraceTest, StripedReconstructRebuild) {
  constexpr int32_t kDisks = 8;
  constexpr int32_t kSpares = 1;
  constexpr int32_t kObjects = 3;
  constexpr int64_t kSubobjects = 24;
  constexpr int64_t kRunIntervals = 200;

  Simulator sim;
  // 30 mbps objects over ~20 mbps effective disks: M = 2, stripes span
  // 3 slots, so reconstruction always finds survivors + parity.
  Catalog catalog =
      Catalog::Uniform(kObjects, kSubobjects, Bandwidth::Mbps(30));
  auto disks =
      DiskArray::Create(kDisks, DiskParameters::Evaluation(), kSpares);
  STAGGER_CHECK(disks.ok());
  TertiaryParameters tp;
  tp.bandwidth = Bandwidth::Mbps(40);
  tp.reposition = SimTime::Zero();
  TertiaryManager tertiary(&sim, TertiaryDevice(tp));

  ScheduleTracer tracer(kDisks, /*max_intervals=*/kRunIntervals + 1);
  StripedConfig config;
  config.stride = 1;
  config.interval = kInterval;
  config.fragment_size = DataSize::MB(1.512);
  config.preload_objects = kObjects;
  config.parity = true;
  config.degraded_policy = DegradedPolicy::kReconstruct;
  config.read_observer = [&tracer](int64_t interval, ObjectId object,
                                   int64_t subobject, int32_t fragment,
                                   int32_t disk) {
    tracer.Record(interval, object, subobject, fragment, disk);
  };
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  ASSERT_TRUE(server.ok()) << server.status();
  StripedServer* srv = server->get();

  const std::string placement_before =
      RenderPlacements(*srv, kObjects, kSubobjects);

  // One permanent failure mid-run; the slot only comes back through the
  // rebuilt spare.
  FaultPlan plan;
  plan.FailAt(3, kInterval * 20 + SimTime::Millis(1));
  auto injector = FaultInjector::Create(&sim, &*disks, plan);
  ASSERT_TRUE(injector.ok()) << injector.status();
  (*injector)->OnDown([srv](DiskId d, SimTime now) { srv->OnDiskDown(d, now); });
  (*injector)->OnUp([srv](DiskId d, SimTime now) { srv->OnDiskUp(d, now); });

  // A fixed-seed display mix over the resident objects, overlapping the
  // failure and the rebuild.
  Rng rng(7);
  int completed = 0;
  int interrupted = 0;
  // Request 0 is pinned to interval 10 so its 24-interval display is
  // guaranteed to straddle the failure and exercise degraded reads.
  for (int i = 0; i < 4; ++i) {
    const auto object = static_cast<ObjectId>(i % kObjects);
    const SimTime at =
        i == 0 ? kInterval * 10
               : kInterval * static_cast<int64_t>(rng.NextBounded(60));
    sim.ScheduleAt(at, [srv, object, &completed, &interrupted] {
      STAGGER_CHECK_OK(srv->RequestDisplay(
          object, /*on_started=*/nullptr, [&completed] { ++completed; },
          [&interrupted] { ++interrupted; }));
    });
  }

  for (int64_t step = 1; step <= kRunIntervals; ++step) {
    sim.RunUntil(kInterval * step);
    ASSERT_TRUE(srv->AuditInvariants().ok())
        << srv->AuditInvariants() << " after interval " << step;
  }

  // Slack existed throughout: reconstruction substituted every degraded
  // read and nothing paused or was abandoned.
  const SchedulerMetrics& m = srv->scheduler_metrics();
  EXPECT_GT(m.degraded_reads, 0);
  EXPECT_EQ(m.streams_paused, 0);
  EXPECT_EQ(m.displays_interrupted, 0);
  EXPECT_EQ(m.hiccups, 0);
  EXPECT_EQ(m.displays_completed, 4);
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(interrupted, 0);

  // The rebuild drained the slot onto the spare and promoted it; the
  // post-rebuild placement is bit-identical to the pre-failure one.
  ASSERT_NE(srv->rebuild(), nullptr);
  const RebuildMetrics& rm = srv->rebuild()->metrics();
  EXPECT_EQ(rm.rebuilds_started, 1);
  EXPECT_EQ(rm.rebuilds_completed, 1);
  EXPECT_EQ(rm.mismatches, 0);
  EXPECT_EQ(srv->rebuild()->active_jobs(), 0u);
  EXPECT_EQ(disks->AvailableCount(), kDisks);
  EXPECT_EQ(placement_before, RenderPlacements(*srv, kObjects, kSubobjects));

  std::ostringstream os;
  os << "# D=" << kDisks << " spares=" << kSpares
     << " policy=reconstruct parity=1 seed=7\n"
     << "# fault plan:\n"
     << plan.ToString();
  tracer.RenderDisks().Print(os);
  os << "reads=" << tracer.num_events()
     << " collisions=" << tracer.num_collisions() << "\n"
     << "displays: requested=" << m.displays_requested
     << " completed=" << m.displays_completed
     << " interrupted=" << m.displays_interrupted << "\n"
     << "degraded: reads=" << m.degraded_reads << " paused=" << m.streams_paused
     << " hiccups=" << m.hiccups << "\n"
     << "rebuild: fragments=" << rm.fragments_rebuilt
     << " source_reads=" << rm.source_reads
     << " stalled=" << rm.stalled_intervals
     << " completed=" << rm.rebuilds_completed << "\n"
     << "placement (pre-failure == post-rebuild):\n"
     << placement_before;
  CompareOrUpdate("striped_reconstruct_rebuild", os.str());
}

// --- latent-error scrub trace -----------------------------------------

// The chaos-suite acceptance scenario in miniature: latent sector
// errors appear mid-run on a parity-striped, scrub-enabled server —
// two inside resident stripes (found by the scrub cursor's verify
// reads and parity-repaired in place) and two beyond every resident
// row (repairable only by the pass-end orphan sweep, which re-arms
// until the busy disks free up).  A display runs alongside; the read
// ladder must never deliver a corrupt frame.  The trace pins the repair
// path taken for each cell, the pass structure, and the background
// draw, so any change to scrub scheduling shows up as a readable diff.
TEST(GoldenTraceTest, StripedScrubRepairsLatentError) {
  constexpr int32_t kDisks = 8;
  constexpr int32_t kObjects = 3;
  constexpr int64_t kSubobjects = 24;
  constexpr int64_t kRunIntervals = 160;

  Simulator sim;
  Catalog catalog =
      Catalog::Uniform(kObjects, kSubobjects, Bandwidth::Mbps(30));
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());
  TertiaryParameters tp;
  tp.bandwidth = Bandwidth::Mbps(40);
  tp.reposition = SimTime::Zero();
  TertiaryManager tertiary(&sim, TertiaryDevice(tp));

  ScheduleTracer tracer(kDisks, /*max_intervals=*/kRunIntervals + 1);
  StripedConfig config;
  config.stride = 1;
  config.interval = kInterval;
  config.fragment_size = DataSize::MB(1.512);
  config.preload_objects = kObjects;
  config.parity = true;
  config.degraded_policy = DegradedPolicy::kReconstruct;
  config.scrub = true;
  config.read_observer = [&tracer](int64_t interval, ObjectId object,
                                   int64_t subobject, int32_t fragment,
                                   int32_t disk) {
    tracer.Record(interval, object, subobject, fragment, disk);
  };
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  ASSERT_TRUE(server.ok()) << server.status();
  StripedServer* srv = server->get();

  // Two cells inside resident stripes — computed from the layouts so
  // they land under real data fragments (object 0 row 5, behind the
  // cursor at injection time so the *next* pass finds it; object 1 row
  // 17, ahead of it so the first pass does) — and two on rows no
  // resident object reaches, repairable only by the orphan sweep.
  const StaggeredLayout& l0 = srv->object_manager().LayoutOf(0);
  const StaggeredLayout& l1 = srv->object_manager().LayoutOf(1);
  const auto cell_a = static_cast<DiskId>(
      (l0.start_disk() + 5 * l0.stride() + 0) % kDisks);
  const auto cell_b = static_cast<DiskId>(
      (l1.start_disk() + 17 * l1.stride() + 1) % kDisks);
  FaultPlan plan;
  plan.LatentAt(cell_a, kInterval * 8 + SimTime::Millis(1), 5, 5)
      .LatentAt(cell_b, kInterval * 8 + SimTime::Millis(1), 17, 17)
      .LatentAt(6, kInterval * 12 + SimTime::Millis(1), 30, 31);
  auto injector = FaultInjector::Create(&sim, &*disks, plan);
  ASSERT_TRUE(injector.ok()) << injector.status();
  (*injector)->OnDown([srv](DiskId d, SimTime now) { srv->OnDiskDown(d, now); });
  (*injector)->OnUp([srv](DiskId d, SimTime now) { srv->OnDiskUp(d, now); });

  // A display overlaps the corruption window: the fault-aware ladder
  // must catch any corrupt cell its reads touch.
  int completed = 0;
  int interrupted = 0;
  sim.ScheduleAt(kInterval * 10, [srv, &completed, &interrupted] {
    STAGGER_CHECK_OK(srv->RequestDisplay(
        /*object=*/0, /*on_started=*/nullptr, [&completed] { ++completed; },
        [&interrupted] { ++interrupted; }));
  });

  for (int64_t step = 1; step <= kRunIntervals; ++step) {
    sim.RunUntil(kInterval * step);
    ASSERT_TRUE(srv->AuditInvariants().ok())
        << srv->AuditInvariants() << " after interval " << step;
  }

  // Every injected cell healed, and nothing corrupt reached the viewer.
  const LatentErrorMetrics& lm = disks->latent_errors().metrics();
  EXPECT_EQ(lm.injected, 4);
  EXPECT_EQ(lm.repaired, 4);
  EXPECT_EQ(disks->latent_errors().ActiveCells(), 0);
  const SchedulerMetrics& m = srv->scheduler_metrics();
  EXPECT_EQ(m.corrupt_frames_delivered, 0);
  EXPECT_EQ(m.hiccups, 0);
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(interrupted, 0);

  ASSERT_NE(srv->scrubber(), nullptr);
  const ScrubMetrics& sm = srv->scrubber()->metrics();
  EXPECT_GE(sm.passes_completed, 1);
  EXPECT_GE(sm.parity_repairs + sm.targeted_repairs, 1);
  EXPECT_EQ(sm.orphans_repaired, 2);
  EXPECT_EQ(sm.mismatches, 0);
  EXPECT_TRUE(srv->scrubber()->AuditState().ok());
  ASSERT_NE(srv->background_budget(), nullptr);
  EXPECT_EQ(srv->background_budget()->metrics().budget_violations, 0);
  EXPECT_TRUE(srv->background_budget()->AuditState().ok());

  std::ostringstream os;
  os << "# D=" << kDisks << " parity=1 scrub=1 policy=reconstruct\n"
     << "# fault plan:\n"
     << plan.ToString();
  tracer.RenderDisks().Print(os);
  os << "reads=" << tracer.num_events()
     << " collisions=" << tracer.num_collisions() << "\n"
     << "displays: requested=" << m.displays_requested
     << " completed=" << m.displays_completed << " hiccups=" << m.hiccups
     << "\n"
     << "latent: injected=" << lm.injected << " detected=" << lm.detected
     << " repaired=" << lm.repaired
     << " corrupt_caught=" << m.corrupt_reads_detected
     << " corrupt_delivered=" << m.corrupt_frames_delivered << "\n"
     << "scrub: stripes=" << sm.stripes_scrubbed
     << " passes=" << sm.passes_completed
     << " verify_reads=" << sm.verify_reads
     << " parity_repairs=" << sm.parity_repairs
     << " targeted=" << sm.targeted_repairs
     << " orphans=" << sm.orphans_repaired
     << " archive_restores=" << sm.archive_restores << "\n"
     << "budget: granted="
     << srv->background_budget()->metrics().reads_granted
     << " idle_capacity=" << srv->background_budget()->metrics().idle_capacity
     << " violations="
     << srv->background_budget()->metrics().budget_violations << "\n";
  CompareOrUpdate("striped_scrub_repairs_latent_error", os.str());
}

// --- flash-crowd batching trace ---------------------------------------

// A scripted burst of same-object requests through a batching
// StripedServer: the first two arrivals gather in the admission window
// and share one stream, a third rides piggyback on the playing stream,
// a fourth arrives past the window and seeds a second stream that a
// fifth joins piggyback — while an unrelated object streams alongside.
// The trace records every request/start/complete with its latency plus
// the per-disk schedule, so any change to a merge decision (who joins
// which stream, and when) shows up as a readable diff.  With `observe`
// false no read observer is installed, so the scheduler sleeps through
// quiet runs; `outcome`, when given, receives every scheduler outcome.
std::string TraceFlashCrowd(bool observe, BareRun* outcome) {
  constexpr int32_t kDisks = 10;
  constexpr int32_t kObjects = 3;
  constexpr int64_t kSubobjects = 24;
  constexpr int64_t kRunIntervals = 120;
  const SimTime window = kInterval * 8;

  Simulator sim;
  Catalog catalog =
      Catalog::Uniform(kObjects, kSubobjects, Bandwidth::Mbps(30));
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());
  TertiaryParameters tp;
  tp.bandwidth = Bandwidth::Mbps(40);
  tp.reposition = SimTime::Zero();
  TertiaryManager tertiary(&sim, TertiaryDevice(tp));

  ScheduleTracer tracer(kDisks, /*max_intervals=*/kRunIntervals + 1);
  StripedConfig config;
  config.stride = 1;
  config.interval = kInterval;
  config.fragment_size = DataSize::MB(1.512);
  config.preload_objects = kObjects;
  config.batch = true;
  config.batch_window = window;
  if (observe) {
    config.read_observer = [&tracer](int64_t interval, ObjectId object,
                                     int64_t subobject, int32_t fragment,
                                     int32_t disk) {
      tracer.Record(interval, object, subobject, fragment, disk);
    };
  }
  auto server =
      StripedServer::Create(&sim, &catalog, &*disks, &tertiary, config);
  STAGGER_CHECK(server.ok()) << server.status();
  StripedServer* srv = server->get();

  std::ostringstream log;
  auto issue = [&log, &sim, srv](int viewer, ObjectId object) {
    log << "t=" << sim.Now().micros() << "us request viewer=" << viewer
        << " obj=" << object << "\n";
    STAGGER_CHECK_OK(srv->RequestDisplay(
        object,
        [&log, &sim, viewer](SimTime latency) {
          log << "t=" << sim.Now().micros() << "us start viewer=" << viewer
              << " latency_us=" << latency.micros() << "\n";
        },
        [&log, &sim, viewer] {
          log << "t=" << sim.Now().micros() << "us complete viewer=" << viewer
              << "\n";
        },
        [&log, &sim, viewer] {
          log << "t=" << sim.Now().micros() << "us interrupt viewer=" << viewer
              << "\n";
        }));
  };
  // The burst: viewers 0/1 gather in the window, 2 piggybacks on the
  // playing stream, 3 misses the window and seeds stream two, 4 joins
  // it piggyback.  Viewer 5 streams object 1 alongside the crowd.
  const struct {
    int64_t at_interval;
    int viewer;
    ObjectId object;
  } arrivals[] = {{0, 0, 0},  {2, 1, 0},  {3, 5, 1},
                  {12, 2, 0}, {20, 3, 0}, {30, 4, 0}};
  for (const auto& a : arrivals) {
    sim.ScheduleAt(kInterval * a.at_interval,
                   [&issue, v = a.viewer, o = a.object] { issue(v, o); });
  }

  for (int64_t step = 1; step <= kRunIntervals; ++step) {
    sim.RunUntil(kInterval * step);
    EXPECT_TRUE(srv->AuditInvariants().ok())
        << srv->AuditInvariants() << " after interval " << step;
  }
  if (outcome != nullptr) {
    *outcome = BareRun{SchedulerOutcome(*srv->scheduler(), *disks, sim) +
                           log.str(),
                       sim.ticks_skipped()};
  }

  const StreamBatcher* batcher = srv->batcher();
  STAGGER_CHECK(batcher != nullptr);
  const BatcherMetrics& bm = batcher->metrics();
  const SchedulerMetrics& m = srv->scheduler_metrics();
  EXPECT_EQ(bm.requests, 6);
  EXPECT_EQ(bm.completed, 6);
  EXPECT_EQ(batcher->open_batches(), 0);
  EXPECT_EQ(m.hiccups, 0);
  EXPECT_LE(bm.start_offset_sec.max(), window.seconds() + 1e-9);

  std::ostringstream os;
  os << "# D=" << kDisks << " k=1 batch_window_us=" << window.micros()
     << " burst on obj 0\n"
     << log.str();
  tracer.RenderDisks().Print(os);
  os << "reads=" << tracer.num_events()
     << " collisions=" << tracer.num_collisions() << "\n"
     << "displays: requested=" << m.displays_requested
     << " completed=" << m.displays_completed << " hiccups=" << m.hiccups
     << "\n"
     << "batching: requests=" << bm.requests
     << " physical_streams=" << bm.physical_streams
     << " window_joins=" << bm.window_joins
     << " piggyback_joins=" << bm.piggyback_joins << "\n"
     << "fanout_max=" << bm.fanout.max()
     << " start_offset_max_us="
     << static_cast<int64_t>(bm.start_offset_sec.max() * 1e6) << "\n";
  return os.str();
}

TEST(GoldenTraceTest, StripedFlashCrowdBatching) {
  CompareOrUpdate("striped_flash_crowd_batching",
                  TraceFlashCrowd(/*observe=*/true, /*outcome=*/nullptr));
}

// The flash crowd again without the read observer: every scheduler
// outcome, and the request/start/complete log, must equal the traced
// run's.
TEST(GoldenTraceTest, FlashCrowdMatchesWithoutObserver) {
  BareRun traced;
  BareRun slept;
  TraceFlashCrowd(/*observe=*/true, &traced);
  TraceFlashCrowd(/*observe=*/false, &slept);
  EXPECT_EQ(slept.outcome, traced.outcome);
  EXPECT_GT(slept.ticks_skipped, 0u);
  EXPECT_EQ(traced.ticks_skipped, 0u);
}

// --- VDR event log ----------------------------------------------------

TEST(GoldenTraceTest, VdrFailoverEventLog) {
  Simulator sim;
  Catalog catalog = Catalog::Uniform(6, 8, Bandwidth::Mbps(100));
  TertiaryParameters tp;
  tp.bandwidth = Bandwidth::Mbps(40);
  tp.reposition = SimTime::Zero();
  TertiaryManager tertiary(&sim, TertiaryDevice(tp));
  VdrConfig config;
  config.num_clusters = 4;
  config.cluster_degree = 2;
  config.interval = kInterval;
  config.fragment_size = DataSize::MB(1.512);
  config.enable_replication = true;
  config.preload_objects = 4;
  auto server = VdrServer::Create(&sim, &catalog, &tertiary, config);
  ASSERT_TRUE(server.ok()) << server.status();
  VdrServer& vdr = **server;

  std::ostringstream log;
  auto event = [&log, &sim](const std::string& what) {
    log << "t=" << sim.Now().micros() << "us " << what << "\n";
  };

  // A fixed-seed request mix over the preloaded objects.
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    const auto object = static_cast<ObjectId>(rng.NextBounded(6));
    const SimTime at = kInterval * static_cast<int64_t>(rng.NextBounded(20));
    sim.ScheduleAt(at, [&vdr, &event, object] {
      event("request obj=" + std::to_string(object));
      STAGGER_CHECK(
          vdr.RequestDisplay(
                 object,
                 [&event, object](SimTime latency) {
                   event("start obj=" + std::to_string(object) +
                         " latency_us=" + std::to_string(latency.micros()));
                 },
                 [&event, object] {
                   event("complete obj=" + std::to_string(object));
                 })
              .ok());
    });
  }

  // Scripted outages: cluster 1 loses a disk (and its media) mid-run;
  // cluster 2 sees a transient, media-preserving stall.
  sim.ScheduleAt(kInterval * 5, [&vdr, &event] {
    event("disk-down 2 media-lost");
    vdr.OnDiskDown(2, /*media_lost=*/true);
  });
  sim.ScheduleAt(kInterval * 14, [&vdr, &event] {
    event("disk-up 2");
    vdr.OnDiskUp(2);
  });
  sim.ScheduleAt(kInterval * 9, [&vdr, &event] {
    event("disk-down 4");
    vdr.OnDiskDown(4, /*media_lost=*/false);
  });
  sim.ScheduleAt(kInterval * 11, [&vdr, &event] {
    event("disk-up 4");
    vdr.OnDiskUp(4);
  });

  sim.RunUntil(kInterval * 120);

  const VdrMetrics& m = vdr.metrics();
  log << "displays_completed=" << m.displays_completed
      << " interrupted=" << m.displays_interrupted
      << " failovers=" << m.failovers << "\n"
      << "replicas_lost=" << m.replicas_lost
      << " replications=" << m.replications
      << " replications_aborted=" << m.replications_aborted
      << " materializations=" << m.materializations
      << " evictions=" << m.evictions << "\n"
      << "resident_objects_end=" << vdr.ResidentObjectCount() << "\n";
  CompareOrUpdate("vdr_failover_event_log", log.str());
}

}  // namespace
}  // namespace stagger

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      stagger::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
