// Property tests over the interval scheduler: for a sweep of array
// sizes, strides, degrees, and admission policies, a randomized (but
// seeded) request load must always satisfy the scheme's invariants —
// hiccup-free delivery, conservation of virtual disks and buffers, and
// completion of every request.  The per-read physical-alignment
// invariant is enforced by a STAGGER_CHECK inside the scheduler, so
// simply driving the load exercises it.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/interval_scheduler.h"
#include "core/invariants.h"
#include "disk/disk_array.h"
#include "display_callbacks.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "scheduler_outcome.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace stagger {
namespace {

struct PropertyCase {
  int32_t num_disks;
  int32_t stride;
  int32_t max_degree;
  AdmissionPolicy policy;
  bool coalesce;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::ostringstream os;
  os << "D" << c.num_disks << "_k" << c.stride << "_M" << c.max_degree << "_"
     << (c.policy == AdmissionPolicy::kContiguous ? "contig" : "frag")
     << (c.coalesce ? "_coal" : "") << "_s" << c.seed;
  return os.str();
}

// The listener contract over a run: no start repeated (after a resume
// or a seek included), no event after a request ended, was cancelled or
// was sought away, every request not in flight ended, and the events
// heard match the scheduler's counts.  `calls` heard every request from
// its Submit.
void ExpectListenerContract(const CallbackListener& calls,
                            const IntervalScheduler& s,
                            const std::string& label) {
  EXPECT_EQ(calls.breach(), "") << label;
  const SchedulerMetrics& m = s.metrics();
  EXPECT_EQ(calls.started(), m.startup_latency_sec.count()) << label;
  EXPECT_EQ(calls.completed(), m.displays_completed) << label;
  EXPECT_EQ(calls.interrupted(), m.displays_interrupted) << label;
  EXPECT_EQ(calls.open(),
            static_cast<int64_t>(s.active_streams() + s.pending_requests() +
                                 s.paused_streams()))
      << label;
}

class SchedulerPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SchedulerPropertyTest, RandomLoadKeepsInvariants) {
  const PropertyCase& c = GetParam();
  Simulator sim;
  auto disks = DiskArray::Create(c.num_disks, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  SchedulerConfig config;
  config.stride = c.stride;
  config.interval = SimTime::Millis(605);
  config.policy = c.policy;
  config.coalesce = c.coalesce;
  CallbackListener calls;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
  ASSERT_TRUE(sched.ok()) << sched.status();

  Rng rng(c.seed);
  constexpr int kRequests = 40;
  // Submit randomized requests at randomized times.
  SimTime at = SimTime::Zero();
  for (int i = 0; i < kRequests; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = static_cast<int32_t>(
        1 + rng.NextBounded(static_cast<uint64_t>(c.max_degree)));
    req.start_disk = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(c.num_disks)));
    req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(40));
    at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(3000000)));
    sim.ScheduleAt(at, [&calls, &sched, req] {
      auto id = calls.Submit(sched->get(), req);
      STAGGER_CHECK(id.ok()) << id.status();
    });
  }

  sim.RunUntil(SimTime::Hours(2));

  const SchedulerMetrics& m = (*sched)->metrics();
  EXPECT_EQ(calls.completed(), kRequests) << "not all displays finished";
  ExpectListenerContract(calls, **sched, "");
  EXPECT_EQ(m.displays_completed, kRequests);
  EXPECT_EQ(m.hiccups, 0) << "continuous display violated";
  EXPECT_EQ((*sched)->active_streams(), 0u);
  EXPECT_EQ((*sched)->pending_requests(), 0u);
  EXPECT_EQ((*sched)->idle_virtual_disks(), c.num_disks)
      << "virtual disks leaked";
  // All buffers returned.
  int64_t buffered = 0;
  (void)buffered;
  EXPECT_EQ(m.buffered_fragments.current(), 0.0);
  // Startup latency was recorded for every display.
  EXPECT_EQ(m.startup_latency_sec.count(), kRequests);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerPropertyTest,
    ::testing::Values(
        // Coprime and non-coprime (D, k), contiguous policy.
        PropertyCase{8, 1, 3, AdmissionPolicy::kContiguous, false, 1},
        PropertyCase{8, 3, 4, AdmissionPolicy::kContiguous, false, 2},
        PropertyCase{9, 3, 3, AdmissionPolicy::kContiguous, false, 3},
        PropertyCase{12, 4, 4, AdmissionPolicy::kContiguous, false, 4},
        PropertyCase{15, 5, 5, AdmissionPolicy::kContiguous, false, 5},
        PropertyCase{16, 7, 5, AdmissionPolicy::kContiguous, false, 6},
        PropertyCase{20, 1, 6, AdmissionPolicy::kContiguous, false, 7},
        // Fragmented admission (Algorithm 1).
        PropertyCase{8, 1, 3, AdmissionPolicy::kFragmented, false, 8},
        PropertyCase{12, 5, 4, AdmissionPolicy::kFragmented, false, 9},
        PropertyCase{16, 3, 5, AdmissionPolicy::kFragmented, false, 10},
        PropertyCase{20, 4, 6, AdmissionPolicy::kFragmented, false, 11},
        // Fragmented + coalescing (Algorithm 2).
        PropertyCase{8, 1, 3, AdmissionPolicy::kFragmented, true, 12},
        PropertyCase{12, 5, 4, AdmissionPolicy::kFragmented, true, 13},
        PropertyCase{16, 3, 5, AdmissionPolicy::kFragmented, true, 14},
        PropertyCase{20, 4, 6, AdmissionPolicy::kFragmented, true, 15},
        PropertyCase{24, 11, 6, AdmissionPolicy::kFragmented, true, 16}),
    CaseName);

// Determinism: identical seeds produce bit-identical schedules.
TEST(SchedulerDeterminismTest, SameSeedSameOutcome) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    auto disks = DiskArray::Create(12, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 1;
    config.interval = SimTime::Millis(605);
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    CallbackListener calls;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
    Rng rng(seed);
    std::vector<double> latencies;
    SimTime at = SimTime::Zero();
    for (int i = 0; i < 25; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = static_cast<int32_t>(1 + rng.NextBounded(4));
      req.start_disk = static_cast<int32_t>(rng.NextBounded(12));
      req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(30));
      at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(2000000)));
      sim.ScheduleAt(at, [&, req] {
        (void)calls.Submit(sched->get(), req, {.on_started = [&](SimTime l) {
                             latencies.push_back(l.seconds());
                           }});
      });
    }
    sim.RunUntil(SimTime::Hours(1));
    latencies.push_back(static_cast<double>((*sched)->metrics().coalesce_migrations));
    latencies.push_back(static_cast<double>((*sched)->metrics().displays_completed));
    return latencies;
  };
  EXPECT_EQ(run(424242), run(424242));
  EXPECT_NE(run(424242), run(424243));
}

#include "scheduler_fingerprints.inc"

// Per-slot busy-interval counts, sampled through SlotBusy from the idle
// hook, which runs after the tick's reservations and right before
// DiskArray::EndInterval clears them.  The pinned fingerprints hold
// per-slot utilizations in the arithmetic they were recorded with: each
// slot's count over the elapsed intervals, and the mean, max and min of
// those ratios.  Installed as the scheduler's read listener, it also
// counts the reads it hears: one per busy slot-interval.
struct SlotBusyTally : ReadListener {
  explicit SlotBusyTally(int32_t num_disks)
      : per_slot(static_cast<size_t>(num_disks), 0) {}

  void OnRead(int64_t, ObjectId, int64_t, int32_t, int32_t) override {
    ++heard;
  }

  void Sample(const DiskArray& disks) {
    for (DiskId slot = 0; slot < disks.num_disks(); ++slot) {
      if (!disks.SlotBusy(slot)) continue;
      ++per_slot[static_cast<size_t>(slot)];
      ++total;
    }
  }

  double Utilization(DiskId slot, int64_t intervals) const {
    return intervals == 0
               ? 0.0
               : static_cast<double>(per_slot[static_cast<size_t>(slot)]) /
                     static_cast<double>(intervals);
  }

  /// The array's running count is exactly the sampled total, and so is
  /// the count of reads heard.
  void ExpectMeanMatches(const DiskArray& disks) const {
    EXPECT_EQ(heard, total);
    const int64_t slot_intervals =
        int64_t{disks.num_disks()} * disks.intervals();
    EXPECT_EQ(disks.MeanUtilization(),
              static_cast<double>(total) / static_cast<double>(slot_intervals));
  }

  std::vector<int64_t> per_slot;
  /// Every busy slot sampled, over the whole run.
  int64_t total = 0;
  int64_t heard = 0;
};

// Runs a load twice without the tally's idle hook: bare, when the
// scheduler sleeps through its quiet runs, and `awake`, with an empty
// idle hook, which keeps every tick executing.  Every outcome must be
// identical, and the bare run must have slept, unless `sleeps` is false.
void ExpectSleepLeavesOutcome(
    const std::function<void(bool awake, BareRun* bare)>& run,
    const std::string& label, bool sleeps = true) {
  BareRun slept;
  BareRun awake;
  run(false, &slept);
  run(true, &awake);
  EXPECT_EQ(slept.outcome, awake.outcome) << label;
  if (sleeps) {
    EXPECT_GT(slept.ticks_skipped, 0u) << label;
  }
  EXPECT_EQ(awake.ticks_skipped, 0u) << label;
}

// Every stream advances through one lane loop: a contiguous stream's
// run of M fragments is one range-reserve, a fragmented stream's lanes
// reserve one disk each.  The load's outcomes must equal the pinned
// fingerprints recorded from the per-fragment reference walk that this
// loop replaced, with the tally listening to every read.
TEST(SchedulerFastPathTest, MatchesPerLanePathExactly) {
  // With `bare`, no tally: the scheduler may sleep unless `awake`, and
  // `bare` gets the outcome.
  auto run = [](bool awake, uint64_t seed, BareRun* bare = nullptr) {
    Simulator sim;
    auto disks = DiskArray::Create(16, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 3;
    config.interval = SimTime::Millis(605);
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    SlotBusyTally tally(disks->num_disks());
    if (bare == nullptr) config.read_listener = &tally;
    CallbackListener calls;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
    if (bare == nullptr) {
      (*sched)->SetIdleBandwidthHook(
          [&tally, array = &*disks](int64_t) { tally.Sample(*array); });
    } else if (awake) {
      (*sched)->SetIdleBandwidthHook([](int64_t) {});
    }
    Rng rng(seed);
    SimTime at = SimTime::Zero();
    for (int i = 0; i < 30; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = static_cast<int32_t>(1 + rng.NextBounded(5));
      req.start_disk = static_cast<int32_t>(rng.NextBounded(16));
      req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(30));
      at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(2000000)));
      sim.ScheduleAt(at, [&calls, &sched, req] {
        (void)calls.Submit(sched->get(), req);
      });
    }
    sim.RunUntil(SimTime::Hours(1));
    ExpectListenerContract(calls, **sched, "seed=" + std::to_string(seed));
    if (bare != nullptr) {
      *bare = BareRun{SchedulerOutcome(**sched, *disks, sim),
                      sim.ticks_skipped()};
      return std::vector<double>{};
    }
    tally.ExpectMeanMatches(*disks);
    double sum = 0.0, hi = 0.0, lo = 1.0;
    for (DiskId slot = 0; slot < disks->num_disks(); ++slot) {
      const double u = tally.Utilization(slot, disks->intervals());
      sum += u;
      hi = std::max(hi, u);
      lo = std::min(lo, u);
    }
    const SchedulerMetrics& m = (*sched)->metrics();
    std::vector<double> fingerprint = {
        static_cast<double>(m.displays_completed),
        static_cast<double>(m.fragmented_admissions),
        static_cast<double>(m.coalesce_migrations),
        static_cast<double>(m.hiccups),
        m.buffered_fragments.current(),
        m.startup_latency_sec.mean(),
        sum / static_cast<double>(disks->num_disks()),
        hi,
        lo,
    };
    return fingerprint;
  };
  for (const HealthyFingerprint& pinned : kHealthyFingerprints) {
    const std::vector<double> plain = run(false, pinned.seed);
    EXPECT_EQ(plain, pinned.values) << "seed=" << pinned.seed;
    ExpectSleepLeavesOutcome(
        [&](bool awake, BareRun* bare) { run(awake, pinned.seed, bare); },
        "seed=" + std::to_string(pinned.seed));
  }
}

// The same check with faults arriving mid-run: failed, stalled and
// degraded disks, a spare promoted into a failed slot, and latent cells
// injected and repaired, under the remap and reconstruct ladders.  A
// lane whose disks stay clean keeps its range-reserve while other disks
// are faulty; a lane touching a fault sends each fragment through the
// degraded ladder.  Every degraded-mode counter and each slot's
// utilization must equal the pinned per-fragment walk, with the tally
// listening to every read.  The pins were recorded from per-drive
// counts that a promotion replaced with the (unwritten) spare's, so the
// tally restarts a slot's count where the spare is promoted into it.
TEST(SchedulerFastPathTest, FaultModeMatchesPerLanePathExactly) {
  constexpr int32_t kDisks = 70;  // two bitmap words, the second partial
  const SimTime interval = SimTime::Millis(605);
  auto run = [&](DegradedPolicy policy, AdmissionPolicy admission,
                 bool awake, uint64_t seed, BareRun* bare = nullptr) {
    Simulator sim;
    auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation(),
                                   /*num_spares=*/2);
    SchedulerConfig config;
    config.stride = 3;
    config.interval = interval;
    config.policy = admission;
    config.coalesce = admission == AdmissionPolicy::kFragmented;
    config.degraded_policy = policy;
    SlotBusyTally tally(kDisks);
    if (bare == nullptr) config.read_listener = &tally;
    CallbackListener calls;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
    DiskArray* array = &*disks;
    if (bare == nullptr) {
      (*sched)->SetIdleBandwidthHook(
          [&tally, array](int64_t) { tally.Sample(*array); });
    } else if (awake) {
      (*sched)->SetIdleBandwidthHook([](int64_t) {});
    }
    Rng rng(seed);
    // Faults land mid-interval, between ticks, as fault events do.
    const auto at_interval = [&](int64_t t) {
      return interval * t + SimTime::Millis(300);
    };
    SimTime at = SimTime::Zero();
    // Enough load to fill the array, so some degraded reads find no
    // slack anywhere and pause.
    for (int i = 0; i < 200; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = static_cast<int32_t>(1 + rng.NextBounded(6));
      req.start_disk = static_cast<int32_t>(rng.NextBounded(kDisks));
      req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(80));
      req.parity = policy == DegradedPolicy::kReconstruct;
      at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(600000)));
      sim.ScheduleAt(at, [&calls, &sched, req] {
        (void)calls.Submit(sched->get(), req);
      });
    }
    // Health faults on ten distinct disks, each undone later (the
    // fourth kind promotes a spare into a failed slot instead).
    std::vector<int32_t> order(kDisks);
    for (int32_t i = 0; i < kDisks; ++i) order[static_cast<size_t>(i)] = i;
    for (int32_t i = kDisks - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
    for (int f = 0; f < 10; ++f) {
      const int32_t disk = order[static_cast<size_t>(f)];
      const int64_t start = 3 + static_cast<int64_t>(rng.NextBounded(80));
      const int64_t end = start + 3 + static_cast<int64_t>(rng.NextBounded(40));
      const int kind = static_cast<int>(rng.NextBounded(4));
      sim.ScheduleAt(at_interval(start), [array, disk, kind] {
        if (kind == 0 || kind == 3) array->FailDisk(disk);
        if (kind == 1) array->StallDisk(disk);
        if (kind == 2) array->DegradeDisk(disk, 50);
      });
      sim.ScheduleAt(at_interval(end), [array, &tally, disk, kind] {
        if (kind == 3) {
          auto spare = array->AcquireSpare();
          if (spare.ok()) {
            array->PromoteSpare(disk, *spare);
            tally.per_slot[static_cast<size_t>(disk)] = 0;
            return;
          }
        }
        array->RecoverDisk(disk);
      });
    }
    // Latent cells on random disks and rows, half of them repaired.
    for (int e = 0; e < 12; ++e) {
      const int32_t disk = static_cast<int32_t>(rng.NextBounded(kDisks));
      const int64_t lo = static_cast<int64_t>(rng.NextBounded(40));
      const int64_t hi = lo + static_cast<int64_t>(rng.NextBounded(6));
      const int64_t when = static_cast<int64_t>(rng.NextBounded(100));
      const int64_t repair_at =
          e % 2 == 0 ? when + 1 + static_cast<int64_t>(rng.NextBounded(30))
                     : -1;
      sim.ScheduleAt(at_interval(when), [array, disk, lo, hi] {
        array->latent_errors().Inject(disk, lo, hi);
      });
      if (repair_at < 0) continue;
      sim.ScheduleAt(at_interval(repair_at), [array, disk, lo, hi] {
        LatentErrorMap& latent = array->latent_errors();
        for (int64_t row = lo; row <= hi; ++row) {
          if (latent.IsCorrupt(disk, row)) latent.Repair(disk, row);
        }
      });
    }
    sim.RunUntil(SimTime::Hours(1));
    ExpectListenerContract(calls, **sched, "seed=" + std::to_string(seed));
    if (bare != nullptr) {
      *bare = BareRun{SchedulerOutcome(**sched, *array, sim),
                      sim.ticks_skipped()};
      return std::vector<double>{};
    }
    tally.ExpectMeanMatches(*array);
    const SchedulerMetrics& m = (*sched)->metrics();
    std::vector<double> fingerprint = {
        static_cast<double>(m.displays_completed),
        static_cast<double>(m.fragmented_admissions),
        static_cast<double>(m.coalesce_migrations),
        static_cast<double>(m.hiccups),
        static_cast<double>(m.degraded_reads),
        static_cast<double>(m.reconstructed_reads),
        static_cast<double>(m.corrupt_reads_detected),
        static_cast<double>(m.streams_paused),
        static_cast<double>(m.streams_resumed),
        static_cast<double>(m.displays_interrupted),
        m.buffered_fragments.current(),
        m.startup_latency_sec.mean(),
        static_cast<double>(array->degraded_disk_intervals()),
    };
    for (int32_t slot = 0; slot < kDisks; ++slot) {
      fingerprint.push_back(tally.Utilization(slot, array->intervals()));
    }
    return fingerprint;
  };
  const FaultFingerprint* pinned = kFaultFingerprints;
  for (const DegradedPolicy policy :
       {DegradedPolicy::kRemapOrPause, DegradedPolicy::kReconstruct}) {
    for (const AdmissionPolicy admission :
         {AdmissionPolicy::kContiguous, AdmissionPolicy::kFragmented}) {
      // Indices of degraded_reads .. streams_paused in the fingerprint.
      double remapped = 0, reconstructed = 0, corrupt = 0, paused = 0;
      for (uint64_t seed : {3ull, 11ull, 2024ull}) {
        ASSERT_TRUE(pinned->policy == policy &&
                    pinned->admission == admission && pinned->seed == seed);
        const std::vector<double> fast = run(policy, admission, false, seed);
        EXPECT_EQ(fast, pinned->values)
            << "policy=" << static_cast<int>(policy)
            << " admission=" << static_cast<int>(admission)
            << " seed=" << seed;
        // Half the latent cells stay unrepaired, so the array never
        // turns healthy again and the scheduler stays awake.
        ExpectSleepLeavesOutcome(
            [&](bool awake, BareRun* bare) {
              run(policy, admission, awake, seed, bare);
            },
            "policy=" + std::to_string(static_cast<int>(policy)) +
                " admission=" + std::to_string(static_cast<int>(admission)) +
                " seed=" + std::to_string(seed),
            /*sleeps=*/false);
        ++pinned;
        remapped += fast[4];
        reconstructed += fast[5];
        corrupt += fast[6];
        paused += fast[7];
      }
      // The load must actually reach the degraded ladder.
      EXPECT_GT(remapped, 0);
      EXPECT_GT(corrupt, 0);
      EXPECT_GT(paused, 0);
      if (policy == DegradedPolicy::kReconstruct) {
        EXPECT_GT(reconstructed, 0);
      }
    }
  }
}

// A scripted load on a small faulty array, for the fault-mode tick's
// split: one masked word pass reserves the steady reads on healthy
// slots, and only the steady reads on a down slot or a corrupt cell go
// down the degraded ladder, in (stream id, fragment) order: the tick
// visits their streams, in id order with the others it visits, and
// their lane walks take those reads.
struct ScriptedFaultLoad {
  int32_t num_disks = 8;
  SchedulerConfig config;
  /// Requests submitted at time zero, in order.
  std::vector<DisplayRequest> requests;
  /// Fault events, injected into the array between ticks.
  FaultPlan faults;
  int64_t intervals = 120;
};

// Runs `load` and returns its fingerprint: each request's completion
// interval (-1 when it did not complete), the ladder's counters, the
// audits that failed and each slot's busy intervals, sampled from the
// idle hook.  With `bare` there is no idle hook, so the scheduler may
// sleep unless `awake` installs an empty one, and `bare` gets the
// outcome instead.
std::vector<int64_t> RunScriptedFaultLoad(const ScriptedFaultLoad& load,
                                          bool awake,
                                          BareRun* bare = nullptr) {
  Simulator sim;
  auto disks = DiskArray::Create(load.num_disks, DiskParameters::Evaluation());
  SchedulerConfig config = load.config;
  config.interval = SimTime::Millis(605);
  SlotBusyTally tally(load.num_disks);
  if (bare == nullptr) config.read_listener = &tally;
  CallbackListener calls;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
  IntervalScheduler* s = sched->get();
  int64_t audit_failures = 0;
  if (bare == nullptr) {
    s->SetIdleBandwidthHook([&, array = &*disks](int64_t t) {
      tally.Sample(*array);
      const Status st = InvariantAuditor::AuditScheduler(*s);
      if (!st.ok()) {
        ADD_FAILURE() << "interval " << t << ": " << st;
        ++audit_failures;
      }
    });
  } else if (awake) {
    s->SetIdleBandwidthHook([](int64_t) {});
  }
  auto injector = FaultInjector::Create(&sim, &*disks, load.faults);
  EXPECT_TRUE(injector.ok()) << injector.status();
  std::vector<int64_t> fingerprint(load.requests.size(), -1);
  for (size_t i = 0; i < load.requests.size(); ++i) {
    auto id = calls.Submit(
        s, load.requests[i],
        {.on_completed = [&fingerprint, s, i] {
           fingerprint[i] = s->current_interval();
         }});
    EXPECT_TRUE(id.ok()) << id.status();
  }
  sim.RunUntil(config.interval * load.intervals);
  ExpectListenerContract(calls, *s, "scripted fault load");
  if (bare != nullptr) {
    *bare = BareRun{SchedulerOutcome(*s, *disks, sim), sim.ticks_skipped()};
    return {};
  }
  tally.ExpectMeanMatches(*disks);
  const SchedulerMetrics& m = s->metrics();
  fingerprint.insert(
      fingerprint.end(),
      {m.degraded_reads, m.reconstructed_reads, m.corrupt_reads_detected,
       m.streams_paused, m.streams_resumed, m.displays_interrupted,
       m.hiccups, audit_failures});
  fingerprint.insert(fingerprint.end(), tally.per_slot.begin(),
                     tally.per_slot.end());
  return fingerprint;
}

// The load's fingerprint must equal the pin, recorded from the
// per-fragment walk that sent every fragment of such a stream down the
// ladder; and the bare run must agree with one kept awake, and have
// slept unless `sleeps` is false.
void ExpectScriptedFaultLoad(const ScriptedFaultLoad& load,
                             const std::vector<int64_t>& pinned,
                             bool sleeps = true) {
  EXPECT_EQ(RunScriptedFaultLoad(load, false), pinned);
  ExpectSleepLeavesOutcome(
      [&](bool awake, BareRun* bare) {
        RunScriptedFaultLoad(load, awake, bare);
      },
      "scripted fault load", sleeps);
}

// Indices of three ladder counters in the fingerprint, counted after the
// requests' completion intervals.
constexpr size_t kCorruptField = 2;
constexpr size_t kPausedField = 3;
constexpr size_t kResumedField = 4;

// A display admitted over non-adjacent disks (a degree-1 display holds
// the disk its second fragment wants) drains under Algorithm 2 into a
// steady stream of three one-disk lanes.  Disk 4 then fails under its
// middle lane: the lane before it has read, and the masked pass's
// reservation of the lane after it must go back when the stream pauses.
TEST(SchedulerFaultTickTest, DrainedMultiLaneStreamPausesOnMiddleLane) {
  ScriptedFaultLoad load;
  load.num_disks = 8;
  load.config.stride = 1;
  load.config.policy = AdmissionPolicy::kFragmented;
  load.config.coalesce = true;
  load.config.degraded_policy = DegradedPolicy::kPause;
  load.requests = {{.object = 1, .start_disk = 1, .degree = 1,
                    .num_subobjects = 6},
                   {.object = 2, .start_disk = 0, .degree = 3,
                    .num_subobjects = 40}};
  const SimTime interval = SimTime::Millis(605);
  const SimTime mid = SimTime::Millis(300);
  load.faults.FailAt(4, interval * 20 + mid).RecoverAt(4, interval * 30 + mid);
  const std::vector<int64_t> pinned = {5, 51, 0, 0, 0, 4, 4, 0, 0, 0, 15, 16,
                                       16, 20, 16, 19, 16, 15};
  ExpectScriptedFaultLoad(load, pinned);
  // Paused at interval 21; the remainders resumed while disk 4 is still
  // down pause again on their first read.
  EXPECT_EQ(pinned[load.requests.size() + kPausedField], 4);
  EXPECT_EQ(pinned[load.requests.size() + kResumedField], 4);
}

// A degree-1 display whose aligned disk is held starts one interval
// later on another virtual disk, steady, with its first read on the
// calendar.  That read lands on a corrupt cell, so the stream's event
// visit sends it down the ladder.  Disk 6 carries corrupt cells on rows
// no display reads: the other displays' reads of its clean cells are
// taken by the masked pass, or on a display's last row by its lane walk.
TEST(SchedulerFaultTickTest, FirstReadEventOnAFaultySlot) {
  ScriptedFaultLoad load;
  load.num_disks = 8;
  load.config.stride = 1;
  load.config.policy = AdmissionPolicy::kFragmented;
  load.config.degraded_policy = DegradedPolicy::kRemapOrPause;
  load.requests = {{.object = 1, .start_disk = 3, .degree = 1,
                    .num_subobjects = 20},
                   {.object = 2, .start_disk = 3, .degree = 1,
                    .num_subobjects = 10},
                   {.object = 3, .start_disk = 5, .degree = 3,
                    .num_subobjects = 12}};
  const SimTime mid = SimTime::Millis(300);
  load.faults.LatentAt(3, mid, 0, 0).LatentAt(6, mid, 30, 31);
  const std::vector<int64_t> pinned = {19, 10, 11, 1, 0, 1, 0, 0, 0, 0, 0, 9, 9,
                                       7, 7, 8, 8, 9, 9};
  // The cells stay, so the array never turns healthy.
  ExpectScriptedFaultLoad(load, pinned, /*sleeps=*/false);
  EXPECT_EQ(pinned[load.requests.size() + kCorruptField], 1);
}

// A lane wrapping from slot D - 1 to slot 0, both failed, with one more
// failed slot under a display of a larger id and two idle disks: the
// wrapping display, first in id order, takes both substitutes, and the
// other pauses.  In slot order the other display would take one.
TEST(SchedulerFaultTickTest, WrappingLaneOverLastAndFirstSlots) {
  ScriptedFaultLoad load;
  load.num_disks = 10;
  load.config.stride = 1;
  load.config.degraded_policy = DegradedPolicy::kRemapOrPause;
  load.requests = {{.object = 1, .start_disk = 8, .degree = 4,
                    .num_subobjects = 40},
                   {.object = 2, .start_disk = 3, .degree = 2,
                    .num_subobjects = 40},
                   {.object = 3, .start_disk = 5, .degree = 2,
                    .num_subobjects = 40}};
  const SimTime interval = SimTime::Millis(605);
  const SimTime mid = SimTime::Millis(300);
  for (const DiskId disk : {9, 0, 3}) {
    load.faults.FailAt(disk, interval * 9 + mid)
        .RecoverAt(disk, interval * 11 + mid);
  }
  const std::vector<int64_t> pinned = {39, 70, 39, 4, 0, 0, 1, 1, 0, 0, 0, 30,
                                       32, 33, 32, 33, 33, 32, 33, 32, 30};
  ExpectScriptedFaultLoad(load, pinned);
  EXPECT_GE(pinned[load.requests.size() + kPausedField], 1);
}

// Steady streams — contiguous ones, and Algorithm-1 admissions that
// reserved no buffer (degree-1 requests whose aligned disk is taken
// start later on another) — are visited only on their calendar events,
// and their cursors are a closed form in between.  Seeks and cancels
// between ticks read those closed-form cursors and leave stale calendar
// entries behind.  A run that sleeps through its quiet stretches must
// agree on every outcome with one kept awake, the tally must hear every
// read, and the audit (cursors, the reading set, alignment of the lanes
// the tick did not visit) must hold after every interval.
TEST(SchedulerFastPathTest, SeeksAndCancelsMatchAcrossDueSets) {
  constexpr int32_t kDisks = 24;
  const SimTime interval = SimTime::Millis(605);
  auto run = [&](bool awake, uint64_t seed, BareRun* bare = nullptr) {
    Simulator sim;
    auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 5;
    config.interval = interval;
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    SlotBusyTally tally(kDisks);
    if (bare == nullptr) config.read_listener = &tally;
    CallbackListener calls;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
    IntervalScheduler* s = sched->get();
    int64_t audit_failures = 0;
    if (bare == nullptr) {
      s->SetIdleBandwidthHook([s, &audit_failures, &tally,
                               array = &*disks](int64_t t) {
        tally.Sample(*array);
        const Status st = InvariantAuditor::AuditScheduler(*s);
        if (!st.ok()) {
          ADD_FAILURE() << "interval " << t << ": " << st;
          ++audit_failures;
        }
      });
    } else if (awake) {
      s->SetIdleBandwidthHook([](int64_t) {});
    }
    // Outcome log: (request index, interval) of every start and finish.
    std::vector<double> log;
    std::vector<RequestId> handles;
    Rng rng(seed);
    SimTime at = SimTime::Zero();
    for (int i = 0; i < 120; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = static_cast<int32_t>(1 + rng.NextBounded(4));
      req.start_disk = static_cast<int32_t>(rng.NextBounded(kDisks));
      req.num_subobjects = static_cast<int64_t>(1 + rng.NextBounded(40));
      CallbackListener::Callbacks logged{
          .on_started =
              [&log, s, i](SimTime latency) {
                log.insert(log.end(), {1.0 * i, 1.0 * s->current_interval(),
                                       latency.seconds()});
              },
          .on_completed =
              [&log, s, i] {
                log.insert(log.end(), {-1.0 * i, 1.0 * s->current_interval()});
              }};
      at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(900000)));
      sim.ScheduleAt(at, [s, &calls, &handles, req, logged] {
        auto id = calls.Submit(s, req, logged);
        ASSERT_TRUE(id.ok());
        handles.push_back(*id);
      });
    }
    // Seeks and cancels land mid-interval, between ticks, on a random
    // handle issued so far (finished and replaced ones included).
    int64_t seeks = 0;
    int64_t cancels = 0;
    for (int e = 0; e < 60; ++e) {
      const int64_t t = 2 + static_cast<int64_t>(rng.NextBounded(150));
      const uint64_t pick = rng.NextBounded(1u << 20);
      const bool seek = rng.NextBool(0.5);
      const auto row = static_cast<int64_t>(rng.NextBounded(kDisks));
      const auto length = static_cast<int64_t>(1 + rng.NextBounded(30));
      sim.ScheduleAt(interval * t + SimTime::Millis(300), [&, pick, seek,
                                                           row, length] {
        if (handles.empty()) return;
        const RequestId id = handles[pick % handles.size()];
        if (seek) {
          auto moved = calls.Seek(s, id, row, length);
          if (!moved.ok()) return;
          handles.push_back(*moved);
          ++seeks;
        } else if (calls.Cancel(s, id).ok()) {
          ++cancels;
        }
      });
    }
    sim.RunUntil(interval * 400);
    ExpectListenerContract(calls, *s, "seed=" + std::to_string(seed));
    if (bare != nullptr) {
      std::ostringstream os;
      os << std::hexfloat;
      for (const double v : log) os << v << " ";
      *bare = BareRun{SchedulerOutcome(*s, *disks, sim) + os.str(),
                      sim.ticks_skipped()};
      return std::vector<double>{};
    }
    const SchedulerMetrics& m = s->metrics();
    std::vector<double> fingerprint = {
        static_cast<double>(m.displays_completed),
        static_cast<double>(m.displays_cancelled),
        static_cast<double>(m.fragmented_admissions),
        static_cast<double>(m.coalesce_migrations),
        static_cast<double>(m.hiccups),
        m.buffered_fragments.current(),
        static_cast<double>(m.startup_latency_sec.count()),
        m.startup_latency_sec.mean(),
        static_cast<double>(seeks),
        static_cast<double>(cancels),
        static_cast<double>(audit_failures),
        static_cast<double>(s->active_streams()),
    };
    tally.ExpectMeanMatches(*disks);
    for (int32_t slot = 0; slot < kDisks; ++slot) {
      fingerprint.push_back(tally.Utilization(slot, disks->intervals()));
    }
    fingerprint.insert(fingerprint.end(), log.begin(), log.end());
    return fingerprint;
  };
  for (uint64_t seed : {5ull, 77ull, 2026ull}) {
    const std::vector<double> plain = run(false, seed);
    EXPECT_EQ(plain[10], 0) << "audit failures, seed=" << seed;
    // The load must reach both kinds of interruption.
    EXPECT_GT(plain[8], 0) << "no seek hit an active stream, seed=" << seed;
    EXPECT_GT(plain[9], 0) << "no cancel hit a live request, seed=" << seed;
    ExpectSleepLeavesOutcome(
        [&](bool awake, BareRun* bare) { run(awake, seed, bare); },
        "seed=" + std::to_string(seed));
  }
}

// A stream paused by a failed disk resumes under the same id, while the
// last-read event of its first admission is still queued.  That event is
// stale: the resumed stream must run to the end of its own remainder and
// complete exactly once, there.
TEST(SchedulerFastPathTest, StaleCalendarEntryDoesNotFinishResumedStream) {
  const SimTime interval = SimTime::Millis(605);
  constexpr int64_t kRows = 20;
  Simulator sim;
  auto disks = DiskArray::Create(8, DiskParameters::Evaluation());
  SchedulerConfig config;
  config.stride = 1;
  config.interval = interval;
  config.degraded_policy = DegradedPolicy::kPause;
  CallbackListener calls;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
  IntervalScheduler* s = sched->get();
  std::vector<int64_t> completed_at;
  int64_t paused_at = -1;
  int64_t resumed_at = -1;
  std::vector<int64_t> active_at;
  s->SetIdleBandwidthHook([&](int64_t t) {
    const Status st = InvariantAuditor::AuditScheduler(*s);
    EXPECT_TRUE(st.ok()) << "interval " << t << ": " << st;
    if (paused_at < 0 && s->metrics().streams_paused == 1) paused_at = t;
    if (resumed_at < 0 && s->metrics().streams_resumed == 1) resumed_at = t;
    active_at.push_back(static_cast<int64_t>(s->active_streams()));
  });
  DisplayRequest req;
  req.degree = 2;
  req.start_disk = 0;
  req.num_subobjects = kRows;
  ASSERT_TRUE(calls
                  .Submit(s, req,
                          {.on_completed =
                               [&] {
                                 completed_at.push_back(s->current_interval());
                               }})
                  .ok());
  // Row t is read from disks t and t + 1 at interval t: failing disk 6
  // during interval 5 pauses the stream at interval 6 with six rows
  // delivered; it resumes once the disk is back.
  DiskArray* array = &*disks;
  sim.ScheduleAt(interval * 5 + SimTime::Millis(300),
                 [array] { array->FailDisk(6); });
  sim.ScheduleAt(interval * 8 + SimTime::Millis(300),
                 [array] { array->RecoverDisk(6); });
  sim.RunUntil(interval * 60);

  ASSERT_EQ(paused_at, 6);
  ASSERT_GT(resumed_at, paused_at);
  const int64_t remainder = kRows - paused_at;
  // The first admission's last read would have fallen on kRows - 1; the
  // resumed stream must still be active then.
  ASSERT_LT(kRows - 1, resumed_at + remainder - 1);
  EXPECT_EQ(active_at[static_cast<size_t>(kRows - 1)], 1);
  ASSERT_EQ(completed_at.size(), 1u);
  EXPECT_EQ(completed_at[0], resumed_at + remainder - 1);
  EXPECT_EQ(s->metrics().displays_completed, 1);
  EXPECT_EQ(s->metrics().hiccups, 0);
}

// A queue-heavy Algorithm 1-2 load: popular titles start on a few hot
// disks, so many queued requests share a (start disk, degree, parity)
// and fail admission together, and most displays are admitted
// fragmented and run Algorithm 2 every interval until drained.  The
// outcomes must equal the pins, the audit must hold after every
// interval, and the tally must hear every read.  One case adds disk faults under the
// parity-reconstruction ladder.
TEST(SchedulerFastPathTest, QueueHeavyCoalescingLoadMatchesPins) {
  constexpr int32_t kDisks = 32;
  constexpr int32_t kHot[] = {0, 5, 17, 26};
  const SimTime interval = SimTime::Millis(605);
  auto run = [&](const QueueHeavyFingerprint& c, bool awake,
                 BareRun* bare = nullptr) {
    Simulator sim;
    auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = c.stride;
    config.interval = interval;
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    config.degraded_policy =
        c.faults ? DegradedPolicy::kReconstruct : DegradedPolicy::kNone;
    SlotBusyTally tally(kDisks);
    if (bare == nullptr) config.read_listener = &tally;
    CallbackListener calls;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
    IntervalScheduler* s = sched->get();
    std::unique_ptr<FaultInjector> injector;
    if (c.faults) {
      // A failure and a stall on disks under the hot stripes, a slow
      // disk, and corrupt cells, all inside the busy stretch of the run.
      FaultPlan plan;
      plan.FailAt(6, interval * 40 + SimTime::Millis(300))
          .RecoverAt(6, interval * 90 + SimTime::Millis(300))
          .StallAt(18, interval * 120 + SimTime::Millis(300), interval * 25)
          .DegradeAt(27, interval * 60, interval * 30, 50)
          .LatentAt(2, interval * 30, 3, 9)
          .LatentAt(20, interval * 150, 0, 40);
      auto created = FaultInjector::Create(&sim, &*disks, plan);
      STAGGER_CHECK(created.ok()) << created.status();
      injector = *std::move(created);
    }
    int64_t audit_failures = 0;
    if (bare == nullptr) {
      s->SetIdleBandwidthHook([s, &audit_failures, &tally,
                               array = &*disks](int64_t t) {
        tally.Sample(*array);
        const Status st = InvariantAuditor::AuditScheduler(*s);
        if (!st.ok()) {
          ADD_FAILURE() << "interval " << t << ": " << st;
          ++audit_failures;
        }
      });
    } else if (awake) {
      s->SetIdleBandwidthHook([](int64_t) {});
    }
    Rng rng(c.seed);
    // Checksum of every display's completion interval, weighted by its
    // request index.
    double finish_sum = 0.0;
    int64_t completed = 0;
    SimTime at = SimTime::Zero();
    for (int i = 0; i < 240; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = static_cast<int32_t>(1 + rng.NextBounded(4));
      req.start_disk = kHot[rng.NextBounded(4)];
      req.num_subobjects = static_cast<int64_t>(10 + rng.NextBounded(40));
      req.parity = c.parity;
      CallbackListener::Callbacks tally_finish{
          .on_completed = [&finish_sum, &completed, s, i] {
            finish_sum +=
                (i + 1.0) * static_cast<double>(s->current_interval());
            ++completed;
          }};
      at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(1200000)));
      sim.ScheduleAt(at, [s, &calls, req, tally_finish] {
        STAGGER_CHECK(calls.Submit(s, req, tally_finish).ok());
      });
    }
    sim.RunUntil(interval * 1500);
    ExpectListenerContract(calls, *s,
                           "stride=" + std::to_string(c.stride) +
                               " faults=" + std::to_string(c.faults));
    if (bare != nullptr) {
      std::ostringstream os;
      os << std::hexfloat << "finish_sum=" << finish_sum;
      *bare = BareRun{SchedulerOutcome(*s, *disks, sim) + os.str(),
                      sim.ticks_skipped()};
      return std::vector<double>{};
    }
    tally.ExpectMeanMatches(*disks);
    const SchedulerMetrics& m = s->metrics();
    std::vector<double> fingerprint = {
        static_cast<double>(completed),
        static_cast<double>(m.displays_completed),
        static_cast<double>(m.fragmented_admissions),
        static_cast<double>(m.coalesce_migrations),
        static_cast<double>(m.hiccups),
        static_cast<double>(m.degraded_reads),
        static_cast<double>(m.reconstructed_reads),
        static_cast<double>(m.corrupt_reads_detected),
        static_cast<double>(m.streams_paused),
        static_cast<double>(m.streams_resumed),
        static_cast<double>(m.peak_buffered_fragments),
        m.startup_latency_sec.mean(),
        m.queue_length.Average(sim.Now()),
        finish_sum,
        static_cast<double>(audit_failures),
    };
    for (const int64_t busy : tally.per_slot) {
      fingerprint.push_back(static_cast<double>(busy));
    }
    return fingerprint;
  };
  for (const QueueHeavyFingerprint& pinned : kQueueHeavyFingerprints) {
    const std::vector<double> plain = run(pinned, false);
    EXPECT_EQ(plain, pinned.values)
        << "stride=" << pinned.stride << " parity=" << pinned.parity
        << " faults=" << pinned.faults;
    // Every display completes, with no hiccup and no audit failure.
    EXPECT_EQ(plain[0], 240);
    EXPECT_EQ(plain[4], 0);
    EXPECT_EQ(plain[14], 0);
    // The queue stays long and Algorithm 2 migrates lanes.
    EXPECT_GT(plain[12], 20);
    EXPECT_GT(plain[3], 0);
    if (pinned.faults) {
      EXPECT_GT(plain[6], 0) << "no read reconstructed from parity";
    }
    ExpectSleepLeavesOutcome(
        [&](bool awake, BareRun* bare) { run(pinned, awake, bare); },
        "stride=" + std::to_string(pinned.stride) +
            " parity=" + std::to_string(pinned.parity) +
            " faults=" + std::to_string(pinned.faults));
  }
}

// A fragmented stream whose unreleased lanes all read every interval,
// with output running and its last coalescing search a miss that no
// virtual-disk free has made stale, is steady: each lane's cursor is a
// closed form of its fixed offset, and the tick visits it only at its
// calendar event (its earliest lane's last read) and on ticks whose
// frees make its miss stale — frees by a lower-id stream earlier in the
// same tick included.  A small hot array under Algorithm 2 runs every
// transition: streams turning steady, migrating after a mid-tick free
// (a gap, then steady again), releasing their first lane, cancelled,
// sought and paused by a failed disk under kReconstruct.  The audit
// must hold after every interval, the tally must hear every read, and
// the outcomes must equal the pins, recorded from the walk of every
// stream.
TEST(SchedulerFastPathTest, LaneSteadyTransitionsMatchPins) {
  constexpr int32_t kDisks = 12;
  constexpr int32_t kHot[] = {0, 5};
  const SimTime interval = SimTime::Millis(605);
  struct Case {
    int32_t stride;
    bool parity;
    uint64_t seed;
    std::vector<int64_t> pinned;
  };
  const Case cases[] = {
      {1, false, 11, {62, 26, 76, 80, 0, 70, 0, 9, 8, 30, 109534, 24, 26, 0,
                      288, 286, 275, 241, 232, 281, 296, 299, 278, 274, 265,
                      249}},
      {1, true, 12, {60, 30, 59, 69, 0, 60, 19, 6, 6, 33, 144214, 21, 30, 0,
                     250, 262, 265, 245, 230, 276, 288, 289, 269, 255, 243,
                     220}},
      {3, false, 17, {62, 28, 53, 60, 0, 77, 0, 6, 6, 7, 92434, 19, 28, 0,
                      352, 245, 230, 316, 221, 255, 344, 240, 224, 318, 218,
                      220}},
      {3, true, 18, {62, 28, 49, 41, 0, 66, 13, 6, 6, 11, 79871, 20, 28, 0,
                     340, 210, 227, 308, 193, 262, 334, 207, 230, 308, 193,
                     230}},
  };
  // Returns the pinned fingerprint and, in `outcome`, every outcome as
  // text.
  auto run = [&](const Case& c) {
    Simulator sim;
    auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = c.stride;
    config.interval = interval;
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    config.degraded_policy = DegradedPolicy::kReconstruct;
    SlotBusyTally tally(kDisks);
    config.read_listener = &tally;
    CallbackListener calls;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
    IntervalScheduler* s = sched->get();
    FaultPlan plan;
    // Two adjacent disks down at once leave a parity stripe two
    // fragments short, and the hot array has little slack to remap to.
    for (const auto& [disk, from, to] :
         {std::tuple{3, 70, 95}, {4, 72, 95}, {8, 160, 175}, {9, 161, 170},
          {1, 250, 262}, {2, 251, 262}, {6, 120, 126}, {7, 121, 126},
          {10, 200, 204}, {11, 201, 204}, {0, 300, 306}, {5, 340, 344}}) {
      plan.FailAt(disk, interval * from + SimTime::Millis(300))
          .RecoverAt(disk, interval * to + SimTime::Millis(300));
    }
    auto injector = FaultInjector::Create(&sim, &*disks, plan);
    STAGGER_CHECK(injector.ok()) << injector.status();
    int64_t audit_failures = 0;
    s->SetIdleBandwidthHook([s, &audit_failures, &tally,
                             array = &*disks](int64_t t) {
      tally.Sample(*array);
      const Status st = InvariantAuditor::AuditScheduler(*s);
      if (!st.ok()) {
        ADD_FAILURE() << "interval " << t << ": " << st;
        ++audit_failures;
      }
    });
    // Each request's live handle, and whether its display is under way
    // (started, not yet completed).
    std::vector<RequestId> handle(90, kNoStream);
    std::vector<bool> displaying(90, false);
    // (request index + 1) * interval, summed over every start and
    // (negated) every completion.
    int64_t log_sum = 0;
    Rng rng(c.seed);
    SimTime at = SimTime::Zero();
    for (int i = 0; i < 90; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = static_cast<int32_t>(1 + rng.NextBounded(3));
      req.start_disk = kHot[rng.NextBounded(2)];
      req.num_subobjects = static_cast<int64_t>(6 + rng.NextBounded(30));
      req.parity = c.parity;
      CallbackListener::Callbacks logged{
          .on_started =
              [&log_sum, &displaying, s, i](SimTime) {
                log_sum += (i + 1) * s->current_interval();
                displaying[static_cast<size_t>(i)] = true;
              },
          .on_completed =
              [&log_sum, &displaying, s, i] {
                log_sum -= (i + 1) * s->current_interval();
                displaying[static_cast<size_t>(i)] = false;
              }};
      at += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(1500000)));
      sim.ScheduleAt(at, [s, &calls, &handle, req, logged, i] {
        auto id = calls.Submit(s, req, logged);
        STAGGER_CHECK(id.ok()) << id.status();
        handle[static_cast<size_t>(i)] = *id;
      });
    }
    // Seeks and cancels between ticks, on a display under way (a paused
    // one included), most of them steady.
    int64_t seeks = 0;
    int64_t cancels = 0;
    for (int e = 0; e < 60; ++e) {
      const int64_t t = 5 + static_cast<int64_t>(rng.NextBounded(300));
      const uint64_t pick = rng.NextBounded(1u << 20);
      const bool seek = rng.NextBool(0.5);
      const auto row = static_cast<int64_t>(rng.NextBounded(kDisks));
      const auto length = static_cast<int64_t>(4 + rng.NextBounded(24));
      sim.ScheduleAt(interval * t + SimTime::Millis(300), [&, pick, seek,
                                                           row, length] {
        std::vector<size_t> live;
        for (size_t r = 0; r < handle.size(); ++r) {
          if (displaying[r] && handle[r] != kNoStream) live.push_back(r);
        }
        if (live.empty()) return;
        const size_t r = live[pick % live.size()];
        if (seek) {
          auto moved = calls.Seek(s, handle[r], row, length);
          if (!moved.ok()) return;
          handle[r] = *moved;
          ++seeks;
        } else if (calls.Cancel(s, handle[r]).ok()) {
          handle[r] = kNoStream;
          ++cancels;
        }
      });
    }
    sim.RunUntil(interval * 400);
    ExpectListenerContract(calls, *s,
                           "stride=" + std::to_string(c.stride) +
                               " parity=" + std::to_string(c.parity));
    tally.ExpectMeanMatches(*disks);
    const SchedulerMetrics& m = s->metrics();
    std::vector<int64_t> fingerprint = {
        m.displays_completed,  m.displays_cancelled,
        m.fragmented_admissions, m.coalesce_migrations,
        m.hiccups,             m.degraded_reads,
        m.reconstructed_reads, m.streams_paused,
        m.streams_resumed,     m.peak_buffered_fragments,
        log_sum,               seeks,
        cancels,               audit_failures,
    };
    fingerprint.insert(fingerprint.end(), tally.per_slot.begin(),
                       tally.per_slot.end());
    return fingerprint;
  };
  for (const Case& c : cases) {
    const std::string label = "stride=" + std::to_string(c.stride) +
                              " parity=" + std::to_string(c.parity);
    const std::vector<int64_t> plain = run(c);
    std::ostringstream printed;
    for (const int64_t v : plain) printed << v << ", ";
    EXPECT_EQ(plain, c.pinned) << label << ": {" << printed.str() << "}";
    // No hiccup, no audit failure; the load migrates lanes, reconstructs
    // from parity when it carries parity, and pauses.
    EXPECT_EQ(plain[4], 0) << label;
    EXPECT_EQ(plain[13], 0) << label;
    EXPECT_GT(plain[3], 0) << label;
    EXPECT_GT(plain[7], 0) << label;
    EXPECT_GT(plain[11], 0) << label;
    EXPECT_GT(plain[12], 0) << label;
    if (c.parity) {
      EXPECT_GT(plain[6], 0) << label;
    }
  }
}

// Faults from outside events land while the scheduler sleeps: two long
// steady streams leave nothing due between their first and last reads,
// a disk fails and recovers mid-interval, and corrupt cells appear under
// a stream.  Each health change must wake the scheduler at the next
// interval, so the remapped, paused and checksum-caught reads, and every
// other outcome, equal those of a run an empty idle hook keeps awake.
TEST(SchedulerSleepTest, FaultsMidSleepWakeTheScheduler) {
  constexpr int32_t kDisks = 8;
  const SimTime interval = SimTime::Millis(605);
  for (const DegradedPolicy policy :
       {DegradedPolicy::kPause, DegradedPolicy::kRemapOrPause,
        DegradedPolicy::kReconstruct}) {
    const auto run = [&](bool awake, BareRun* bare) {
      Simulator sim;
      auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation(),
                                     /*num_spares=*/1);
      SchedulerConfig config;
      config.stride = 1;
      config.interval = interval;
      config.degraded_policy = policy;
      CallbackListener calls;
      auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
      IntervalScheduler* s = sched->get();
      if (awake) s->SetIdleBandwidthHook([](int64_t) {});
      std::ostringstream log;
      const auto submit = [&](int32_t start, int32_t degree, int64_t rows) {
        DisplayRequest req;
        req.object = start;
        req.start_disk = start;
        req.degree = degree;
        req.num_subobjects = rows;
        CallbackListener::Callbacks logged{.on_completed = [&log, s, start] {
          log << "done " << start << " at " << s->current_interval() << "\n";
        }};
        STAGGER_CHECK(calls.Submit(s, req, std::move(logged)).ok());
      };
      submit(0, 2, 400);
      submit(4, 3, 300);
      DiskArray* array = &*disks;
      const auto mid = [&](int64_t t) {
        return interval * t + SimTime::Millis(300);
      };
      sim.ScheduleAt(mid(50), [array] { array->FailDisk(1); });
      sim.ScheduleAt(mid(80), [array] { array->RecoverDisk(1); });
      sim.ScheduleAt(mid(150),
                     [array] { array->latent_errors().Inject(5, 100, 160); });
      sim.ScheduleAt(mid(200), [array] { array->FailDisk(3); });
      sim.ScheduleAt(mid(210), [array] {
        auto spare = array->AcquireSpare();
        STAGGER_CHECK(spare.ok());
        array->PromoteSpare(3, *spare);
      });
      sim.ScheduleAt(mid(260), [array] { array->StallDisk(6); });
      sim.ScheduleAt(mid(263), [array] { array->RecoverDisk(6); });
      sim.RunUntil(interval * 600);
      *bare = BareRun{SchedulerOutcome(*s, *disks, sim) + log.str(),
                      sim.ticks_skipped()};
      const SchedulerMetrics& m = s->metrics();
      if (policy == DegradedPolicy::kPause) {
        // kPause has no way to serve a corrupt fragment: both displays
        // reach disk 5's unrepaired cells and wait there when the run
        // ends.
        EXPECT_EQ(m.displays_completed, 0);
        EXPECT_EQ(s->paused_streams(), 2u);
      } else {
        EXPECT_EQ(m.displays_completed, 2);
      }
      EXPECT_EQ(m.hiccups, 0);
      // The faults reached the streams.
      EXPECT_GT(m.streams_paused + m.degraded_reads, 0);
      EXPECT_GT(m.corrupt_reads_detected, 0);
    };
    ExpectSleepLeavesOutcome(run,
                             "policy=" + std::to_string(static_cast<int>(policy)));
  }
}

}  // namespace
}  // namespace stagger
