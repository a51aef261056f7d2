// E9: engine microbenchmarks — event-queue throughput, placement math,
// a full scheduler tick and the rebuild pick — using google-benchmark.

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "core/interval_scheduler.h"
#include "core/virtual_disk.h"
#include "disk/disk_array.h"
#include "rebuild/rebuild_manager.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "storage/layout.h"
#include "storage/object_manager.h"
#include "util/rng.h"

namespace stagger {
namespace {

// Runs `then` after every completed display: the closed loop of the
// churn rows, whose displays resubmit as they finish.
class CompletionLoop : public DisplayListener {
 public:
  std::function<void()> then;
  void OnCompleted(RequestId /*id*/) override { then(); }
};

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(1);
  for (auto _ : state) {
    EventQueue q;
    for (int64_t i = 0; i < batch; ++i) {
      q.Schedule(SimTime::Micros(static_cast<int64_t>(rng.NextBounded(1 << 20))),
                 [] {});
    }
    while (!q.empty()) {
      auto fired = q.PopNext();
      benchmark::DoNotOptimize(fired.time);
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_LayoutDiskFor(benchmark::State& state) {
  auto layout = StaggeredLayout::Create(1000, 17, 5, 5);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout->DiskFor(i, static_cast<int32_t>(i % 5)));
    ++i;
  }
}
BENCHMARK(BM_LayoutDiskFor);

// One 3000-row object of degree 5 made resident and evicted again: the
// storage charge derived from the layout and its release.  Arguments D
// and k: k = M = 5 at D = 100 000 (bench/e2e's scale_d100k, where the
// object touches 15 000 of the disks), and k = 1 at D = 1000, where
// five windows overlap on every disk.
void BM_MakeResidentEvict(benchmark::State& state) {
  const int32_t num_disks = static_cast<int32_t>(state.range(0));
  const int32_t stride = static_cast<int32_t>(state.range(1));
  const Catalog catalog = Catalog::Uniform(1, 3000, Bandwidth::Mbps(100));
  auto disks = DiskArray::Create(num_disks, DiskParameters::Evaluation());
  ObjectManager manager(&catalog, &*disks, /*fragment_cylinders=*/1);
  auto layout = StaggeredLayout::Create(num_disks, 10, stride, 5);
  for (auto _ : state) {
    Status made = manager.TryMakeResident(0, *layout);
    Status evicted = manager.Evict(0);
    if (!made.ok() || !evicted.ok()) {
      state.SkipWithError("object did not fit");
      break;
    }
  }
  benchmark::DoNotOptimize(disks->FreeCylinders());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("objects; D=" + std::to_string(num_disks) +
                 " k=" + std::to_string(stride));
}
BENCHMARK(BM_MakeResidentEvict)->Args({100000, 5})->Args({1000, 1});

void BM_AlignmentDelay(benchmark::State& state) {
  auto frame = VirtualDiskFrame::Create(1000, 5);
  int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        frame->AlignmentDelay(static_cast<int32_t>(t % 1000), 123, t));
    ++t;
  }
}
BENCHMARK(BM_AlignmentDelay);

// Endless steady streams: the steady path reserves them all in one
// rotated word pass per tick.  The admission tick runs before the timed
// region.  With nothing queued and nothing due, the scheduler would
// sleep through all 256 timed intervals, so unless `quiet` an empty
// idle hook keeps every tick executed, and the row times the executed
// steady tick.  With `quiet` it times the closed-form catch-up of the
// 256 ticks slept through.
void RunSteadyTicks(benchmark::State& state, bool quiet) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  uint64_t skipped = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(1000, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 5;
    config.interval = SimTime::Millis(605);
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
    if (!quiet) (*sched)->SetIdleBandwidthHook([](int64_t) {});
    for (int32_t i = 0; i < num_streams; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = 5;
      req.start_disk = (i * 5) % 1000;
      req.num_subobjects = 1 << 20;  // effectively endless
      (void)(*sched)->Submit(std::move(req));
    }
    sim.RunUntil(SimTime::Zero());  // the admission tick
    state.ResumeTiming();
    sim.RunUntil(SimTime::Millis(605) * 256);  // 256 intervals
    skipped = sim.ticks_skipped();
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; streams=" + std::to_string(num_streams) +
                 " ticks_skipped=" + std::to_string(skipped));
}

void BM_SchedulerIntervalTick(benchmark::State& state) {
  RunSteadyTicks(state, /*quiet=*/false);
}
BENCHMARK(BM_SchedulerIntervalTick)->Arg(50)->Arg(200);

void BM_SchedulerIntervalTickQuiet(benchmark::State& state) {
  RunSteadyTicks(state, /*quiet=*/true);
}
BENCHMARK(BM_SchedulerIntervalTickQuiet)->Arg(200);

// The same load on a faulty array: four failed slots and three disks
// carrying latent cells over every row the run reads, under
// kReconstruct with parity.  Lanes over clean disks keep their
// range-reserve; the rest send each fragment down the degraded ladder
// (parity reads, substitutes, pauses and retries) every interval.
void BM_SchedulerIntervalTickDegraded(benchmark::State& state) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(1000, DiskParameters::Evaluation());
    for (const DiskId slot : {3, 250, 501, 777}) disks->FailDisk(slot);
    for (const DiskId slot : {120, 640, 901}) {
      disks->latent_errors().Inject(slot, 0, 511);
    }
    SchedulerConfig config;
    config.stride = 5;
    config.interval = SimTime::Millis(605);
    config.degraded_policy = DegradedPolicy::kReconstruct;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
    for (int32_t i = 0; i < num_streams; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = 5;
      req.start_disk = (i * 5) % 1000;
      req.num_subobjects = 1 << 20;  // effectively endless
      req.parity = true;
      (void)(*sched)->Submit(std::move(req));
    }
    state.ResumeTiming();
    sim.RunUntil(SimTime::Millis(605) * 256);  // 256 intervals
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; streams=" + std::to_string(num_streams) +
                 " failed=4 latent_disks=3");
}
BENCHMARK(BM_SchedulerIntervalTickDegraded)->Arg(200);

// A faulty array in open_chaos's shape, where most fault-mode reads are
// clean: 25 disks carry three corrupt rows each, spread over the rows
// the run reads, so most latent checks find a clean cell; two drives run
// degraded at half bandwidth, so their slots are down every other
// interval and the reads due there take parity or a substitute.  The
// admission tick runs before the timed region.
void BM_SchedulerIntervalTickSparseFaults(benchmark::State& state) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(1000, DiskParameters::Evaluation());
    for (int32_t i = 0; i < 25; ++i) {
      const DiskId slot = 17 + i * 39;
      for (int64_t row = 20 + i * 7; row < 256; row += 80) {
        disks->latent_errors().Inject(slot, row, row);
      }
    }
    for (const DiskId slot : {333, 812}) disks->DegradeDisk(slot, 50);
    SchedulerConfig config;
    config.stride = 5;
    config.interval = SimTime::Millis(605);
    config.degraded_policy = DegradedPolicy::kReconstruct;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
    for (int32_t i = 0; i < num_streams; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = 5;
      req.start_disk = (i * 5) % 1000;
      req.num_subobjects = 1 << 20;  // effectively endless
      req.parity = true;
      (void)(*sched)->Submit(std::move(req));
    }
    sim.RunUntil(SimTime::Zero());  // the admission tick
    state.ResumeTiming();
    sim.RunUntil(SimTime::Millis(605) * 256);  // 256 intervals
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; streams=" + std::to_string(num_streams) +
                 " latent_disks=25 degraded=2");
}
BENCHMARK(BM_SchedulerIntervalTickSparseFaults)->Arg(200);

// Same tick loop under Algorithm-1 fragmented admission: non-adjacent
// start disks force fragmented streams, exercising the buffered-lane
// bookkeeping in the advance loop.
void BM_SchedulerIntervalTickFragmented(benchmark::State& state) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(1000, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 5;
    config.interval = SimTime::Millis(605);
    config.policy = AdmissionPolicy::kFragmented;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
    for (int32_t i = 0; i < num_streams; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = 5;
      // Overlapping starts: contiguous windows are mostly taken, so
      // admission scatters lanes across non-adjacent virtual disks.
      req.start_disk = (i * 3) % 1000;
      req.num_subobjects = 1 << 20;
      (void)(*sched)->Submit(std::move(req));
    }
    state.ResumeTiming();
    sim.RunUntil(SimTime::Millis(605) * 256);
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; streams=" + std::to_string(num_streams));
}
BENCHMARK(BM_SchedulerIntervalTickFragmented)->Arg(200);

// Algorithm 2 under load, in the coalescing workload's shape: D = 1000,
// k = 1, fragmented admission with coalescing.  Short displays resubmit
// on completion, keeping ~90% of the virtual disks owned after warm-up,
// so every interval runs fragmented admissions over a full queue and
// Algorithm 2 over the fragmented streams.  Most coalescing searches
// find no free disk in their window, and a stream's failed search is
// not repeated until some virtual disk is freed.  With `hot_starts` =
// 0 the resubmits walk scattered start disks, so queued requests rarely
// share a start disk; otherwise they cycle over that many hot start
// disks, as requests for a few popular titles do, and most queued
// requests repeat a (start disk, degree) that already failed this tick.
void RunCoalesceTicks(benchmark::State& state, int32_t hot_starts) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  const SimTime interval = SimTime::Millis(605);
  int64_t idle_vdisks = 0;
  size_t queued = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(1000, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 1;
    config.interval = interval;
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    CompletionLoop loop;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &loop);
    IntervalScheduler* s = sched->get();
    int32_t next_start = 0;
    std::function<void()> resubmit = [&] {
      DisplayRequest req;
      req.object = next_start;
      req.degree = 5;
      if (hot_starts > 0) {
        req.start_disk = next_start * (1000 / hot_starts);
        next_start = (next_start + 1) % hot_starts;
      } else {
        req.start_disk = next_start;
        next_start = (next_start + 337) % 1000;
      }
      req.num_subobjects = 200;
      (void)s->Submit(std::move(req));
    };
    loop.then = resubmit;
    for (int32_t i = 0; i < num_streams; ++i) resubmit();
    sim.RunUntil(interval * 64);  // warm-up: fill, fragment, churn
    state.ResumeTiming();
    sim.RunUntil(interval * (64 + 256));
    idle_vdisks = s->idle_virtual_disks();
    queued = s->pending_requests();
  }
  state.SetItemsProcessed(state.iterations() * 256);
  std::string label = "intervals; D=1000 k=1 streams=" +
                      std::to_string(num_streams) +
                      " idle_vdisks_end=" + std::to_string(idle_vdisks);
  if (hot_starts > 0) {
    label += " hot_starts=" + std::to_string(hot_starts) +
             " queued_end=" + std::to_string(queued);
  }
  state.SetLabel(label);
}

void BM_SchedulerIntervalTickCoalesce(benchmark::State& state) {
  RunCoalesceTicks(state, /*hot_starts=*/0);
}
BENCHMARK(BM_SchedulerIntervalTickCoalesce)->Arg(200);

void BM_SchedulerIntervalTickCoalesceHot(benchmark::State& state) {
  RunCoalesceTicks(state, /*hot_starts=*/20);
}
BENCHMARK(BM_SchedulerIntervalTickCoalesceHot)->Arg(280);

// The scale_d100k shape: D = 100 000 with 2000 contiguous displays of
// 64-127 subobjects that resubmit on completion at a shifted start
// disk.  After the warm-up about 20 displays finish and 20 start in
// every timed interval, so each tick pays both the O(D/64) word passes
// (rotated reservation, busy fold) and the calendar's events.
void BM_SchedulerIntervalTickD100k(benchmark::State& state) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  constexpr int32_t kDisks = 100000;
  const SimTime interval = SimTime::Millis(605);
  int64_t completed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 5;
    config.interval = interval;
    CompletionLoop loop;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &loop);
    IntervalScheduler* s = sched->get();
    int32_t next = 0;
    std::function<void()> resubmit = [&] {
      DisplayRequest req;
      req.object = next;
      req.degree = 5;
      req.start_disk = static_cast<int32_t>((int64_t{next} * 50) % kDisks);
      req.num_subobjects = 64 + next % 64;
      ++next;
      (void)s->Submit(std::move(req));
    };
    loop.then = resubmit;
    for (int32_t i = 0; i < num_streams; ++i) resubmit();
    sim.RunUntil(interval * 128);  // warm-up: every display started
    const int64_t completed_before = s->metrics().displays_completed;
    state.ResumeTiming();
    sim.RunUntil(interval * (128 + 256));
    completed = s->metrics().displays_completed - completed_before;
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; D=100000 streams=" + std::to_string(num_streams) +
                 " completed_per_run=" + std::to_string(completed));
}
BENCHMARK(BM_SchedulerIntervalTickD100k)->Arg(2000);

// Admission/eviction churn: short displays that resubmit on completion,
// so every measured interval mixes stream retirement (slot free-list
// recycling, window release) with fresh admissions (window probing).
void BM_SchedulerAdmissionChurn(benchmark::State& state) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(1000, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 5;
    config.interval = SimTime::Millis(605);
    CompletionLoop loop;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &loop);
    IntervalScheduler* s = sched->get();
    int32_t next_start = 0;
    // Self-perpetuating short displays: each completion immediately
    // resubmits at a shifted start disk.
    std::function<void()> resubmit = [&] {
      DisplayRequest req;
      req.object = next_start;
      req.degree = 5;
      req.start_disk = next_start;
      next_start = (next_start + 7) % 1000;
      req.num_subobjects = 16;  // ~16-interval displays: constant churn
      (void)s->Submit(std::move(req));
    };
    loop.then = resubmit;
    for (int32_t i = 0; i < num_streams; ++i) resubmit();
    state.ResumeTiming();
    sim.RunUntil(SimTime::Millis(605) * 256);
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; streams=" + std::to_string(num_streams));
}
BENCHMARK(BM_SchedulerAdmissionChurn)->Arg(100);

// The rebuild pick under display traffic: D = 1000, one failed slot
// whose 2000 lost fragments of degree-5 parity stripes fall into the
// slot's six source windows (fragment offsets 0-4 and parity), listed
// one window after another.  Each interval, display reservations pin
// ten disks of a window sliding over the slot's neighborhood, so about
// half the intervals block every pending stripe and most of the rest
// free only a window late in the list.  The job rebuilds at most one
// fragment per interval and never drains within a run.
void BM_RebuildIdleInterval(benchmark::State& state) {
  constexpr int32_t kDisks = 1000;
  constexpr DiskId kSlot = 500;
  constexpr int32_t kDegree = 5;
  constexpr int32_t kLost = 2000;
  std::vector<LostFragment> lost;
  for (int32_t i = 0; i < kLost; ++i) {
    const int32_t fragment = i * (kDegree + 1) / kLost;  // kDegree: parity
    lost.push_back(LostFragment{
        i / 16, i, fragment,
        Stripe::At(kDisks, kSlot - fragment, kDegree, /*has_parity=*/true)});
  }
  int64_t rebuilt = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation(),
                                   /*num_spares=*/1);
    disks->FailDisk(kSlot);
    auto rebuild = RebuildManager::Create(&*disks, RebuildConfig{});
    (void)(*rebuild)->StartRebuild(kSlot, lost);
    state.ResumeTiming();
    for (int64_t t = 0; t < 256; ++t) {
      const int32_t pin = kSlot - 10 + static_cast<int32_t>(t % 20);
      for (int32_t d = pin; d < pin + 10; ++d) {
        if (d != kSlot) disks->ReserveSlot(d);
      }
      BackgroundGrant grant(&*disks, /*max_reads=*/0);
      (*rebuild)->RunIdle(t, &grant);
      disks->EndInterval();
    }
    rebuilt = (*rebuild)->metrics().fragments_rebuilt;
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; D=1000 lost=2000 rebuilt=" +
                 std::to_string(rebuilt));
}
BENCHMARK(BM_RebuildIdleInterval);

}  // namespace
}  // namespace stagger

// BENCHMARK_MAIN() plus two context keys, so a report says whether
// invariant audits or assertions were compiled in.  Either puts checks
// inside the measured loops; tools/check_bench_regression.py rejects
// such a report.  Reports come from google-benchmark's own flags:
//   bench_micro --benchmark_out=FILE --benchmark_out_format=json
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
#ifdef STAGGER_AUDIT
  benchmark::AddCustomContext("stagger_audit", "on");
#else
  benchmark::AddCustomContext("stagger_audit", "off");
#endif
#ifdef NDEBUG
  benchmark::AddCustomContext("stagger_assertions", "off");
#else
  benchmark::AddCustomContext("stagger_assertions", "on");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
