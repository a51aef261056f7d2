// E9: engine microbenchmarks — event-queue throughput, placement math,
// and a full scheduler tick — using google-benchmark.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>

#include "bench_report.h"
#include "core/interval_scheduler.h"
#include "core/virtual_disk.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "storage/layout.h"
#include "util/rng.h"

namespace stagger {
namespace {

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

void BM_SchedulerIntervalTick(benchmark::State& state) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(1000, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 5;
    config.interval = SimTime::Millis(605);
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
    for (int32_t i = 0; i < num_streams; ++i) {
      DisplayRequest req;
      req.object = i;
      req.degree = 5;
      req.start_disk = (i * 5) % 1000;
      req.num_subobjects = 1 << 20;  // effectively endless
      req.on_completed = [] {};
      (void)(*sched)->Submit(std::move(req));
    }
    state.ResumeTiming();
    sim.RunUntil(SimTime::Millis(605) * 256);  // 256 intervals
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; streams=" + std::to_string(num_streams));
}
BENCHMARK(BM_SchedulerIntervalTick)->Arg(50)->Arg(200);

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
      req.on_completed = [] {};
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
// on completion at scattered start disks, keeping ~90% of the virtual
// disks owned after warm-up, so every interval runs fragmented
// admissions over a full queue and a coalescing search per fragmented
// stream, most of which find no free disk in their window.
void BM_SchedulerIntervalTickCoalesce(benchmark::State& state) {
  const int32_t num_streams = static_cast<int32_t>(state.range(0));
  const SimTime interval = SimTime::Millis(605);
  int64_t idle_vdisks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    auto disks = DiskArray::Create(1000, DiskParameters::Evaluation());
    SchedulerConfig config;
    config.stride = 1;
    config.interval = interval;
    config.policy = AdmissionPolicy::kFragmented;
    config.coalesce = true;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
    IntervalScheduler* s = sched->get();
    int32_t next_start = 0;
    std::function<void()> resubmit = [&] {
      DisplayRequest req;
      req.object = next_start;
      req.degree = 5;
      req.start_disk = next_start;
      next_start = (next_start + 337) % 1000;
      req.num_subobjects = 200;
      req.on_completed = resubmit;
      (void)s->Submit(std::move(req));
    };
    for (int32_t i = 0; i < num_streams; ++i) resubmit();
    sim.RunUntil(interval * 64);  // warm-up: fill, fragment, churn
    state.ResumeTiming();
    sim.RunUntil(interval * (64 + 256));
    idle_vdisks = s->idle_virtual_disks();
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; D=1000 k=1 streams=" +
                 std::to_string(num_streams) +
                 " idle_vdisks_end=" + std::to_string(idle_vdisks));
}
BENCHMARK(BM_SchedulerIntervalTickCoalesce)->Arg(200);

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
    auto sched = IntervalScheduler::Create(&sim, &*disks, config);
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
      req.on_completed = resubmit;
      (void)s->Submit(std::move(req));
    };
    for (int32_t i = 0; i < num_streams; ++i) resubmit();
    state.ResumeTiming();
    sim.RunUntil(SimTime::Millis(605) * 256);
  }
  state.SetItemsProcessed(state.iterations() * 256);
  state.SetLabel("intervals; streams=" + std::to_string(num_streams));
}
BENCHMARK(BM_SchedulerAdmissionChurn)->Arg(100);

}  // namespace
}  // namespace stagger

// Custom main instead of BENCHMARK_MAIN(): every run also writes
// BENCH_scheduler.json (override with STAGGER_BENCH_REPORT) for CI's
// regression gate.  The baselines below are the measured pre-change
// costs on the reference box — kept so the report states the speedup of
// the O(active-work) tick rework next to each fresh number.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

#ifdef STAGGER_AUDIT
  // Audit hooks run inside the tick loop; such a build measures the
  // wrong thing.  The JSON report marks it and the CI regression gate
  // (tools/check_bench_regression.py) rejects it outright.
  std::fprintf(stderr,
               "bench_micro: WARNING: STAGGER_AUDIT compiled in; timings "
               "include per-interval invariant audits\n");
#endif

  stagger::BenchReport report("scheduler");
  report.SetBaseline("BM_SchedulerIntervalTick/50", 8250.0);
  report.SetBaseline("BM_SchedulerIntervalTick/200", 22437.0);
  report.SetBaseline("BM_LayoutDiskFor", 3.90);
  // The std::priority_queue kernel with id-set cancellation that the
  // earlier calendar queue replaced, same workload.
  report.SetBaseline("BM_EventQueueScheduleAndPop/1024", 196.4);
  report.SetBaseline("BM_EventQueueScheduleAndPop/4096", 257.2);
  report.SetBaseline("BM_EventQueueScheduleAndPop/16384", 279.3);
  // Bit-probe Algorithm 1-2 searches with the coalescing scan walking
  // all P candidates (before orbit order), same workload.
  report.SetBaseline("BM_SchedulerIntervalTickCoalesce/200", 114517.0);

  stagger::CapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!report.entries().empty() && !report.WriteJson(report.DefaultPath())) {
    return 1;
  }
  return 0;
}
