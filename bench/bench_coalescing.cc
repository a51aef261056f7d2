// E6 — Section 3.2.1 / Figure 6: time fragmentation, buffered
// (Algorithm 1) admission, and dynamic coalescing (Algorithm 2).
//
// Scenario: a 16-disk farm (stride 1) where eight degree-1 displays
// occupy every second virtual disk, so the free disks are never
// adjacent.  A degree-4 request then arrives:
//   * contiguous-only admission must wait for the blockers to finish;
//   * Algorithm 1 admits it immediately over non-adjacent disks,
//     buffering early reads;
//   * Algorithm 2 additionally migrates lanes onto later-aligned disks
//     as the blockers drain, shrinking buffer residency.

#include <cstdio>
#include <iostream>

#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "util/table.h"

namespace stagger {
namespace {

struct RunResult {
  double x_latency_sec = -1.0;
  int64_t peak_buffer = 0;
  double avg_buffer = 0.0;
  int64_t migrations = 0;
  int64_t hiccups = 0;
  int64_t completed = 0;
};

RunResult RunScenario(AdmissionPolicy policy, bool coalesce) {
  constexpr int32_t kDisks = 16;
  constexpr int64_t kBlockerLen = 20;
  constexpr int64_t kXLen = 60;

  Simulator sim;
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());
  SchedulerConfig config;
  config.stride = 1;
  config.interval = SimTime::Millis(605);
  config.policy = policy;
  config.coalesce = coalesce;
  config.fragmented_lookahead = 16;
  RunResult result;
  // X's startup latency, and every completion.
  struct Outcome : DisplayListener {
    explicit Outcome(RunResult* r) : result(r) {}
    RunResult* result;
    RequestId x = 0;
    void OnStarted(RequestId id, SimTime latency) override {
      if (id == x) result->x_latency_sec = latency.seconds();
    }
    void OnCompleted(RequestId /*id*/) override { ++result->completed; }
  } outcome(&result);
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &outcome);
  STAGGER_CHECK(sched.ok());

  // Eight degree-1 blockers on even disks.
  for (int32_t b = 0; b < 8; ++b) {
    DisplayRequest req;
    req.object = b;
    req.degree = 1;
    req.start_disk = 2 * b;
    req.num_subobjects = kBlockerLen;
    STAGGER_CHECK((*sched)->Submit(std::move(req)).ok());
  }
  // The degree-4 request X.
  DisplayRequest x;
  x.object = 100;
  x.degree = 4;
  x.start_disk = 0;
  x.num_subobjects = kXLen;
  auto x_id = (*sched)->Submit(x);
  STAGGER_CHECK(x_id.ok());
  outcome.x = *x_id;

  sim.RunUntil(SimTime::Minutes(5));
  const SchedulerMetrics& m = (*sched)->metrics();
  result.peak_buffer = m.peak_buffered_fragments;
  result.avg_buffer = m.buffered_fragments.Average(sim.Now());
  result.migrations = m.coalesce_migrations;
  result.hiccups = m.hiccups;
  return result;
}

int Run() {
  std::printf("Figure 6 scenario: degree-4 request over time-fragmented "
              "disks (D=16, k=1,\n8 degree-1 blockers on even disks for 20 "
              "intervals; X reads 60 subobjects)\n\n");

  struct Row {
    const char* label;
    AdmissionPolicy policy;
    bool coalesce;
  };
  const Row rows[] = {
      {"contiguous-only", AdmissionPolicy::kContiguous, false},
      {"algorithm-1 (fragmented)", AdmissionPolicy::kFragmented, false},
      {"algorithms-1+2 (coalescing)", AdmissionPolicy::kFragmented, true},
  };

  Table table({"policy", "X_startup_s", "peak_buffer_frag", "avg_buffer_frag",
               "migrations", "hiccups"});
  RunResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = RunScenario(rows[i].policy, rows[i].coalesce);
    table.AddRowValues(rows[i].label, results[i].x_latency_sec,
                       results[i].peak_buffer, results[i].avg_buffer,
                       results[i].migrations, results[i].hiccups);
  }
  table.Print(std::cout);

  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "OK  " : "FAIL", what);
    if (!ok) ++failures;
  };
  expect(results[0].x_latency_sec > results[1].x_latency_sec,
         "Algorithm 1 starts X earlier than contiguous-only admission");
  expect(results[1].peak_buffer > 0,
         "fragmented delivery consumes buffers");
  expect(results[0].peak_buffer == 0,
         "contiguous delivery uses no buffers");
  expect(results[2].migrations > 0, "Algorithm 2 performs migrations");
  expect(results[2].avg_buffer < results[1].avg_buffer,
         "coalescing reduces average buffer residency");
  for (const RunResult& r : results) {
    expect(r.hiccups == 0, "hiccup-free delivery");
    expect(r.completed == 9, "all displays completed");
  }
  std::printf("\n%s\n", failures == 0 ? "All coalescing checks passed."
                                      : "Some coalescing checks FAILED.");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stagger

int main() { return stagger::Run(); }
