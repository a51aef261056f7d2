// E5 — Section 3.2.2 stride analysis.
//
// Part 1: the collision example — requests for X and Y whose first
// fragments share a disk.  With k = 1 the second request starts within
// a few intervals; with k = D it waits for X's entire display.
//
// Part 2: the D = 100 spread example — a 100-cylinder object (25
// subobjects, M = 4) touches 28 disks with k = 1 and all 100 with
// k = M.
//
// Part 3: data skew — per-disk fragment balance as a function of
// gcd(D, k); relatively prime D and k guarantee no skew.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "storage/layout.h"
#include "util/table.h"

namespace stagger {
namespace {

/// Submits X then Y with the same start disk; returns Y's startup
/// latency and X's display time.
struct CollisionResult {
  double y_latency_sec = -1.0;
  double x_display_sec = 0.0;
};

CollisionResult MeasureCollision(int32_t stride, AdmissionPolicy policy) {
  constexpr int32_t kDisks = 10;
  constexpr int32_t kDegree = 4;
  constexpr int64_t kSubobjects = 50;

  Simulator sim;
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());
  SchedulerConfig config;
  config.stride = stride;
  config.interval = SimTime::Millis(605);
  config.policy = policy;
  // Y's startup latency: the wait behind X.
  struct YLatency : DisplayListener {
    RequestId y = 0;
    double seconds = -1.0;  // never started
    void OnStarted(RequestId id, SimTime latency) override {
      if (id == y) seconds = latency.seconds();
    }
  } y_latency;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &y_latency);
  STAGGER_CHECK(sched.ok());

  CollisionResult result;
  result.x_display_sec = (config.interval * kSubobjects).seconds();
  for (int i = 0; i < 2; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = kDegree;
    req.start_disk = 0;
    req.num_subobjects = kSubobjects;
    auto id = (*sched)->Submit(req);
    STAGGER_CHECK(id.ok());
    if (i == 1) y_latency.y = *id;
  }
  sim.RunUntil(SimTime::Hours(1));
  result.y_latency_sec = y_latency.seconds;
  return result;
}

int Run() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "OK  " : "FAIL", what);
    if (!ok) ++failures;
  };

  std::printf("Part 1: colliding requests (D=10, M=4, X and Y share a "
              "start disk, 50 subobjects)\n\n");
  Table part1({"stride_k", "policy", "Y_wait_s", "X_display_s"});
  for (int32_t k : {1, 4, 10}) {
    for (AdmissionPolicy policy :
         {AdmissionPolicy::kContiguous, AdmissionPolicy::kFragmented}) {
      CollisionResult r = MeasureCollision(k, policy);
      part1.AddRowValues(
          static_cast<int64_t>(k),
          policy == AdmissionPolicy::kContiguous ? "contiguous" : "fragmented",
          r.y_latency_sec, r.x_display_sec);
      if (k == 1 && policy == AdmissionPolicy::kContiguous) {
        expect(r.y_latency_sec >= 0 && r.y_latency_sec < 5.0,
               "k=1: Y starts within a few intervals");
      }
      if (k == 10 && policy == AdmissionPolicy::kContiguous) {
        expect(r.y_latency_sec >= r.x_display_sec * 0.95,
               "k=D: Y waits for X's entire display");
      }
    }
  }
  part1.Print(std::cout);

  std::printf("\nPart 2: disks touched by a 100-cylinder object "
              "(D=100, M=4, 25 subobjects)\n\n");
  Table part2({"stride_k", "unique_disks"});
  for (int32_t k : {1, 2, 4, 100}) {
    auto layout = StaggeredLayout::Create(100, 0, k, 4);
    STAGGER_CHECK(layout.ok());
    part2.AddRowValues(static_cast<int64_t>(k),
                       static_cast<int64_t>(layout->UniqueDisksUsed(25)));
  }
  part2.Print(std::cout);
  expect(StaggeredLayout::Create(100, 0, 1, 4)->UniqueDisksUsed(25) == 28,
         "k=1 spreads a 100-cylinder object over 28 disks (paper)");
  expect(StaggeredLayout::Create(100, 0, 4, 4)->UniqueDisksUsed(25) == 100,
         "k=M spreads it over all 100 disks (paper)");

  std::printf("\nPart 3: data skew vs gcd(D, k) — D=10, M=4, 40 "
              "subobjects\n\n");
  Table part3({"stride_k", "gcd(D,k)", "min_frags/disk", "max_frags/disk",
               "skew_free"});
  for (int32_t k = 1; k <= 10; ++k) {
    auto layout = StaggeredLayout::Create(10, 0, k, 4);
    STAGGER_CHECK(layout.ok());
    auto counts = layout->FragmentsPerDisk(40);
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    part3.AddRowValues(static_cast<int64_t>(k),
                       std::gcd(static_cast<int64_t>(10), static_cast<int64_t>(k)),
                       *lo, *hi, layout->IsSkewFree(40) ? "yes" : "no");
    if (std::gcd(10, k) == 1) {
      expect(layout->IsSkewFree(40), "gcd(D,k)=1 guarantees no skew");
    }
  }
  part3.Print(std::cout);

  std::printf("\n%s\n", failures == 0 ? "All stride checks passed."
                                      : "Some stride checks FAILED.");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stagger

int main() { return stagger::Run(); }
