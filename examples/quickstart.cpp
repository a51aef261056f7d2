// Quickstart: build a small staggered-striping system (the 12-disk
// mixed-media scenario of Figure 5), request displays of three objects
// with different bandwidth requirements, and watch them stream
// hiccup-free while the disk sets shift by the stride each interval.
//
//   $ ./quickstart

#include <cstdio>
#include <map>

#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "storage/layout.h"
#include "util/check.h"

using namespace stagger;  // NOLINT — example brevity

int main() {
  // A 12-disk farm of the paper's evaluation drives.
  Simulator sim;
  auto disks = DiskArray::Create(12, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok()) << disks.status();

  // Stride k = 1, as in Figure 5.  The interval is one fragment (one
  // cylinder) at the effective 20 mbps disk bandwidth.
  SchedulerConfig config;
  config.stride = 1;
  config.interval = DiskParameters::Evaluation().CylinderReadTime();
  // The scheduler reports each display's start and end by request id.
  struct Station : DisplayListener {
    std::map<RequestId, const char*> names;
    int completed = 0;
    void OnStarted(RequestId id, SimTime latency) override {
      std::printf("%-20s started after %7.3f s\n", names[id],
                  latency.seconds());
    }
    void OnCompleted(RequestId id) override {
      ++completed;
      std::printf("%-20s completed\n", names[id]);
    }
  } station;
  auto scheduler = IntervalScheduler::Create(&sim, &*disks, config, &station);
  STAGGER_CHECK(scheduler.ok()) << scheduler.status();

  // Three objects: Z (40 mbps -> 2 disks), X (60 -> 3), Y (80 -> 4),
  // placed as in Figure 5.
  struct Spec {
    const char* name;
    int degree;
    int start_disk;
    int subobjects;
  };
  const Spec specs[] = {
      {"Y (80 mbps, M=4)", 4, 0, 12},
      {"X (60 mbps, M=3)", 3, 4, 12},
      {"Z (40 mbps, M=2)", 2, 7, 12},
  };

  for (const Spec& spec : specs) {
    DisplayRequest req;
    req.object = 0;
    req.degree = spec.degree;
    req.start_disk = spec.start_disk;
    req.num_subobjects = spec.subobjects;
    auto id = (*scheduler)->Submit(req);
    STAGGER_CHECK(id.ok()) << id.status();
    station.names[*id] = spec.name;
  }

  // The scheduler ticks forever; run long enough for all displays.
  sim.RunUntil(SimTime::Minutes(5));

  std::printf("\n%d displays delivered, %lld hiccups, "
              "mean disk utilization %.1f%%\n",
              station.completed,
              static_cast<long long>((*scheduler)->metrics().hiccups),
              100.0 * disks->MeanUtilization());
  return station.completed == 3 ? 0 : 1;
}
