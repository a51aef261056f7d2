// Reproduces Figure 3's cluster schedule: three displays (X, Y, Z) on
// 9 disks organized as three clusters of three (simple striping,
// k = M = 3), traced interval by interval.  As displays end, idle
// slots appear exactly as in the figure; a new request then fills them.
//
//   $ ./schedule_trace

#include <cstdio>
#include <iostream>

#include "core/interval_scheduler.h"
#include "core/schedule_trace.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"

using namespace stagger;  // NOLINT — example brevity

int main() {
  Simulator sim;
  auto disks = DiskArray::Create(9, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok()) << disks.status();

  ScheduleTracer tracer(9, /*max_intervals=*/14);
  tracer.Name(0, "X");
  tracer.Name(1, "Y");
  tracer.Name(2, "Z");
  tracer.Name(3, "W");

  SchedulerConfig config;
  config.stride = 3;  // k = M: simple striping, physical clusters
  config.interval = SimTime::Millis(605);
  config.read_observer = [&tracer](int64_t t, ObjectId o, int64_t s,
                                   int32_t f, int32_t d) {
    tracer.Record(t, o, s, f, d);
  };
  auto scheduler = IntervalScheduler::Create(&sim, &*disks, config);
  STAGGER_CHECK(scheduler.ok()) << scheduler.status();

  // X, Y, Z in flight, with X the shortest (it ends mid-trace, opening
  // the idle slots of Figure 3); a new request W arrives and takes the
  // idle cluster, as the paper describes.
  struct Spec {
    ObjectId object;
    int start_disk;
    int subobjects;
  };
  for (const Spec& s :
       {Spec{0, 0, 5}, Spec{1, 3, 14}, Spec{2, 6, 14}}) {
    DisplayRequest req;
    req.object = s.object;
    req.degree = 3;
    req.start_disk = s.start_disk;
    req.num_subobjects = s.subobjects;
    STAGGER_CHECK((*scheduler)->Submit(std::move(req)).ok());
  }
  // W arrives while X is still running; it waits for X's cluster slot.
  sim.RunUntil(SimTime::Millis(605) * 3);
  DisplayRequest w;
  w.object = 3;
  w.degree = 3;
  w.start_disk = 0;
  w.num_subobjects = 8;
  STAGGER_CHECK((*scheduler)->Submit(std::move(w)).ok());

  sim.RunUntil(SimTime::Minutes(1));

  std::printf("Figure 3: cluster schedule (9 disks, 3 clusters, k = M = 3)\n"
              "X reads 5 subobjects then ends; W arrives at interval 3 and "
              "takes the idle slots.\n\n");
  tracer.RenderClusters(3).Print(std::cout);
  std::printf("\nPer-disk fragment trace (first intervals):\n\n");
  tracer.RenderDisks().Print(std::cout);
  std::printf("\n%lld hiccups (must be 0)\n",
              static_cast<long long>((*scheduler)->metrics().hiccups));
  return 0;
}
