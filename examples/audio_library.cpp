// A digital audio library (Section 3.2.3's low-bandwidth regime): CD
// tracks at 1.4 mbps on 20 mbps disks.  Whole-disk allocation wastes
// 93 % of every disk a track touches; splitting each disk into L
// logical disks serves many listeners per physical disk.  Runs both
// configurations and reports listeners served and buffer overhead.
//
//   $ ./audio_library

#include <cstdio>
#include <functional>
#include <iostream>
#include <map>

#include "core/logical_scheduler.h"
#include "core/low_bandwidth.h"
#include "sim/simulator.h"
#include "util/table.h"

using namespace stagger;  // NOLINT — example brevity

int main() {
  const Bandwidth track_bw = Bandwidth::Mbps(1.4);
  const Bandwidth disk_bw = Bandwidth::Mbps(20);

  std::printf("audio library: 1.4 mbps tracks on 8 x 20 mbps disks, "
              "40 listeners, 1 h\n\n");

  Table table({"logical_per_disk", "units_per_track", "waste_%",
               "tracks_per_hour", "avg_buffer_frac"});
  double prev_throughput = 0.0;
  for (int32_t l : {1, 2, 4, 8, 14}) {
    auto alloc = AllocateLogical(track_bw, disk_bw, l);
    STAGGER_CHECK(alloc.ok()) << alloc.status();

    Simulator sim;
    LogicalSchedulerConfig config;
    config.num_disks = 8;
    config.stride = 1;
    config.logical_per_disk = l;
    config.interval = SimTime::Millis(605);
    // Closed loop: a listener asks for the next track as one completes.
    struct Listeners : DisplayListener {
      std::map<RequestId, int32_t> listener_of;
      std::function<void(int32_t)> listen;
      int64_t completed = 0;
      void OnCompleted(RequestId id) override {
        const int32_t listener = listener_of.extract(id).mapped();
        ++completed;
        listen(listener);
      }
    } tracks;
    auto sched = LogicalDiskScheduler::Create(&sim, config, &tracks);
    STAGGER_CHECK(sched.ok()) << sched.status();

    tracks.listen = [&](int32_t listener) {
      LogicalRequest req;
      req.object = listener;
      req.units = alloc->units;
      req.start_disk = listener % config.num_disks;
      req.num_subobjects = 300;  // ~3 min track
      auto id = (*sched)->Submit(req);
      STAGGER_CHECK(id.ok());
      tracks.listener_of[*id] = listener;
    };
    for (int32_t s = 0; s < 40; ++s) tracks.listen(s);
    sim.RunUntil(SimTime::Hours(1));

    table.AddRowValues(
        static_cast<int64_t>(l), alloc->units, 100.0 * alloc->wasted_fraction,
        static_cast<double>(tracks.completed),
        (*sched)->metrics().buffered_fraction.Average(sim.Now()));
    prev_throughput = static_cast<double>(tracks.completed);
  }
  table.Print(std::cout);

  std::printf("\nFiner logical splits serve more concurrent listeners per "
              "disk, at the cost of\nper-lane buffering (Figure 7).  "
              "Final configuration sustained %.0f tracks/hour.\n",
              prev_throughput);
  return 0;
}
