// VCR-style interactivity (Section 3.2.5): rewind / fast-forward
// without scan by repositioning the stream, and fast-forward *with*
// scan through a 1/16th-size replica object.  Shows the position
// mapping, the replica's storage overhead, and the transfer-initiation
// delays a viewer observes around each control action.
//
//   $ ./vcr_controls

#include <cstdio>
#include <map>

#include "core/fast_forward.h"
#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "storage/layout.h"

using namespace stagger;  // NOLINT — example brevity

int main() {
  Simulator sim;
  auto disks = DiskArray::Create(100, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok()) << disks.status();

  SchedulerConfig config;
  config.stride = 5;
  config.interval = SimTime::Millis(605);
  // The viewer's screen: what each request id shows.  A Seek moves the
  // live stream to a new id, which keeps its label.
  struct Show {
    const char* name;
    const char* wait;  ///< what the startup latency means to the viewer
  };
  struct Viewer : DisplayListener {
    explicit Viewer(const Simulator* s) : sim(s) {}
    const Simulator* sim;
    std::map<RequestId, Show> shows;
    void OnStarted(RequestId id, SimTime latency) override {
      std::printf("[%8.1fs] %s started (%s %.2fs)\n", sim->Now().seconds(),
                  shows[id].name, shows[id].wait, latency.seconds());
    }
    void OnCompleted(RequestId id) override {
      std::printf("[%8.1fs] %s finished\n", sim->Now().seconds(),
                  shows[id].name);
    }
  } viewer(&sim);
  auto scheduler = IntervalScheduler::Create(&sim, &*disks, config, &viewer);
  STAGGER_CHECK(scheduler.ok()) << scheduler.status();

  // The feature presentation: 600 subobjects (~6 minutes), M = 5.
  MediaObject movie;
  movie.name = "feature";
  movie.display_bandwidth = Bandwidth::Mbps(100);
  movie.num_subobjects = 600;
  auto layout = StaggeredLayout::Create(100, /*start_disk=*/0, /*stride=*/5,
                                        /*degree=*/5);
  STAGGER_CHECK(layout.ok());

  // Its fast-forward replica: every 16th frame, 1/16 the subobjects.
  auto replica = MakeFastForwardReplica(movie, /*speedup=*/16);
  STAGGER_CHECK(replica.ok()) << replica.status();
  auto replica_layout = StaggeredLayout::Create(100, /*start_disk=*/50,
                                                /*stride=*/5, /*degree=*/5);
  STAGGER_CHECK(replica_layout.ok());
  std::printf("replica '%s': %lld subobjects, %.1f%% storage overhead\n\n",
              replica->object.name.c_str(),
              static_cast<long long>(replica->object.num_subobjects),
              100.0 * replica->StorageOverhead(movie));

  // 1. Start watching the movie.
  DisplayRequest play;
  play.object = 0;
  play.degree = 5;
  play.start_disk = layout->start_disk();
  play.num_subobjects = movie.num_subobjects;
  auto handle = (*scheduler)->Submit(play);
  STAGGER_CHECK(handle.ok());
  viewer.shows[*handle] = Show{"playback", "waited"};

  // 2. Thirty seconds in, the viewer skips ahead to subobject 99
  //    (fast-forward without scan = Seek on the live stream): it reads on
  //    from that row, on the disks the layout puts it.
  RequestId live = *handle;
  sim.RunUntil(SimTime::Seconds(30));
  {
    const int64_t target = 99;
    std::printf("[%8.1fs] FF without scan to subobject %lld\n",
                sim.Now().seconds(), static_cast<long long>(target));
    auto moved = (*scheduler)->Seek(live, target,
                                    movie.num_subobjects - target);
    STAGGER_CHECK(moved.ok()) << moved.status();
    viewer.shows[*moved] = viewer.shows[live];
    live = *moved;
  }

  // 3. After one minute, the viewer fast-forwards *with scan*: switch
  //    to the replica at the mapped position for ~2 timeline minutes.
  sim.RunUntil(SimTime::Minutes(1));
  {
    const int64_t paused_at = 148;  // ~49 subobjects past the skip
    const int64_t from = replica->ToReplica(paused_at);
    const int64_t scan_len = replica->ToReplica(400);  // scan 400 subobjects
    std::printf("[%8.1fs] FF-scan: movie position %lld -> replica "
                "subobject %lld (%lld replica stripes)\n",
                sim.Now().seconds(), static_cast<long long>(paused_at),
                static_cast<long long>(from), static_cast<long long>(scan_len));
    STAGGER_CHECK((*scheduler)->Cancel(live).ok());
    DisplayRequest scan;
    scan.object = 1;
    scan.degree = 5;
    scan.start_disk = replica_layout->StripeOf(from).first;
    scan.num_subobjects = scan_len;
    auto scan_handle = (*scheduler)->Submit(scan);
    STAGGER_CHECK(scan_handle.ok());
    viewer.shows[*scan_handle] = Show{"stream", "switch delay"};
    live = *scan_handle;
  }

  // 4. Ten seconds into the scan the viewer presses play: the scan
  //    stream gives way to a new display of the movie from the
  //    scanned-to position.
  sim.RunUntil(SimTime::Minutes(1) + SimTime::Seconds(10));
  {
    // ~16 replica stripes scanned by now; each covers 16 subobjects.
    const int64_t resume_at =
        replica->FromReplica(replica->ToReplica(148) + 16);
    std::printf("[%8.1fs] resume normal playback at subobject %lld\n",
                sim.Now().seconds(), static_cast<long long>(resume_at));
    STAGGER_CHECK((*scheduler)->Cancel(live).ok());
    DisplayRequest rest = play;
    rest.start_disk = layout->StripeOf(resume_at).first;
    rest.num_subobjects = movie.num_subobjects - resume_at;
    auto resumed = (*scheduler)->Submit(rest);
    STAGGER_CHECK(resumed.ok()) << resumed.status();
    viewer.shows[*resumed] = Show{"playback", "switch delay"};
  }

  sim.RunUntil(SimTime::Minutes(10));
  std::printf("\n%lld hiccups (must be 0)\n",
              static_cast<long long>((*scheduler)->metrics().hiccups));
  return (*scheduler)->metrics().hiccups == 0 ? 0 : 1;
}
