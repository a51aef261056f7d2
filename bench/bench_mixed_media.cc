// E10 — the Section 3.1/3.2 mixed-media motivation, measured.  With
// objects Y (120 mbps, M = 6) and Z (60 mbps, M = 3) on 20 mbps disks,
// a naive design sizes physical clusters for the most demanding type
// (6 disks) and serves Z with half of each cluster idle, "sacrificing
// 50% of the available disk bandwidth".  Staggered striping allocates
// each display exactly its own degree, so no bandwidth is wasted.
//
// Both designs run on the same scheduler: the naive one simply rounds
// every request's degree up to 6 (cluster-aligned), staggered striping
// uses the true degrees.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  std::printf("Mixed media types (Y: 120 mbps M=6, Z: 60 mbps M=3) on 36 "
              "disks,\nnaive max-degree clusters vs staggered striping "
              "(2 h closed loop)\n\n");
  Table table({"design", "Y_stations", "Z_stations", "Y_displays",
               "Z_displays", "useful_mbps_per_disk", "hiccups"});
  for (const paper::MixedMediaRow& r : paper::MixedMedia()) {
    table.AddRowValues(r.naive ? "naive-6-disk-clusters" : "staggered-striping",
                       r.y_stations, r.z_stations, r.y_displays, r.z_displays,
                       r.useful_mbps_per_disk, r.hiccups);
  }
  table.Print(std::cout);
  return 0;
}
