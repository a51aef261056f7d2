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

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  std::printf("Figure 6 scenario: degree-4 request over time-fragmented "
              "disks (D=16, k=1,\n8 degree-1 blockers on even disks for 20 "
              "intervals; X reads 60 subobjects)\n\n");
  Table table({"policy", "X_startup_s", "peak_buffer_frag", "avg_buffer_frag",
               "migrations", "hiccups"});
  for (const paper::CoalescingRow& r : paper::Coalescing()) {
    table.AddRowValues(r.policy, r.x_startup_s, r.peak_buffer, r.avg_buffer,
                       r.migrations, r.hiccups);
  }
  table.Print(std::cout);
  return 0;
}
