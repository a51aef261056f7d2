// E7 — Section 3.2.3 / Figure 7: low-bandwidth objects.  Rounding a
// request up to an integral number of whole disks wastes bandwidth; the
// paper splits each disk into L logical disks of B_Disk / L and
// multiplexes subobjects within a time interval, at the cost of a
// little buffer space.  This bench sweeps object bandwidths and logical
// splits, reporting the wasted fraction and buffer overhead, plus the
// paper's two worked numbers:
//   * a 30 mbps object on 20 mbps disks wastes 25 % of two disks;
//   * B_Display = 3/2 B_Disk is served exactly with L = 2.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  const paper::LowBandwidth e = paper::LowBandwidthAnalysis();
  std::printf("Section 3.2.3: integral-disk waste vs logical-disk "
              "allocation (B_Disk = 20 mbps)\n\n");
  Table table({"B_Display_mbps", "whole-disk_waste_%", "L=2_units",
               "L=2_waste_%", "L=2_buffer_subobj", "L=4_waste_%"});
  for (const paper::AllocationRow& r : e.allocations) {
    table.AddRowValues(r.display_mbps, 100.0 * r.whole_disk_waste, r.l2_units,
                       100.0 * r.l2_waste, r.l2_buffer_subobjects,
                       100.0 * r.l4_waste);
  }
  table.Print(std::cout);

  std::printf("\nSimulated closed-loop throughput (30 mbps displays, "
              "12 disks, 10 stations):\n\n");
  Table sim_table({"logical_per_disk", "displays_per_hour",
                   "concurrency_bound"});
  sim_table.AddRowValues(int64_t{1}, e.l1_displays_per_hour, int64_t{6});
  sim_table.AddRowValues(int64_t{2}, e.l2_displays_per_hour, int64_t{8});
  sim_table.Print(std::cout);
  return 0;
}
