// E1 — Figure 8: system throughput (displays per hour) vs. number of
// display stations, simple striping vs. virtual data replication, for
// the three object-popularity distributions of Section 4.1 (truncated
// geometric with means 10 / 20 / 43.5 — highly skewed, skewed, and
// near-uniform).  One sub-table per distribution, like Figure 8's
// panels (a), (b), (c).
//
// Flags:  --csv     machine-readable output
//
// bench/e2e's fig8_matrix and scale_d100k time this matrix and its
// scale-out; tests/paper/paper_claims_test.cc checks its claims.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  bool csv = false;
  if (!paper::ParseBenchArgs(argc, argv, &csv)) return 2;
  const char* labels[] = {"(a) mean 10, highly skewed", "(b) mean 20, skewed",
                          "(c) mean 43.5, near-uniform"};

  std::printf("Figure 8: throughput vs display stations "
              "(Table 3 system: D=1000, M=5, B_Display=100 mbps,\n"
              "B_Disk=20 mbps, B_Tertiary=40 mbps, 2000 objects x 3000 "
              "subobjects, closed workload)\n\n");

  const std::vector<paper::Fig8Cell> cells = paper::Fig8(paper::kSeed);
  for (size_t g = 0; g < paper::kFig8Means.size(); ++g) {
    Table table({"stations", "striping_dph", "vdr_dph", "improvement_%",
                 "striping_lat_s", "vdr_lat_s", "vdr_replicas"});
    for (const paper::Fig8Cell& c : cells) {
      if (c.mean != paper::kFig8Means[g]) continue;
      table.AddRowValues(c.stations, c.striping.displays_per_hour,
                         c.vdr.displays_per_hour, c.ImprovementPct(),
                         c.striping.mean_startup_latency_sec,
                         c.vdr.mean_startup_latency_sec, c.vdr.replications);
    }
    std::printf("--- %s ---\n", labels[g]);
    if (csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
    std::printf("\n");
  }
  return 0;
}
