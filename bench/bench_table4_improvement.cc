// E2 — Table 4: percentage improvement in throughput (displays per
// hour) of simple striping over virtual data replication, at 16 / 64 /
// 128 / 256 display stations for the three access distributions, read
// off Figure 8's cells.  Prints our measured matrix next to the
// paper's values; absolute percentages depend on unpublished
// baseline-policy details (EXPERIMENTS.md, Deviation 1), but the
// qualitative claims of Section 4.2 hold — tests/paper/
// paper_claims_test.cc checks them.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  const auto measured = paper::Table4(paper::Fig8(paper::kSeed));

  std::printf("Table 4: %% improvement in throughput with simple striping "
              "vs virtual data replication\n\n");
  Table table({"stations", "mean10_measured", "mean10_paper",
               "mean20_measured", "mean20_paper", "mean43.5_measured",
               "mean43.5_paper"});
  for (size_t s = 0; s < paper::kTable4Stations.size(); ++s) {
    const double* paper_row = paper::kTable4Paper[s];
    table.AddRowValues(static_cast<int64_t>(paper::kTable4Stations[s]),
                       measured[s][0], paper_row[0], measured[s][1],
                       paper_row[1], measured[s][2], paper_row[2]);
  }
  table.Print(std::cout);
  return 0;
}
