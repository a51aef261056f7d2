// E1 — Figure 8: system throughput (displays per hour) vs. number of
// display stations, simple striping vs. virtual data replication, for
// the three object-popularity distributions of Section 4.1 (truncated
// geometric with means 10 / 20 / 43.5 — highly skewed, skewed, and
// near-uniform).  One sub-table per distribution, like Figure 8's
// panels (a), (b), (c).
//
// Flags:  --quick   fewer station points and a shorter run
//         --csv     machine-readable output
//
// bench/e2e's fig8_matrix and scale_d100k time this matrix and its
// scale-out; tests/server/model_pins_test.cc pins the 256-station
// cell's admission latency.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "server/experiment.h"
#include "util/table.h"

namespace stagger {
namespace {

int Run(bool quick, bool csv) {
  const std::vector<int32_t> stations =
      quick ? std::vector<int32_t>{4, 16, 64, 256}
            : std::vector<int32_t>{1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double means[] = {10.0, 20.0, 43.5};
  const char* labels[] = {"(a) mean 10, highly skewed", "(b) mean 20, skewed",
                          "(c) mean 43.5, near-uniform"};

  std::printf("Figure 8: throughput vs display stations "
              "(Table 3 system: D=1000, M=5, B_Display=100 mbps,\n"
              "B_Disk=20 mbps, B_Tertiary=40 mbps, 2000 objects x 3000 "
              "subobjects, closed workload)\n\n");

  for (int g = 0; g < 3; ++g) {
    Table table({"stations", "striping_dph", "vdr_dph", "improvement_%",
                 "striping_lat_s", "vdr_lat_s", "vdr_replicas"});
    for (int32_t n : stations) {
      ExperimentConfig base;
      base.geometric_mean = means[g];
      base.stations = n;
      if (quick) {
        base.warmup = SimTime::Hours(1);
        base.measure = SimTime::Hours(5);
      }

      base.scheme = Scheme::kSimpleStriping;
      auto striping = RunExperiment(base);
      STAGGER_CHECK(striping.ok()) << striping.status();

      base.scheme = Scheme::kVdr;
      auto vdr = RunExperiment(base);
      STAGGER_CHECK(vdr.ok()) << vdr.status();

      const double improvement =
          vdr->displays_per_hour <= 0.0
              ? 0.0
              : 100.0 * (striping->displays_per_hour / vdr->displays_per_hour -
                         1.0);
      table.AddRowValues(n, striping->displays_per_hour, vdr->displays_per_hour,
                         improvement, striping->mean_startup_latency_sec,
                         vdr->mean_startup_latency_sec, vdr->replications);
      STAGGER_CHECK(striping->hiccups == 0)
          << "striping produced hiccups — scheduler bug";
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

}  // namespace
}  // namespace stagger

int main(int argc, char** argv) {
  bool quick = false, csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
  }
  return stagger::Run(quick, csv);
}
