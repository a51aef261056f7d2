// E1 — Figure 8: system throughput (displays per hour) vs. number of
// display stations, simple striping vs. virtual data replication, for
// the three object-popularity distributions of Section 4.1 (truncated
// geometric with means 10 / 20 / 43.5 — highly skewed, skewed, and
// near-uniform).  One sub-table per distribution, like Figure 8's
// panels (a), (b), (c).
//
// Flags:  --quick   fewer station points and a shorter run
//         --csv     machine-readable output
//         --report  append end-to-end wall-clock rows to the scheduler
//                   bench report (BENCH_scheduler.json or
//                   $STAGGER_BENCH_REPORT), merging with any existing
//                   microbenchmark entries; implies an extra D=10000
//                   scale point so the event-kernel cost is measured at
//                   ten times the paper's array size

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_report.h"
#include "server/experiment.h"
#include "util/table.h"

namespace stagger {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Run(bool quick, bool csv, bool report_json) {
  const std::vector<int32_t> stations =
      quick ? std::vector<int32_t>{4, 16, 64, 256}
            : std::vector<int32_t>{1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double means[] = {10.0, 20.0, 43.5};
  const char* labels[] = {"(a) mean 10, highly skewed", "(b) mean 20, skewed",
                          "(c) mean 43.5, near-uniform"};

  const auto matrix_start = std::chrono::steady_clock::now();
  int64_t matrix_cells = 0;
  double admission_p50 = 0.0, admission_p95 = 0.0, admission_p99 = 0.0;

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
      // Keep the 256-station highly-skewed cell's admission-latency
      // percentiles for the report: the most contended point of the
      // matrix, where queueing (not transfer) dominates startup.
      if (report_json && g == 0 && n == 256) {
        admission_p50 = striping->admission_latency_p50_sec;
        admission_p95 = striping->admission_latency_p95_sec;
        admission_p99 = striping->admission_latency_p99_sec;
      }

      base.scheme = Scheme::kVdr;
      auto vdr = RunExperiment(base);
      STAGGER_CHECK(vdr.ok()) << vdr.status();

      const double improvement =
          vdr->displays_per_hour <= 0.0
              ? 0.0
              : 100.0 * (striping->displays_per_hour / vdr->displays_per_hour -
                         1.0);
      matrix_cells += 2;  // one striping + one VDR experiment
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
  const double matrix_seconds = SecondsSince(matrix_start);

  if (!report_json) return 0;

  // End-to-end wall clock: simulated experiments per second of host
  // time.  This is the number the event-kernel work ultimately has to
  // move — microbenchmark wins that do not show up here are noise.
  BenchReport report("scheduler");
  report.MergeFromJsonFile(report.DefaultPath());
  report.AddWallClock(quick ? "E2E_Fig8QuickMatrix" : "E2E_Fig8FullMatrix",
                      matrix_cells, matrix_seconds);
  std::printf("matrix wall clock: %.3f s for %lld experiments\n",
              matrix_seconds, static_cast<long long>(matrix_cells));

  // Admission-latency percentiles of the most contended striping cell
  // (256 stations, highly skewed), encoded as one item taking the
  // percentile's latency of wall time — ns_per_item == latency in ns.
  // The simulation is deterministic, so these reproduce exactly.
  report.AddWallClock("Fig8_AdmissionP50_256Stations", 1, admission_p50);
  report.AddWallClock("Fig8_AdmissionP95_256Stations", 1, admission_p95);
  report.AddWallClock("Fig8_AdmissionP99_256Stations", 1, admission_p99);
  std::printf("admission latency @256 stations: p50 %.3f s  p95 %.3f s  "
              "p99 %.3f s\n",
              admission_p50, admission_p95, admission_p99);

  // Scale point beyond the paper: D = 10000 disks, one striping cell.
  // Each interval tick walks 10x the disks of the paper's configuration.
  {
    ExperimentConfig big;
    big.num_disks = 10000;
    big.stations = 64;
    big.geometric_mean = 10.0;
    big.warmup = SimTime::Hours(1);
    big.measure = SimTime::Hours(5);
    big.scheme = Scheme::kSimpleStriping;
    const auto start = std::chrono::steady_clock::now();
    auto result = RunExperiment(big);
    const double seconds = SecondsSince(start);
    STAGGER_CHECK(result.ok()) << result.status();
    STAGGER_CHECK(result->hiccups == 0) << "D=10k striping produced hiccups";
    report.AddWallClock("E2E_Fig8_D10k", /*items=*/1, seconds);
    std::printf("D=10000 striping cell: %.3f s (%.1f displays/hour)\n",
                seconds, result->displays_per_hour);
  }

  // Scale point at a hundred times the paper's array: D = 100000 disks
  // with 2000 concurrent stations, where the contiguous lockstep tick
  // does nearly all the work.
  {
    ExperimentConfig big;
    big.num_disks = 100000;
    big.stations = 2000;
    big.geometric_mean = 10.0;
    big.warmup = SimTime::Hours(1);
    big.measure = SimTime::Hours(5);
    big.scheme = Scheme::kSimpleStriping;
    const auto start = std::chrono::steady_clock::now();
    auto result = RunExperiment(big);
    const double seconds = SecondsSince(start);
    STAGGER_CHECK(result.ok()) << result.status();
    STAGGER_CHECK(result->hiccups == 0) << "D=100k striping produced hiccups";
    report.AddWallClock("E2E_Fig8_D100k", /*items=*/1, seconds);
    std::printf("D=100000 striping cell: %.3f s (%.1f displays/hour)\n",
                seconds, result->displays_per_hour);
  }

  if (!report.WriteJson(report.DefaultPath())) return 1;
  std::printf("wrote %s\n", report.DefaultPath().c_str());
  return 0;
}

}  // namespace
}  // namespace stagger

int main(int argc, char** argv) {
  bool quick = false, csv = false, report_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    if (std::strcmp(argv[i], "--report") == 0) report_json = true;
  }
  return stagger::Run(quick, csv, report_json);
}
