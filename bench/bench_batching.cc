// E14 — stream batching under a hot-object flash crowd: effective
// (logical) throughput vs. admission window.  The Table 3 system tops
// out near 397 physical displays per hour (E1's D/M ceiling: 200
// concurrent streams x ~30 min per display).  A flash crowd asking for
// the same object faster than that can only be served by merging: the
// batcher holds same-object arrivals for an admission window and rides
// late ones piggyback on an already-playing stream, so one physical
// stream fans out to N stations and the *logical* completion rate
// climbs past the physical ceiling while the stripe schedule stays
// hiccup-free.  Window 0 is the pass-through control and must match the
// unbatched server row for row.
//
// Flags:  --csv     machine-readable output
//
// tests/server/model_pins_test.cc pins the admission-latency
// percentiles of the unbatched and widest-window rows.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  bool csv = false;
  if (!paper::ParseBenchArgs(argc, argv, &csv)) return 2;
  std::printf(
      "E14: stream batching under a hot-object flash crowd (Table 3 "
      "system,\nopen arrivals 600/h, 80%% of arrivals on one object; "
      "physical ceiling ~397/h)\n\n");

  Table table({"window_s", "eff_dph", "phys_streams", "mean_fanout",
               "win_joins", "piggyback", "max_offset_s", "adm_p50_s",
               "adm_p95_s", "adm_p99_s", "hiccups"});
  const std::vector<ExperimentResult> runs = paper::Batching(paper::kSeed);
  for (size_t w = 0; w < runs.size(); ++w) {
    const ExperimentResult& r = runs[w];
    const double window = paper::kBatchWindows[w];
    // The unbatched control has no physical-stream counters of its own.
    if (window < 0.0) {
      table.AddRowValues(-1, r.displays_per_hour, r.requests_issued, 1.0, 0,
                         0, 0.0, r.admission_latency_p50_sec,
                         r.admission_latency_p95_sec,
                         r.admission_latency_p99_sec, r.hiccups);
      continue;
    }
    table.AddRowValues(window, r.displays_per_hour, r.physical_streams,
                       r.mean_fanout, r.window_joins, r.piggyback_joins,
                       r.max_start_offset_sec, r.admission_latency_p50_sec,
                       r.admission_latency_p95_sec,
                       r.admission_latency_p99_sec, r.hiccups);
  }

  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf("\n(window_s -1 = batching off; eff_dph counts logical "
              "displays completed per hour)\n");
  return 0;
}
