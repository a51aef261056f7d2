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
// Flags:  --quick   shorter warmup/measure and fewer windows
//         --csv     machine-readable output
//
// tests/server/model_pins_test.cc pins the --quick admission-latency
// percentiles of the unbatched and widest-window rows.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "server/experiment.h"
#include "util/table.h"

namespace stagger {
namespace {

ExperimentConfig CrowdConfig(bool quick) {
  ExperimentConfig config;
  config.scheme = Scheme::kSimpleStriping;
  config.open_arrivals = true;
  // Demand beyond the physical ceiling: one logical request every 6 s
  // is 600/hour against a ~397/hour stripe capacity.
  config.mean_interarrival = SimTime::Seconds(6);
  // A crowd spanning the whole run sends 80% of arrivals to object 0
  // (rate_multiplier 1: the *mix* is hot, the rate is the base rate).
  FlashCrowd crowd;
  crowd.start = SimTime::Zero();
  crowd.duration = SimTime::Hours(48);
  crowd.object = 0;
  crowd.hot_fraction = 0.8;
  crowd.rate_multiplier = 1.0;
  config.flash_crowds.push_back(crowd);
  config.warmup = quick ? SimTime::Hours(1) : SimTime::Hours(2);
  config.measure = quick ? SimTime::Hours(3) : SimTime::Hours(8);
  return config;
}

int Run(bool quick, bool csv) {
  const std::vector<double> windows_sec =
      quick ? std::vector<double>{0.0, 120.0, 300.0}
            : std::vector<double>{0.0, 30.0, 120.0, 300.0};

  std::printf(
      "E14: stream batching under a hot-object flash crowd (Table 3 "
      "system,\nopen arrivals 600/h, 80%% of arrivals on one object; "
      "physical ceiling ~397/h)\n\n");

  Table table({"window_s", "eff_dph", "phys_streams", "mean_fanout",
               "win_joins", "piggyback", "max_offset_s", "adm_p50_s",
               "adm_p95_s", "adm_p99_s", "hiccups"});

  // Unbatched control first: the ceiling the merge has to beat.
  ExperimentConfig control = CrowdConfig(quick);
  auto unbatched = RunExperiment(control);
  STAGGER_CHECK(unbatched.ok()) << unbatched.status();
  table.AddRowValues(-1, unbatched->displays_per_hour,
                     unbatched->requests_issued, 1.0, 0, 0, 0.0,
                     unbatched->admission_latency_p50_sec,
                     unbatched->admission_latency_p95_sec,
                     unbatched->admission_latency_p99_sec,
                     unbatched->hiccups);

  ExperimentResult widest;
  for (double window : windows_sec) {
    ExperimentConfig config = CrowdConfig(quick);
    config.batch = true;
    config.batch_window = SimTime::Seconds(window);
    auto result = RunExperiment(config);
    STAGGER_CHECK(result.ok()) << result.status();
    STAGGER_CHECK(result->hiccups == 0)
        << "batched schedule produced hiccups — merge broke the stripe";
    STAGGER_CHECK(result->max_start_offset_sec <= window + 1e-9)
        << "piggyback start offset exceeded the admission window";
    table.AddRowValues(window, result->displays_per_hour,
                       result->physical_streams, result->mean_fanout,
                       result->window_joins, result->piggyback_joins,
                       result->max_start_offset_sec,
                       result->admission_latency_p50_sec,
                       result->admission_latency_p95_sec,
                       result->admission_latency_p99_sec, result->hiccups);
    widest = *result;
  }

  // The widest window must lift effective throughput past both the
  // unbatched run and the physical one-stream-per-station ceiling.
  STAGGER_CHECK(widest.displays_per_hour > unbatched->displays_per_hour)
      << "batching did not improve on the unbatched crowd";
  STAGGER_CHECK(widest.displays_per_hour > 397.0)
      << "batching did not clear the E1 physical ceiling";

  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf("\n(window_s -1 = batching off; eff_dph counts logical "
              "displays completed per hour)\n");

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
