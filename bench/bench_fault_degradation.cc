// E13 — graceful degradation under disk faults, on the 1/10-scale
// Table 3 system (100 disks, 200 objects, ~2-minute displays, skewed
// access).  Three fault scenarios —
//
//   * healthy:     no faults (the paper's operating assumption);
//   * single-loss: one disk fails mid-measurement and recovers 30 min
//                  later (the canonical RAID-style outage);
//   * storm:       three staggered failures plus transient stalls;
//
// — crossed with the striped schemes' degraded policies (remap vs
// pause-only) and the VDR baseline's cluster failover.  Rows report
// throughput alongside the degraded-mode outcome counters: remapped
// reads, pauses/resumes, interrupted displays, resume latency, and
// (for VDR) failovers.  The headline checks: with remapping enabled a
// single-disk outage costs a few percent of throughput, parks far fewer
// streams than the pause-only ablation, and interrupts only a small
// tail of displays (the farm runs at 40-station saturation, so some
// paused streams cannot re-admit before the outage ends).
//
// E15 — latent sector errors, scrub on vs. off.  The same system takes
// a burst of media corruptions early in the measurement window.  With
// the scrubber off the errors sit in the media forever (the display
// path detects the ones viewers happen to read, but nothing repairs
// them); with the scrubber on every error is found and repaired on
// idle bandwidth, the run reports a finite mean time-to-repair, and
// throughput is statistically unchanged — scrubbing rides the shared
// background budget below rebuild priority, never display bandwidth.
//
// Flags:  --quick   only E15, with shorter warmup/measure windows
//         --csv     machine-readable tables
//
// tests/server/model_pins_test.cc pins E15's --quick scrub-on MTTR.

#include <cstdio>
#include <cstring>
#include <iostream>

#include "server/experiment.h"
#include "util/table.h"

namespace stagger {
namespace {

ExperimentConfig Base(Scheme scheme, bool quick) {
  ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.num_disks = 100;
  cfg.num_objects = 200;
  cfg.subobjects_per_object = 200;  // ~121 s displays
  cfg.preload_objects = 30;
  cfg.stations = 40;
  cfg.geometric_mean = 8.0;
  cfg.warmup = quick ? SimTime::Minutes(15) : SimTime::Minutes(30);
  cfg.measure = quick ? SimTime::Hours(1) : SimTime::Hours(2);
  return cfg;
}

// One disk lost for 30 minutes, mid-measurement.
FaultPlan SingleLoss() {
  FaultPlan plan;
  plan.FailAt(13, SimTime::Minutes(60)).RecoverAt(13, SimTime::Minutes(90));
  return plan;
}

// Three staggered outages plus short stalls across the farm.
FaultPlan Storm() {
  FaultPlan plan;
  plan.FailAt(13, SimTime::Minutes(45)).RecoverAt(13, SimTime::Minutes(75));
  plan.FailAt(47, SimTime::Minutes(60)).RecoverAt(47, SimTime::Minutes(100));
  plan.FailAt(81, SimTime::Minutes(90)).RecoverAt(81, SimTime::Minutes(110));
  plan.StallAt(5, SimTime::Minutes(50), SimTime::Seconds(30));
  plan.StallAt(29, SimTime::Minutes(70), SimTime::Seconds(45));
  plan.StallAt(62, SimTime::Minutes(95), SimTime::Seconds(30));
  return plan;
}

// A burst of media corruptions shortly after warmup: twenty cells on
// twenty disks, spread across the subobject space.  No outages — the
// scenario isolates the latent-error path.
FaultPlan LatentBurst() {
  FaultPlan plan;
  for (int32_t i = 0; i < 20; ++i) {
    const DiskId disk = (7 * i + 3) % 100;
    const int64_t row = (17 * i) % 200;
    plan.LatentAt(disk, SimTime::Minutes(20) + SimTime::Seconds(30 * i), row,
                  row);
  }
  return plan;
}

// E15: the same saturated system with latent sector errors, scrub off
// vs. on (plus a verification-off ablation that ships corrupt frames).
int RunLatentScenario(bool quick, bool csv) {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "OK  " : "FAIL", what);
    if (!ok) ++failures;
  };

  std::printf("\nE15: latent sector errors, scrub on vs. off (same system, "
              "20 corrupt\ncells injected ~20 min in, reconstruct policy, "
              "parity + 2 spares)\n\n");

  auto base = [&] {
    ExperimentConfig cfg = Base(Scheme::kSimpleStriping, quick);
    // Moderate load, not the E13 saturation point: a scrubber confined
    // to idle bandwidth needs idle bandwidth to exist.  (At 40-station
    // saturation every disk-slot is taken every interval and scrub
    // progress truthfully drops toward zero — that starvation behavior
    // is covered by the budget-arbiter unit tests, not measured here.)
    cfg.stations = 16;
    cfg.parity = true;
    cfg.num_spares = 2;
    cfg.degraded_policy = DegradedPolicy::kReconstruct;
    cfg.fault_plan = LatentBurst();
    return cfg;
  };

  ExperimentConfig cfg = base();
  auto scrub_off = RunExperiment(cfg);
  STAGGER_CHECK(scrub_off.ok()) << scrub_off.status();

  cfg = base();
  cfg.scrub = true;
  auto scrub_on = RunExperiment(cfg);
  STAGGER_CHECK(scrub_on.ok()) << scrub_on.status();

  // Ablation: no verification at all — corrupt fragments reach viewers.
  cfg = base();
  cfg.parity = false;
  cfg.num_spares = 0;
  cfg.degraded_policy = DegradedPolicy::kNone;
  auto unverified = RunExperiment(cfg);
  STAGGER_CHECK(unverified.ok()) << unverified.status();

  Table table({"row", "displays_per_hour", "injected", "detected", "repaired",
               "unrepaired", "mttr_s", "corrupt_caught", "corrupt_delivered",
               "scrub_stripes", "budget_viol"});
  auto add = [&](const char* row, const ExperimentResult& r) {
    table.AddRowValues(row, r.displays_per_hour, r.latent_errors_injected,
                       r.latent_errors_detected, r.latent_errors_repaired,
                       r.latent_errors_unrepaired, r.mean_time_to_repair_sec,
                       r.corrupt_reads_detected, r.corrupt_frames_delivered,
                       r.scrub_stripes_verified,
                       r.background_budget_violations);
  };
  add("scrub-off", *scrub_off);
  add("scrub-on", *scrub_on);
  add("unverified", *unverified);
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf("\n");

  expect(scrub_off->latent_errors_injected == 20 &&
             scrub_on->latent_errors_injected == 20,
         "both runs take the same 20 corrupt cells");
  expect(scrub_off->latent_errors_unrepaired > 0,
         "scrub-off leaves latent errors in the media");
  expect(scrub_off->mean_time_to_repair_sec == 0.0,
         "scrub-off repairs nothing (detection without repair)");
  expect(scrub_on->latent_errors_unrepaired == 0 &&
             scrub_on->latent_errors_repaired ==
                 scrub_on->latent_errors_injected,
         "scrub-on repairs every injected error");
  expect(scrub_on->mean_time_to_repair_sec > 0.0,
         "scrub-on reports a finite mean time-to-repair");
  expect(scrub_off->corrupt_frames_delivered == 0 &&
             scrub_on->corrupt_frames_delivered == 0,
         "fault-aware policies never ship a corrupt frame");
  expect(unverified->corrupt_frames_delivered > 0,
         "the no-verification ablation does ship corrupt frames");
  expect(scrub_on->background_budget_violations == 0,
         "scrub + rebuild stay inside the idle-bandwidth budget");
  expect(scrub_on->hiccups == 0 && scrub_off->hiccups == 0,
         "delivery stays hiccup-free with the scrubber running");
  expect(scrub_on->displays_per_hour >= scrub_off->displays_per_hour * 0.97,
         "scrubbing costs at most 3% throughput (idle bandwidth only)");

  return failures;
}

int Run(bool quick, bool csv) {
  // --quick runs only the E15 latent-error scenario (with shortened
  // windows), the part CI's release job runs.  The full E13
  // degradation matrix needs the 2 h windows its fault plans assume.
  if (quick) {
    const int failures = RunLatentScenario(quick, csv);
    std::printf("\n%s\n", failures == 0 ? "All degradation checks passed."
                                        : "Some degradation checks FAILED.");
    return failures == 0 ? 0 : 1;
  }
  Table table({"scheme", "scenario", "policy", "displays_per_hour",
               "degraded_reads", "reconstructed", "paused", "resumed",
               "interrupted", "resume_lat_s", "failovers", "rebuilds"});
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "OK  " : "FAIL", what);
    if (!ok) ++failures;
  };
  auto run = [&](const char* scenario, const char* policy,
                 const ExperimentConfig& cfg) {
    auto result = RunExperiment(cfg);
    STAGGER_CHECK(result.ok()) << result.status();
    table.AddRowValues(SchemeName(cfg.scheme), scenario, policy,
                       result->displays_per_hour, result->degraded_reads,
                       result->reconstructed_reads, result->streams_paused,
                       result->streams_resumed, result->displays_interrupted,
                       result->mean_resume_latency_sec, result->failovers,
                       result->rebuilds_completed);
    return *result;
  };

  std::printf("Degraded-mode behavior under disk faults (1/10-scale Table 3: "
              "D=100, 200\nobjects, 40 stations, geometric mean 8, 2 h "
              "window)\n\n");

  // Striped scheme, three scenarios under the remap-first policy.  The
  // E13 scenario plans pin events to absolute minutes, so this matrix
  // always runs the full windows.
  ExperimentConfig cfg = Base(Scheme::kSimpleStriping, /*quick=*/false);
  auto healthy = run("healthy", "remap", cfg);
  cfg.fault_plan = SingleLoss();
  auto single_remap = run("single-loss", "remap", cfg);
  cfg.fault_plan = Storm();
  auto storm_remap = run("storm", "remap", cfg);

  // Pause-only ablation: what remapping buys.
  cfg = Base(Scheme::kSimpleStriping, /*quick=*/false);
  cfg.degraded_policy = DegradedPolicy::kPause;
  cfg.fault_plan = SingleLoss();
  auto single_pause = run("single-loss", "pause", cfg);
  cfg.fault_plan = Storm();
  auto storm_pause = run("storm", "pause", cfg);

  // Parity + reconstruction: degraded reads re-derive the lost fragment
  // from survivors + parity inside the same interval, and failed slots
  // rebuild onto hot spares on idle bandwidth.
  cfg = Base(Scheme::kSimpleStriping, /*quick=*/false);
  cfg.parity = true;
  cfg.num_spares = 2;
  cfg.degraded_policy = DegradedPolicy::kReconstruct;
  cfg.fault_plan = SingleLoss();
  auto single_recon = run("single-loss", "reconstruct", cfg);
  cfg.fault_plan = Storm();
  auto storm_recon = run("storm", "reconstruct", cfg);

  // VDR baseline: the same outages become cluster failovers.
  cfg = Base(Scheme::kVdr, /*quick=*/false);
  auto vdr_healthy = run("healthy", "failover", cfg);
  cfg.fault_plan = SingleLoss();
  auto vdr_single = run("single-loss", "failover", cfg);
  cfg.fault_plan = Storm();
  auto vdr_storm = run("storm", "failover", cfg);

  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf("\n");

  expect(healthy.degraded_reads == 0 && healthy.streams_paused == 0 &&
             healthy.displays_interrupted == 0,
         "healthy run shows zero degraded activity");
  expect(single_remap.degraded_reads > 0,
         "single-disk loss is absorbed by remapped reads");
  expect(single_remap.streams_paused < single_pause.streams_paused,
         "remapping absorbs the outage in-flight: fewer pauses than the "
         "pause-only policy");
  expect(static_cast<double>(single_remap.displays_interrupted) <=
             0.05 * static_cast<double>(single_remap.displays_completed),
         "single-disk loss interrupts under 5% of completed displays");
  expect(single_remap.displays_per_hour >= healthy.displays_per_hour * 0.9,
         "single-disk loss costs at most 10% throughput with remapping");
  expect(single_remap.hiccups == 0 && storm_remap.hiccups == 0 &&
             single_pause.hiccups == 0 && storm_pause.hiccups == 0,
         "delivery stays hiccup-free in every degraded run");
  expect(storm_remap.displays_per_hour >= storm_pause.displays_per_hour,
         "remapping sustains at least the pause-only throughput in a storm");
  // A handful of reconstruct-policy pauses can still be parked when the
  // measurement window closes (the high churn of short pauses under
  // saturation); everything else must balance exactly.
  auto unresolved = [](const ExperimentResult& r) {
    return r.streams_paused - r.streams_resumed - r.displays_interrupted;
  };
  expect(unresolved(single_remap) == 0 && unresolved(storm_remap) == 0 &&
             unresolved(single_pause) == 0 && unresolved(storm_pause) == 0,
         "every pause resolves into a resume or a clean interruption");
  expect(unresolved(single_recon) >= 0 && unresolved(single_recon) <= 8 &&
             unresolved(storm_recon) >= 0 && unresolved(storm_recon) <= 8,
         "reconstruct-policy pauses resolve, modulo a window-close tail");
  expect(single_recon.reconstructed_reads > 0,
         "parity reconstruction substitutes reads during the outage");
  expect(single_recon.mean_resume_latency_sec <
             single_pause.mean_resume_latency_sec,
         "reconstruction's fallback pauses are far shorter than pause-only "
         "parks");
  expect(single_recon.displays_per_hour >= single_pause.displays_per_hour,
         "reconstruct sustains at least pause-only throughput on a single "
         "loss");
  expect(vdr_single.failovers > 0,
         "VDR fails displays over to surviving replicas");
  expect(vdr_single.displays_per_hour >= vdr_healthy.displays_per_hour * 0.8,
         "VDR failover holds 80% of healthy throughput on a single loss");
  expect(vdr_storm.displays_completed > 0,
         "VDR keeps completing displays through the storm");

  failures += RunLatentScenario(quick, csv);

  std::printf("\n%s\n", failures == 0 ? "All degradation checks passed."
                                      : "Some degradation checks FAILED.");
  return failures == 0 ? 0 : 1;
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
