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
// pause-only vs parity reconstruction) and the VDR baseline's cluster
// failover.  Rows report throughput alongside the degraded-mode outcome
// counters: remapped reads, pauses/resumes, interrupted displays,
// resume latency, and (for VDR) failovers.
//
// E15 — latent sector errors, scrub on vs. off.  The same system takes
// a burst of media corruptions early in the measurement window.  With
// the scrubber off the errors sit in the media forever (the display
// path detects the ones viewers happen to read, but nothing repairs
// them); with the scrubber on every error is found and repaired on
// idle bandwidth, and throughput is unchanged — scrubbing rides the
// shared background budget below rebuild priority, never display
// bandwidth.
//
// Flags:  --csv     machine-readable tables
//
// tests/paper/paper_claims_test.cc checks both experiments' claims;
// tests/server/model_pins_test.cc pins E15's scrub-on MTTR.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

namespace stagger {
namespace {

void Print(const Table& table, bool csv) {
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf("\n");
}

void PrintDegradation(const paper::FaultDegradation& e, bool csv) {
  std::printf("Degraded-mode behavior under disk faults (1/10-scale Table 3: "
              "D=100, 200\nobjects, 40 stations, geometric mean 8, 2 h "
              "window)\n\n");
  Table table({"scheme", "scenario", "policy", "displays_per_hour",
               "degraded_reads", "reconstructed", "paused", "resumed",
               "interrupted", "resume_lat_s", "failovers", "rebuilds"});
  auto add = [&](Scheme scheme, const char* scenario, const char* policy,
                 const ExperimentResult& r) {
    table.AddRowValues(SchemeName(scheme), scenario, policy,
                       r.displays_per_hour, r.degraded_reads,
                       r.reconstructed_reads, r.streams_paused,
                       r.streams_resumed, r.displays_interrupted,
                       r.mean_resume_latency_sec, r.failovers,
                       r.rebuilds_completed);
  };
  const Scheme striped = Scheme::kSimpleStriping;
  add(striped, "healthy", "remap", e.healthy);
  add(striped, "single-loss", "remap", e.single_remap);
  add(striped, "storm", "remap", e.storm_remap);
  add(striped, "single-loss", "pause", e.single_pause);
  add(striped, "storm", "pause", e.storm_pause);
  add(striped, "single-loss", "reconstruct", e.single_reconstruct);
  add(striped, "storm", "reconstruct", e.storm_reconstruct);
  add(Scheme::kVdr, "healthy", "failover", e.vdr_healthy);
  add(Scheme::kVdr, "single-loss", "failover", e.vdr_single);
  add(Scheme::kVdr, "storm", "failover", e.vdr_storm);
  Print(table, csv);
}

void PrintLatent(const paper::LatentScrub& e, bool csv) {
  std::printf("\nE15: latent sector errors, scrub on vs. off (same system, "
              "20 corrupt\ncells injected ~20 min in, reconstruct policy, "
              "parity + 2 spares)\n\n");
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
  add("scrub-off", e.scrub_off);
  add("scrub-on", e.scrub_on);
  add("unverified", e.unverified);
  Print(table, csv);
}

}  // namespace
}  // namespace stagger

int main(int argc, char** argv) {
  using namespace stagger;
  bool csv = false;
  if (!paper::ParseBenchArgs(argc, argv, &csv)) return 2;
  PrintDegradation(paper::Degradation(paper::kSeed), csv);
  PrintLatent(paper::Latent(paper::kSeed), csv);
  return 0;
}
