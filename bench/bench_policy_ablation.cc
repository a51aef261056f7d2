// E12 — ablations of the design choices DESIGN.md calls out, on a
// 1/10-scale Table 3 system (100 disks, 200 objects, ~2-minute
// displays, 40 stations, skewed access):
//
//   * admission policy: contiguous vs Algorithm 1 vs Algorithms 1+2;
//   * VDR dynamic replication: on vs off;
//   * warm start: preloaded residency vs cold disks.
//
// Each row reports throughput, startup latency, and (where relevant)
// buffering — the quantities each mechanism trades.

#include <cstdio>
#include <iostream>

#include "server/experiment.h"
#include "util/table.h"

namespace stagger {
namespace {

ExperimentConfig Base() {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kSimpleStriping;
  cfg.num_disks = 100;
  cfg.num_objects = 200;
  cfg.subobjects_per_object = 200;  // ~121 s displays
  cfg.preload_objects = 30;         // farm capacity: 100*3000/1000 = 300
  cfg.stations = 40;
  cfg.geometric_mean = 8.0;
  cfg.warmup = SimTime::Minutes(30);
  cfg.measure = SimTime::Hours(3);
  return cfg;
}

int Run() {
  Table table({"ablation", "variant", "displays_per_hour", "mean_latency_s",
               "hiccups"});
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("[%s] %s\n", ok ? "OK  " : "FAIL", what);
    if (!ok) ++failures;
  };
  auto run = [&](const char* ablation, const char* variant,
                 const ExperimentConfig& cfg) {
    auto result = RunExperiment(cfg);
    STAGGER_CHECK(result.ok()) << result.status();
    table.AddRowValues(ablation, variant, result->displays_per_hour,
                       result->mean_startup_latency_sec, result->hiccups);
    return *result;
  };

  std::printf("Design-choice ablations (1/10-scale Table 3: D=100, 200 "
              "objects, 40 stations,\ngeometric mean 8, 3 h window)\n\n");

  // Admission policy.
  ExperimentConfig cfg = Base();
  auto contiguous = run("admission", "contiguous", cfg);
  cfg.policy = AdmissionPolicy::kFragmented;
  auto fragmented = run("admission", "algorithm-1", cfg);
  cfg.coalesce = true;
  auto coalesced = run("admission", "algorithms-1+2", cfg);

  // Replication (VDR).
  cfg = Base();
  cfg.scheme = Scheme::kVdr;
  auto vdr_repl = run("vdr-replication", "enabled", cfg);
  cfg.enable_replication = false;
  auto vdr_norepl = run("vdr-replication", "disabled", cfg);

  // Warm vs cold start.
  cfg = Base();
  cfg.preload_objects = 0;
  cfg.warmup = SimTime::Hours(3);  // give the cold farm time to fill
  cfg.measure = SimTime::Hours(3);
  auto cold = run("start", "cold", cfg);
  cfg = Base();
  auto warm = run("start", "warm", cfg);

  table.Print(std::cout);
  std::printf("\n");

  expect(contiguous.hiccups == 0 && fragmented.hiccups == 0 &&
             coalesced.hiccups == 0,
         "all admission variants hiccup-free");
  // At k = M saturation the idle disks are always adjacent cluster
  // slots, so Algorithm 1 has no fragmentation to fix; its eager
  // reservation (claiming disks up to `lookahead` intervals before they
  // align) costs a small latency premium here.  Its payoff is the
  // time-fragmented regime measured in bench_coalescing.
  expect(fragmented.mean_startup_latency_sec <=
             contiguous.mean_startup_latency_sec * 1.25,
         "Algorithm 1's eager-reservation premium stays below 25%");
  expect(vdr_repl.displays_per_hour >= vdr_norepl.displays_per_hour,
         "dynamic replication helps the VDR baseline under skew");
  expect(warm.displays_per_hour >= cold.displays_per_hour * 0.95,
         "warm start reaches at least the cold steady state");
  std::printf("\n%s\n", failures == 0 ? "All ablation checks passed."
                                      : "Some ablation checks FAILED.");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stagger

int main() { return stagger::Run(); }
