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

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  std::printf("Design-choice ablations (1/10-scale Table 3: D=100, 200 "
              "objects, 40 stations,\ngeometric mean 8, 3 h window)\n\n");
  const paper::PolicyAblation e = paper::Ablations(paper::kSeed);
  Table table({"ablation", "variant", "displays_per_hour", "mean_latency_s",
               "hiccups"});
  auto add = [&](const char* ablation, const char* variant,
                 const ExperimentResult& r) {
    table.AddRowValues(ablation, variant, r.displays_per_hour,
                       r.mean_startup_latency_sec, r.hiccups);
  };
  add("admission", "contiguous", e.contiguous);
  add("admission", "algorithm-1", e.algorithm1);
  add("admission", "algorithms-1+2", e.algorithms12);
  add("vdr-replication", "enabled", e.vdr_replication);
  add("vdr-replication", "disabled", e.vdr_no_replication);
  add("start", "cold", e.cold);
  add("start", "warm", e.warm);
  table.Print(std::cout);
  return 0;
}
