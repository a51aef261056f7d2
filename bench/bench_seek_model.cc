// E11 — the paper's Section 5 future-work question: "How can we avoid
// using the maximum seek and latency times?  We need simulation ...
// results that show how much we can increase our effective bandwidth."
//
// The interval scheduler budgets every activation at the worst case
// (T_switch = max seek + max rotation).  This bench drives the
// event-level disk simulator with three placement policies and compares
// the measured effective bandwidth against the worst-case and
// average-case analytical models, plus the buffer a schedule needs if
// it budgets at the measured mean instead of the worst case.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  const paper::SeekModel e = paper::SeekBudget();
  std::printf("Section 5 future work: effective bandwidth without "
              "worst-case seek budgeting\n(IMPRIMIS Sabre, %d one-cylinder "
              "reads per policy)\n\n",
              e.reads);
  Table table({"placement", "measured_mbps", "gain_vs_worst_case_%",
               "mean_service_ms", "max_service_ms"});
  for (const paper::SeekRow& r : e.rows) {
    table.AddRowValues(r.placement, r.measured_mbps,
                       100.0 * (r.measured_mbps / e.worst_case_mbps - 1.0),
                       r.mean_service_ms, r.max_service_ms);
  }
  table.Print(std::cout);
  std::printf("\nanalytical worst-case (T_switch budget): %.2f mbps\n",
              e.worst_case_mbps);
  std::printf("analytical average-case (avg seek+latency): %.2f mbps\n",
              e.average_case_mbps);
  const double gain = 100.0 * (e.rows[0].measured_mbps / e.worst_case_mbps -
                               1.0);
  std::printf("\nAnswer to the paper's question: budgeting at measured "
              "random-seek cost instead of\nthe worst case frees ~%.1f%% "
              "additional effective bandwidth, at the price of per-read\n"
              "variance that the Equation-1 buffer (one T_switch of data) "
              "absorbs.\n",
              gain);
  return 0;
}
