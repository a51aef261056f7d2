// E4 — Section 3.1 fragment-size analysis on the IMPRIMIS Sabre 1.2 GB
// drive: cluster service time S(C_i), wasted-bandwidth fraction,
// effective disk bandwidth, minimum buffer memory (Equation 1), and the
// worst-case transfer-initiation delay on a 90-disk / 30-cluster
// system, as a function of fragment size in cylinders.
//
// Paper checkpoints: one cylinder reads in 250 ms; S = 301.83 ms /
// 555.83 ms for 1 / 2 cylinders; 17.2 % / ~10 % wasted bandwidth; ~9 s /
// ~16 s worst-case initiation delay.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  const paper::FragmentSize e = paper::FragmentSizeAnalysis();
  std::printf("Section 3.1 analysis — IMPRIMIS Sabre 1.2 GB "
              "(1635 cyl x 756 kB, tfr = 24.19 mbps)\n");
  std::printf("T_switch = max seek + max latency = %.2f ms, "
              "cylinder read = %.2f ms\n\n",
              e.t_switch_ms, e.cylinder_read_ms);
  Table table({"fragment_cyl", "S(Ci)_ms", "wasted_bw_%", "eff_bw_mbps",
               "min_buffer_kB", "worst_init_delay_s_30cl"});
  for (const paper::FragmentSizeRow& r : e.rows) {
    table.AddRowValues(r.cylinders, r.service_ms, 100.0 * r.wasted_fraction,
                       r.effective_mbps, r.min_buffer_kb, r.worst_delay_s);
  }
  table.Print(std::cout);
  return 0;
}
