// E8 — Section 3.2.4: materializing objects from the tertiary store.
// If the tape stores an object sequentially, the layout mismatch with
// the staggered disk order forces a head reposition per burst of
// (B_Tertiary / B_Display) x subobject bytes, wasting device time.
// Recording the tape in delivery order (X0.0 X0.1 X1.0 X1.1 ...)
// removes the repositioning entirely.
//
// Sweeps the reposition penalty and reports materialization time and
// device efficiency for both layouts, using the paper's example
// (B_Display = 80 mbps, B_Tertiary = 40 mbps) and the Table 3 object.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  const paper::TapeLayout e = paper::TertiaryLayout();
  std::printf("Section 3.2.4: tape layout vs materialization cost\n"
              "(object: 3000 subobjects x %.3f MB, tertiary 40 mbps)\n\n",
              e.subobject_mb);
  Table table({"reposition_s", "striped_layout_s", "sequential_layout_s",
               "sequential_efficiency_%", "slowdown_x"});
  for (const paper::TapeLayoutRow& r : e.rows) {
    table.AddRowValues(r.reposition_s, r.striped_s, r.sequential_s,
                       100.0 * r.sequential_efficiency,
                       r.sequential_s / r.striped_s);
  }
  table.Print(std::cout);
  return 0;
}
