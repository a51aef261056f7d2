// E5 — Section 3.2.2 stride analysis.
//
// Part 1: the collision example — requests for X and Y whose first
// fragments share a disk.  With k = 1 the second request starts within
// a few intervals; with k = D it waits for X's entire display.
//
// Part 2: the D = 100 spread example — a 100-cylinder object (25
// subobjects, M = 4) touches 28 disks with k = 1 and all 100 with
// k = M.
//
// Part 3: data skew — per-disk fragment balance as a function of
// gcd(D, k); relatively prime D and k guarantee no skew.

#include <cstdio>
#include <iostream>

#include "paper/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace stagger;
  if (!paper::ParseBenchArgs(argc, argv, nullptr)) return 2;
  const paper::Stride e = paper::StrideAnalysis();

  std::printf("Part 1: colliding requests (D=10, M=4, X and Y share a "
              "start disk, 50 subobjects)\n\n");
  Table part1({"stride_k", "policy", "Y_wait_s", "X_display_s"});
  for (const paper::CollisionRow& r : e.collisions) {
    part1.AddRowValues(
        static_cast<int64_t>(r.stride),
        r.policy == AdmissionPolicy::kContiguous ? "contiguous" : "fragmented",
        r.y_wait_s, r.x_display_s);
  }
  part1.Print(std::cout);

  std::printf("\nPart 2: disks touched by a 100-cylinder object "
              "(D=100, M=4, 25 subobjects)\n\n");
  Table part2({"stride_k", "unique_disks"});
  for (const paper::SpreadRow& r : e.spread) {
    part2.AddRowValues(static_cast<int64_t>(r.stride),
                       static_cast<int64_t>(r.unique_disks));
  }
  part2.Print(std::cout);

  std::printf("\nPart 3: data skew vs gcd(D, k) — D=10, M=4, 40 "
              "subobjects\n\n");
  Table part3({"stride_k", "gcd(D,k)", "min_frags/disk", "max_frags/disk",
               "skew_free"});
  for (const paper::SkewRow& r : e.skew) {
    part3.AddRowValues(static_cast<int64_t>(r.stride), r.gcd, r.min_fragments,
                       r.max_fragments, r.skew_free ? "yes" : "no");
  }
  part3.Print(std::cout);
  return 0;
}
