#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.h"

namespace stagger {
namespace {

TEST(FaultPlanTest, EmptyPlanValidates) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.Validate(10).ok());
}

TEST(FaultPlanTest, BuilderAndValidate) {
  FaultPlan plan;
  plan.FailAt(3, SimTime::Seconds(10))
      .RecoverAt(3, SimTime::Seconds(50))
      .StallAt(7, SimTime::Seconds(20), SimTime::Seconds(5));
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_TRUE(plan.Validate(10).ok());
}

TEST(FaultPlanTest, RejectsOutOfRangeDisk) {
  FaultPlan plan;
  plan.FailAt(10, SimTime::Seconds(1));
  EXPECT_TRUE(plan.Validate(10).IsInvalidArgument());
  FaultPlan negative;
  negative.FailAt(-1, SimTime::Seconds(1));
  EXPECT_TRUE(negative.Validate(10).IsInvalidArgument());
}

TEST(FaultPlanTest, RejectsNegativeTimeAndNonPositiveStall) {
  FaultPlan plan;
  plan.FailAt(0, SimTime::Micros(-1));
  EXPECT_FALSE(plan.Validate(4).ok());
  FaultPlan stall;
  stall.StallAt(0, SimTime::Seconds(1), SimTime::Zero());
  EXPECT_FALSE(stall.Validate(4).ok());
}

TEST(FaultPlanTest, RejectsDoubleFailure) {
  FaultPlan plan;
  plan.FailAt(2, SimTime::Seconds(1)).FailAt(2, SimTime::Seconds(2));
  EXPECT_FALSE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, RejectsRecoverOfHealthyDisk) {
  FaultPlan plan;
  plan.RecoverAt(2, SimTime::Seconds(1));
  EXPECT_FALSE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, RejectsStallInsideOutage) {
  FaultPlan plan;
  plan.FailAt(1, SimTime::Seconds(1))
      .StallAt(1, SimTime::Seconds(2), SimTime::Seconds(1))
      .RecoverAt(1, SimTime::Seconds(10));
  EXPECT_FALSE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, RejectsOverlappingStalls) {
  FaultPlan plan;
  plan.StallAt(1, SimTime::Seconds(1), SimTime::Seconds(10))
      .StallAt(1, SimTime::Seconds(5), SimTime::Seconds(1));
  EXPECT_FALSE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, AllowsSequentialEventsOnOneDisk) {
  FaultPlan plan;
  plan.StallAt(1, SimTime::Seconds(1), SimTime::Seconds(2))
      .FailAt(1, SimTime::Seconds(4))
      .RecoverAt(1, SimTime::Seconds(6))
      .StallAt(1, SimTime::Seconds(7), SimTime::Seconds(1));
  EXPECT_TRUE(plan.Validate(4).ok()) << plan.Validate(4);
}

TEST(FaultPlanTest, IndependentDisksDoNotInterfere) {
  FaultPlan plan;
  plan.FailAt(0, SimTime::Seconds(1)).FailAt(1, SimTime::Seconds(1));
  EXPECT_TRUE(plan.Validate(4).ok());
}

TEST(FaultPlanTest, RoundTripsThroughText) {
  FaultPlan plan;
  plan.FailAt(3, SimTime::Seconds(10))
      .RecoverAt(3, SimTime::Seconds(50))
      .StallAt(7, SimTime::Millis(20500), SimTime::Seconds(5));
  const std::string text = plan.ToString();
  auto parsed = FaultPlan::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToString(), text);
  EXPECT_TRUE(parsed->Validate(10).ok());
}

TEST(FaultPlanTest, ParseSkipsCommentsAndBlankLines) {
  auto plan = FaultPlan::Parse(
      "# a failure scenario\n"
      "\n"
      "1000000 fail 2\n"
      "  # indented comment\n"
      "5000000 recover 2\n"
      "2000000 stall 3 250000\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->size(), 3u);
  EXPECT_TRUE(plan->Validate(8).ok());
}

TEST(FaultPlanTest, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultPlan::Parse("once upon a time").ok());
  EXPECT_FALSE(FaultPlan::Parse("1000 explode 3").ok());
  EXPECT_FALSE(FaultPlan::Parse("1000 stall 3").ok());  // missing duration
  EXPECT_FALSE(FaultPlan::Parse("1000 fail 3 extra").ok());
}

TEST(FaultPlanTest, SortedOrdersByTime) {
  FaultPlan plan;
  plan.RecoverAt(0, SimTime::Seconds(9))
      .FailAt(0, SimTime::Seconds(1))
      .StallAt(1, SimTime::Seconds(4), SimTime::Seconds(1));
  const auto sorted = plan.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_LE(sorted[0].at, sorted[1].at);
  EXPECT_LE(sorted[1].at, sorted[2].at);
}

// Failures and stalls only, at fixed per-disk rates: the plan shape the
// fault property test drives the scheduler with.
ChaosParams FailStallParams() {
  ChaosParams params;
  params.horizon = SimTime::Hours(1);
  params.mtbf = SimTime::Hours(4);
  params.mttr = SimTime::Minutes(5);
  params.stall_mtbf = SimTime::Hours(4);
  params.mean_stall = SimTime::Seconds(30);
  return params;
}

TEST(FaultPlanTest, RandomPlansAlwaysValidate) {
  const ChaosParams params = FailStallParams();
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    FaultPlan plan = FaultPlan::Generate(&rng, /*num_disks=*/12, params);
    EXPECT_TRUE(plan.Validate(12).ok())
        << "seed " << seed << ": " << plan.Validate(12) << "\n"
        << plan.ToString();
    for (const FaultEvent& e : plan.events()) {
      EXPECT_TRUE(e.kind == FaultKind::kFail || e.kind == FaultKind::kStall ||
                  e.kind == FaultKind::kRecover)
          << "seed " << seed << ": " << plan.ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Same-instant tie-breaks: deterministic apply order recover < fail <
// stall, with exact duplicates rejected.
// ---------------------------------------------------------------------

TEST(FaultPlanTest, SameInstantRecoverThenFailIsLegal) {
  // A back-to-back outage: the old failure ends and a new one begins at
  // the same timestamp.  The recover applies first regardless of the
  // order the builder saw them.
  FaultPlan plan;
  plan.FailAt(3, SimTime::Seconds(1))
      .FailAt(3, SimTime::Seconds(5))
      .RecoverAt(3, SimTime::Seconds(5))
      .RecoverAt(3, SimTime::Seconds(9));
  EXPECT_TRUE(plan.Validate(8).ok()) << plan.Validate(8);

  const auto sorted = plan.Sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[1].kind, FaultKind::kRecover);
  EXPECT_EQ(sorted[2].kind, FaultKind::kFail);
  EXPECT_EQ(sorted[1].at, sorted[2].at);
}

TEST(FaultPlanTest, SameInstantRecoverThenStallIsLegal) {
  FaultPlan plan;
  plan.FailAt(0, SimTime::Seconds(1))
      .StallAt(0, SimTime::Seconds(4), SimTime::Seconds(2))
      .RecoverAt(0, SimTime::Seconds(4));
  EXPECT_TRUE(plan.Validate(2).ok()) << plan.Validate(2);
}

TEST(FaultPlanTest, RejectsExactDuplicateEvents) {
  FaultPlan fails;
  fails.FailAt(1, SimTime::Seconds(2)).FailAt(1, SimTime::Seconds(2));
  EXPECT_TRUE(fails.Validate(4).IsInvalidArgument());

  FaultPlan recovers;
  recovers.FailAt(1, SimTime::Seconds(1))
      .RecoverAt(1, SimTime::Seconds(2))
      .RecoverAt(1, SimTime::Seconds(2));
  EXPECT_TRUE(recovers.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, SameInstantFailThenStallIsStillInconsistent) {
  // Apply order puts the fail first, so the stall lands on a failed
  // disk — the state machine rejects it like any other overlap.
  FaultPlan plan;
  plan.StallAt(2, SimTime::Seconds(3), SimTime::Seconds(1))
      .FailAt(2, SimTime::Seconds(3));
  EXPECT_TRUE(plan.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, SameInstantTieBreakSurvivesSerialization) {
  FaultPlan plan;
  plan.FailAt(5, SimTime::Seconds(2))
      .RecoverAt(5, SimTime::Seconds(4))
      .FailAt(5, SimTime::Seconds(4));
  auto reparsed = FaultPlan::Parse(plan.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(reparsed->Validate(8).ok());
  EXPECT_EQ(reparsed->ToString(), plan.ToString());
}

// ---------------------------------------------------------------------
// Partial faults and correlated events: degrade, latent, domains.
// ---------------------------------------------------------------------

TEST(FaultPlanTest, DegradeValidates) {
  FaultPlan plan;
  plan.DegradeAt(2, SimTime::Seconds(5), SimTime::Seconds(30), 50);
  EXPECT_TRUE(plan.Validate(8).ok()) << plan.Validate(8);
}

TEST(FaultPlanTest, RejectsDegradePercentOutOfRange) {
  FaultPlan zero;
  zero.DegradeAt(0, SimTime::Seconds(1), SimTime::Seconds(1), 0);
  EXPECT_TRUE(zero.Validate(4).IsInvalidArgument());
  FaultPlan full;
  full.DegradeAt(0, SimTime::Seconds(1), SimTime::Seconds(1), 100);
  EXPECT_TRUE(full.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, RejectsDegradeOverlappingOutage) {
  FaultPlan plan;
  plan.FailAt(1, SimTime::Seconds(1))
      .DegradeAt(1, SimTime::Seconds(2), SimTime::Seconds(1), 50)
      .RecoverAt(1, SimTime::Seconds(10));
  EXPECT_TRUE(plan.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, RejectsOverlappingDegrades) {
  FaultPlan plan;
  plan.DegradeAt(1, SimTime::Seconds(1), SimTime::Seconds(10), 40)
      .DegradeAt(1, SimTime::Seconds(5), SimTime::Seconds(1), 60);
  EXPECT_TRUE(plan.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, LatentIsOrthogonalToHealth) {
  // A latent error inside an outage window is legal: media corruption
  // does not care whether the disk is currently serving.
  FaultPlan plan;
  plan.FailAt(1, SimTime::Seconds(1))
      .LatentAt(1, SimTime::Seconds(2), 10, 12)
      .RecoverAt(1, SimTime::Seconds(5));
  EXPECT_TRUE(plan.Validate(4).ok()) << plan.Validate(4);
}

TEST(FaultPlanTest, RejectsMalformedLatentRange) {
  FaultPlan inverted;
  inverted.LatentAt(0, SimTime::Seconds(1), 5, 3);
  EXPECT_TRUE(inverted.Validate(4).IsInvalidArgument());
  FaultPlan negative;
  negative.LatentAt(0, SimTime::Seconds(1), -1, 3);
  EXPECT_TRUE(negative.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, DomainEventExpandsToEveryMember) {
  FaultPlan plan;
  const int32_t d = plan.AddDomain({0, 1, 2});
  plan.FailDomainAt(d, SimTime::Seconds(2))
      .RecoverDomainAt(d, SimTime::Seconds(8));
  EXPECT_TRUE(plan.Validate(6).ok()) << plan.Validate(6);
  EXPECT_EQ(plan.Sorted().size(), 2u);            // one entry per line
  EXPECT_EQ(plan.ExpandedSorted().size(), 6u);    // one per member
  for (const FaultEvent& e : plan.ExpandedSorted()) {
    EXPECT_EQ(e.domain, -1);  // expansion resolves to single disks
    EXPECT_GE(e.disk, 0);
    EXPECT_LE(e.disk, 2);
  }
}

TEST(FaultPlanTest, RejectsOverlappingDomains) {
  FaultPlan plan;
  plan.AddDomain({0, 1});
  plan.AddDomain({1, 2});
  const int32_t id = 0;
  plan.FailDomainAt(id, SimTime::Seconds(1));
  EXPECT_TRUE(plan.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, RejectsDomainMemberOutOfRange) {
  FaultPlan plan;
  const int32_t d = plan.AddDomain({2, 9});
  plan.StallDomainAt(d, SimTime::Seconds(1), SimTime::Seconds(1));
  EXPECT_TRUE(plan.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, DomainEventConflictsWithMemberEvent) {
  // The domain fail expands to disk 1, which is already failed.
  FaultPlan plan;
  const int32_t d = plan.AddDomain({1, 2});
  plan.FailAt(1, SimTime::Seconds(1)).FailDomainAt(d, SimTime::Seconds(3));
  EXPECT_TRUE(plan.Validate(4).IsInvalidArgument());
}

TEST(FaultPlanTest, NewKindsRoundTripThroughText) {
  FaultPlan plan;
  const int32_t d = plan.AddDomain({4, 5, 6});
  plan.DegradeAt(1, SimTime::Seconds(3), SimTime::Seconds(20), 45)
      .LatentAt(2, SimTime::Seconds(7), 100, 103)
      .DegradeDomainAt(d, SimTime::Seconds(9), SimTime::Seconds(5), 70)
      .StallDomainAt(d, SimTime::Seconds(30), SimTime::Seconds(2));
  const std::string text = plan.ToString();
  auto parsed = FaultPlan::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToString(), text);
  EXPECT_TRUE(parsed->Validate(8).ok()) << parsed->Validate(8);
  ASSERT_EQ(parsed->domains().size(), 1u);
  EXPECT_EQ(parsed->domains()[0], (std::vector<DiskId>{4, 5, 6}));
}

TEST(FaultPlanTest, ParseRejectsMalformedNewKinds) {
  // Missing or non-numeric fields fail at parse time.
  EXPECT_FALSE(FaultPlan::Parse("1000 degrade 3 250000").ok());
  EXPECT_FALSE(FaultPlan::Parse("1000 latent 3 10").ok());
  EXPECT_FALSE(FaultPlan::Parse("1000 degrade 3 250000 fast").ok());
  // Domain declarations: duplicate ids, empty groups, bad members, and
  // latent targeted at a domain all fail at parse time.
  EXPECT_FALSE(FaultPlan::Parse("domain 0 1 2\ndomain 0 3 4\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("domain 0\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("domain 0 1 x\n").ok());
  EXPECT_FALSE(FaultPlan::Parse("domain 0 1 2\n1000 latent @0 1 2\n").ok());
  // Trailing junk on otherwise well-formed lines.
  EXPECT_FALSE(FaultPlan::Parse("1000 degrade 3 250000 50 extra").ok());
  EXPECT_FALSE(FaultPlan::Parse("1000 latent 3 10 12 extra").ok());
  // Out-of-range payloads and undeclared domain references parse (the
  // grammar is satisfied) but fail Validate.
  auto pct = FaultPlan::Parse("1000 degrade 3 250000 0");
  ASSERT_TRUE(pct.ok()) << pct.status();
  EXPECT_TRUE(pct->Validate(8).IsInvalidArgument());
  auto inverted = FaultPlan::Parse("1000 latent 3 12 10");
  ASSERT_TRUE(inverted.ok()) << inverted.status();
  EXPECT_TRUE(inverted->Validate(8).IsInvalidArgument());
  auto undeclared = FaultPlan::Parse("1000 fail @0\n");
  ASSERT_TRUE(undeclared.ok()) << undeclared.status();
  EXPECT_TRUE(undeclared->Validate(8).IsInvalidArgument());
}

TEST(FaultPlanTest, GeneratePlansAlwaysValidateAndRoundTrip) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    ChaosParams params;
    params.horizon = SimTime::Hours(2);
    params.mtbf = SimTime::Hours(20);
    params.mttr = SimTime::Minutes(20);
    params.stall_mtbf = SimTime::Hours(15);
    params.mean_stall = SimTime::Seconds(30);
    params.degrade_mtbf = SimTime::Hours(15);
    params.mean_degrade = SimTime::Minutes(10);
    params.latent_mtbf = SimTime::Hours(10);
    params.subobject_space = 200;
    params.max_latent_run = 3;
    params.num_domains = 3;
    FaultPlan plan = FaultPlan::Generate(&rng, /*num_disks=*/12, params);
    EXPECT_TRUE(plan.Validate(12).ok())
        << "seed " << seed << ": " << plan.Validate(12) << "\n"
        << plan.ToString();
    auto reparsed = FaultPlan::Parse(plan.ToString());
    ASSERT_TRUE(reparsed.ok()) << "seed " << seed << ": " << reparsed.status();
    EXPECT_EQ(reparsed->ToString(), plan.ToString()) << "seed " << seed;
  }
}

TEST(FaultPlanTest, GenerateIsDeterministicPerSeed) {
  ChaosParams params;
  params.horizon = SimTime::Hours(1);
  params.mtbf = SimTime::Hours(10);
  params.mttr = SimTime::Minutes(15);
  params.latent_mtbf = SimTime::Hours(5);
  params.subobject_space = 100;
  params.num_domains = 2;
  Rng a(7);
  Rng b(7);
  EXPECT_EQ(FaultPlan::Generate(&a, 10, params).ToString(),
            FaultPlan::Generate(&b, 10, params).ToString());
}

TEST(FaultPlanTest, RandomIsDeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  const FaultPlan pa = FaultPlan::Generate(&a, 8, FailStallParams());
  const FaultPlan pb = FaultPlan::Generate(&b, 8, FailStallParams());
  EXPECT_EQ(pa.ToString(), pb.ToString());
}

// Each ChaosParams::Validate rule rejects its own violation, starting
// from a valid base; every base-valid plan still generates.
TEST(FaultPlanTest, ChaosParamsValidateRejectsEachBadField) {
  ChaosParams base;
  base.horizon = SimTime::Hours(1);
  base.mtbf = SimTime::Hours(10);
  base.mttr = SimTime::Minutes(15);
  base.stall_mtbf = SimTime::Hours(10);
  base.mean_stall = SimTime::Seconds(30);
  base.degrade_mtbf = SimTime::Hours(10);
  base.mean_degrade = SimTime::Minutes(5);
  base.latent_mtbf = SimTime::Hours(5);
  base.subobject_space = 100;
  base.num_domains = 2;
  constexpr int32_t kDisks = 10;
  ASSERT_TRUE(base.Validate(kDisks).ok()) << base.Validate(kDisks);

  const std::vector<std::pair<const char*, void (*)(ChaosParams*)>> bad = {
      {"zero horizon", [](ChaosParams* p) { p->horizon = SimTime::Zero(); }},
      {"negative horizon",
       [](ChaosParams* p) { p->horizon = SimTime::Hours(-1); }},
      {"negative mtbf", [](ChaosParams* p) { p->mtbf = SimTime::Hours(-3); }},
      {"negative stall mtbf",
       [](ChaosParams* p) { p->stall_mtbf = SimTime::Hours(-3); }},
      {"negative degrade mtbf",
       [](ChaosParams* p) { p->degrade_mtbf = SimTime::Hours(-3); }},
      {"negative latent mtbf",
       [](ChaosParams* p) { p->latent_mtbf = SimTime::Hours(-3); }},
      {"zero mttr", [](ChaosParams* p) { p->mttr = SimTime::Zero(); }},
      {"negative mttr", [](ChaosParams* p) { p->mttr = SimTime::Hours(-1); }},
      {"zero mean stall",
       [](ChaosParams* p) { p->mean_stall = SimTime::Zero(); }},
      {"zero mean degrade",
       [](ChaosParams* p) { p->mean_degrade = SimTime::Zero(); }},
      {"negative domains", [](ChaosParams* p) { p->num_domains = -1; }},
      {"more domains than disks",
       [](ChaosParams* p) { p->num_domains = kDisks + 1; }},
      {"negative domain fraction",
       [](ChaosParams* p) { p->domain_event_fraction = -0.1; }},
      {"domain fraction above 1",
       [](ChaosParams* p) { p->domain_event_fraction = 1.1; }},
      {"min degrade percent 0",
       [](ChaosParams* p) { p->min_degrade_percent = 0; }},
      {"min above max degrade percent",
       [](ChaosParams* p) {
         p->min_degrade_percent = 60;
         p->max_degrade_percent = 50;
       }},
      {"max degrade percent 100",
       [](ChaosParams* p) { p->max_degrade_percent = 100; }},
      {"zero latent run", [](ChaosParams* p) { p->max_latent_run = 0; }},
  };
  for (const auto& [name, mutate] : bad) {
    ChaosParams p = base;
    mutate(&p);
    EXPECT_TRUE(p.Validate(kDisks).IsInvalidArgument()) << name;
  }

  // Boundaries that stay legal: a disabled kind needs no duration, one
  // domain per disk, fractions 0 and 1, equal percents at 1 and 99.
  const std::vector<std::pair<const char*, void (*)(ChaosParams*)>> good = {
      {"fail kind off without mttr",
       [](ChaosParams* p) {
         p->mtbf = SimTime::Zero();
         p->mttr = SimTime::Zero();
       }},
      {"stall kind off without duration",
       [](ChaosParams* p) {
         p->stall_mtbf = SimTime::Zero();
         p->mean_stall = SimTime::Zero();
       }},
      {"degrade kind off without duration",
       [](ChaosParams* p) {
         p->degrade_mtbf = SimTime::Zero();
         p->mean_degrade = SimTime::Zero();
       }},
      {"no domains", [](ChaosParams* p) { p->num_domains = 0; }},
      {"one domain per disk", [](ChaosParams* p) { p->num_domains = kDisks; }},
      {"fraction 0", [](ChaosParams* p) { p->domain_event_fraction = 0.0; }},
      {"fraction 1", [](ChaosParams* p) { p->domain_event_fraction = 1.0; }},
      {"percents 1..1",
       [](ChaosParams* p) {
         p->min_degrade_percent = 1;
         p->max_degrade_percent = 1;
       }},
      {"percents 99..99",
       [](ChaosParams* p) {
         p->min_degrade_percent = 99;
         p->max_degrade_percent = 99;
       }},
  };
  for (const auto& [name, mutate] : good) {
    ChaosParams p = base;
    mutate(&p);
    ASSERT_TRUE(p.Validate(kDisks).ok()) << name << ": " << p.Validate(kDisks);
    Rng rng(3);
    EXPECT_TRUE(FaultPlan::Generate(&rng, kDisks, p).Validate(kDisks).ok())
        << name;
  }
}

}  // namespace
}  // namespace stagger
