#include "fault/fault_plan.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "util/check.h"

namespace stagger {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFail: return "fail";
    case FaultKind::kStall: return "stall";
    case FaultKind::kDegrade: return "degrade";
    case FaultKind::kLatentError: return "latent";
    case FaultKind::kRecover: return "recover";
  }
  return "unknown";
}

FaultPlan& FaultPlan::FailAt(DiskId disk, SimTime at) {
  events_.push_back(FaultEvent{at, FaultKind::kFail, disk, SimTime::Zero()});
  return *this;
}

FaultPlan& FaultPlan::StallAt(DiskId disk, SimTime at, SimTime duration) {
  events_.push_back(FaultEvent{at, FaultKind::kStall, disk, duration});
  return *this;
}

FaultPlan& FaultPlan::DegradeAt(DiskId disk, SimTime at, SimTime duration,
                                int32_t percent) {
  FaultEvent e{at, FaultKind::kDegrade, disk, duration};
  e.percent = percent;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::LatentAt(DiskId disk, SimTime at, int64_t sub_lo,
                               int64_t sub_hi) {
  FaultEvent e{at, FaultKind::kLatentError, disk, SimTime::Zero()};
  e.sub_lo = sub_lo;
  e.sub_hi = sub_hi;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::RecoverAt(DiskId disk, SimTime at) {
  events_.push_back(FaultEvent{at, FaultKind::kRecover, disk, SimTime::Zero()});
  return *this;
}

int32_t FaultPlan::AddDomain(std::vector<DiskId> disks) {
  domains_.push_back(std::move(disks));
  return static_cast<int32_t>(domains_.size()) - 1;
}

namespace {

FaultEvent DomainEvent(SimTime at, FaultKind kind, int32_t domain,
                       SimTime duration) {
  FaultEvent e{at, kind, /*disk=*/0, duration};
  e.domain = domain;
  return e;
}

}  // namespace

FaultPlan& FaultPlan::FailDomainAt(int32_t domain, SimTime at) {
  events_.push_back(DomainEvent(at, FaultKind::kFail, domain, SimTime::Zero()));
  return *this;
}

FaultPlan& FaultPlan::StallDomainAt(int32_t domain, SimTime at,
                                    SimTime duration) {
  events_.push_back(DomainEvent(at, FaultKind::kStall, domain, duration));
  return *this;
}

FaultPlan& FaultPlan::DegradeDomainAt(int32_t domain, SimTime at,
                                      SimTime duration, int32_t percent) {
  FaultEvent e = DomainEvent(at, FaultKind::kDegrade, domain, duration);
  e.percent = percent;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::RecoverDomainAt(int32_t domain, SimTime at) {
  events_.push_back(
      DomainEvent(at, FaultKind::kRecover, domain, SimTime::Zero()));
  return *this;
}

namespace {

/// Apply rank for events sharing a disk and an instant: a recover ends
/// the old outage before a new fail or stall opens the next one, so a
/// back-to-back `recover` + `fail` pair at the same timestamp replays
/// deterministically.
int ApplyRank(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRecover: return 0;
    case FaultKind::kFail: return 1;
    case FaultKind::kStall: return 2;
    case FaultKind::kDegrade: return 3;
    case FaultKind::kLatentError: return 4;
  }
  return 5;
}

/// Sort key placing group targets after every single-disk target, so
/// serialization order is stable no matter how the plan was built.
int64_t TargetRank(const FaultEvent& e) {
  return e.domain >= 0 ? 1'000'000'000 + static_cast<int64_t>(e.domain)
                       : static_cast<int64_t>(e.disk);
}

void SortEvents(std::vector<FaultEvent>* events) {
  std::stable_sort(events->begin(), events->end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     const int64_t ta = TargetRank(a);
                     const int64_t tb = TargetRank(b);
                     if (ta != tb) return ta < tb;
                     return ApplyRank(a.kind) < ApplyRank(b.kind);
                   });
}

}  // namespace

std::vector<FaultEvent> FaultPlan::Sorted() const {
  std::vector<FaultEvent> sorted = events_;
  SortEvents(&sorted);
  return sorted;
}

std::vector<FaultEvent> FaultPlan::ExpandedSorted() const {
  std::vector<FaultEvent> expanded;
  expanded.reserve(events_.size());
  for (const FaultEvent& e : events_) {
    if (e.domain < 0) {
      expanded.push_back(e);
      continue;
    }
    STAGGER_CHECK(e.domain < static_cast<int32_t>(domains_.size()))
        << "fault event targets undeclared domain " << e.domain;
    for (const DiskId member : domains_[static_cast<size_t>(e.domain)]) {
      FaultEvent single = e;
      single.disk = member;
      single.domain = -1;
      expanded.push_back(single);
    }
  }
  SortEvents(&expanded);
  return expanded;
}

Status FaultPlan::Validate(int32_t num_disks) const {
  // Domains first: disjoint, non-empty, members in range — expansion
  // below depends on them being well-formed.
  std::set<DiskId> domain_members;
  for (size_t d = 0; d < domains_.size(); ++d) {
    const std::string who = "failure domain " + std::to_string(d);
    if (domains_[d].empty()) {
      return Status::InvalidArgument(who + " is empty");
    }
    for (const DiskId disk : domains_[d]) {
      if (disk < 0 || disk >= num_disks) {
        return Status::InvalidArgument(
            who + " contains nonexistent disk " + std::to_string(disk));
      }
      if (!domain_members.insert(disk).second) {
        return Status::InvalidArgument(
            who + " overlaps another domain at disk " + std::to_string(disk));
      }
    }
  }
  for (const FaultEvent& e : events_) {
    if (e.domain >= 0) {
      if (e.domain >= static_cast<int32_t>(domains_.size())) {
        return Status::InvalidArgument(
            "fault event targets undeclared domain " + std::to_string(e.domain));
      }
      if (e.kind == FaultKind::kLatentError) {
        return Status::InvalidArgument(
            "latent errors are media-local and cannot target a domain");
      }
    }
  }

  // Per-disk sweep over the time-sorted expanded events, replaying the
  // health machine each event would drive.  `transient_until` tracks
  // the open stall's or degrade's implicit recovery.
  std::map<DiskId, std::vector<FaultEvent>> per_disk;
  for (const FaultEvent& e : ExpandedSorted()) {
    if (e.disk < 0 || e.disk >= num_disks) {
      return Status::InvalidArgument(
          "fault event targets nonexistent disk " + std::to_string(e.disk));
    }
    if (e.at < SimTime::Zero()) {
      return Status::InvalidArgument("fault event time must be >= 0");
    }
    if ((e.kind == FaultKind::kStall || e.kind == FaultKind::kDegrade) &&
        e.duration <= SimTime::Zero()) {
      return Status::InvalidArgument(std::string(FaultKindName(e.kind)) +
                                     " duration must be positive");
    }
    if (e.kind == FaultKind::kDegrade && (e.percent < 1 || e.percent > 99)) {
      return Status::InvalidArgument(
          "degrade percent " + std::to_string(e.percent) + " outside [1, 99]");
    }
    if (e.kind == FaultKind::kLatentError &&
        (e.sub_lo < 0 || e.sub_hi < e.sub_lo)) {
      return Status::InvalidArgument(
          "latent error range [" + std::to_string(e.sub_lo) + ", " +
          std::to_string(e.sub_hi) + "] is invalid");
    }
    per_disk[e.disk].push_back(e);
  }

  for (auto& [disk, seq] : per_disk) {
    // ExpandedSorted already ordered the whole list; each per-disk
    // subsequence inherits the (time, apply rank) replay order.
    const std::string who = "disk " + std::to_string(disk);
    DiskHealth state = DiskHealth::kHealthy;
    SimTime transient_until = SimTime::Zero();
    SimTime last_at = SimTime(-1);
    FaultKind last_kind = FaultKind::kFail;
    bool have_last = false;
    for (const FaultEvent& e : seq) {
      // Exact duplicates are meaningless and rejected outright; distinct
      // kinds at one instant replay in apply-rank order, so a same-time
      // `recover` + `fail` pair is a legal back-to-back outage.
      if (have_last && e.at == last_at && e.kind == last_kind) {
        return Status::InvalidArgument(
            who + " has a duplicate " + FaultKindName(e.kind) +
            " event at " + e.at.ToString());
      }
      last_at = e.at;
      last_kind = e.kind;
      have_last = true;
      if ((state == DiskHealth::kStalled || state == DiskHealth::kDegraded) &&
          e.at >= transient_until) {
        state = DiskHealth::kHealthy;  // implicit stall/degrade recovery
      }
      switch (e.kind) {
        case FaultKind::kFail:
          if (state != DiskHealth::kHealthy) {
            return Status::InvalidArgument(
                who + " fails at " + e.at.ToString() +
                " while already failed, stalled, or degraded");
          }
          state = DiskHealth::kFailed;
          break;
        case FaultKind::kStall:
          if (state != DiskHealth::kHealthy) {
            return Status::InvalidArgument(
                who + " stalls at " + e.at.ToString() +
                " while already failed, stalled, or degraded");
          }
          state = DiskHealth::kStalled;
          transient_until = e.at + e.duration;
          break;
        case FaultKind::kDegrade:
          if (state != DiskHealth::kHealthy) {
            return Status::InvalidArgument(
                who + " degrades at " + e.at.ToString() +
                " while already failed, stalled, or degraded");
          }
          state = DiskHealth::kDegraded;
          transient_until = e.at + e.duration;
          break;
        case FaultKind::kLatentError:
          // Orthogonal to health: corrupt media is legal in any state
          // and drives no transition.
          break;
        case FaultKind::kRecover:
          if (state != DiskHealth::kFailed) {
            return Status::InvalidArgument(
                who + " recovers at " + e.at.ToString() +
                " but has no open failure (stalls and degrades recover "
                "implicitly)");
          }
          state = DiskHealth::kHealthy;
          break;
      }
    }
  }
  return Status::OK();
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  for (size_t d = 0; d < domains_.size(); ++d) {
    os << "domain " << d;
    for (const DiskId disk : domains_[d]) os << " " << disk;
    os << "\n";
  }
  for (const FaultEvent& e : Sorted()) {
    os << e.at.micros() << " " << FaultKindName(e.kind) << " ";
    if (e.domain >= 0) {
      os << "@" << e.domain;
    } else {
      os << e.disk;
    }
    switch (e.kind) {
      case FaultKind::kStall:
        os << " " << e.duration.micros();
        break;
      case FaultKind::kDegrade:
        os << " " << e.duration.micros() << " " << e.percent;
        break;
      case FaultKind::kLatentError:
        os << " " << e.sub_lo << " " << e.sub_hi;
        break;
      case FaultKind::kFail:
      case FaultKind::kRecover:
        break;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

/// Whole-token base-10 integer parse; rejects partial parses ("12x"),
/// empty tokens, and out-of-range values.
bool ParseInt(const std::string& token, int64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  *out = value;
  return true;
}

/// Parses an event target: a bare disk id, or `@<domain>`.
bool ParseTarget(const std::string& token, DiskId* disk, int32_t* domain) {
  int64_t value = 0;
  if (!token.empty() && token[0] == '@') {
    if (!ParseInt(token.substr(1), &value) || value < 0) return false;
    *domain = static_cast<int32_t>(value);
    return true;
  }
  if (!ParseInt(token, &value)) return false;
  *disk = static_cast<DiskId>(value);
  *domain = -1;
  return true;
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string where = "fault plan line " + std::to_string(line_no);
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // blank or comment-only line
    }
    std::istringstream ls(line);
    std::string first;
    ls >> first;
    if (first == "domain") {
      // domain <id> <disk> <disk> ...  Ids must appear in declaration
      // order so `@<id>` references are unambiguous.
      std::string token;
      int64_t id = -1;
      if (!(ls >> token) || !ParseInt(token, &id) ||
          id != static_cast<int64_t>(plan.domains_.size())) {
        return Status::InvalidArgument(
            where + ": domain declarations must be numbered 0, 1, ... in order");
      }
      std::vector<DiskId> members;
      while (ls >> token) {
        int64_t disk = 0;
        if (!ParseInt(token, &disk)) {
          return Status::InvalidArgument(where + ": bad domain member '" +
                                         token + "'");
        }
        members.push_back(static_cast<DiskId>(disk));
      }
      if (members.empty()) {
        return Status::InvalidArgument(where + ": domain has no members");
      }
      plan.AddDomain(std::move(members));
      continue;
    }
    int64_t micros = 0;
    std::string kind;
    std::string target;
    if (!ParseInt(first, &micros) || !(ls >> kind >> target)) {
      return Status::InvalidArgument(where + " is malformed");
    }
    DiskId disk = 0;
    int32_t domain = -1;
    if (!ParseTarget(target, &disk, &domain)) {
      return Status::InvalidArgument(where + ": bad target '" + target + "'");
    }
    const SimTime at = SimTime::Micros(micros);
    if (kind == "fail") {
      if (domain >= 0) {
        plan.FailDomainAt(domain, at);
      } else {
        plan.FailAt(disk, at);
      }
    } else if (kind == "recover") {
      if (domain >= 0) {
        plan.RecoverDomainAt(domain, at);
      } else {
        plan.RecoverAt(disk, at);
      }
    } else if (kind == "stall") {
      std::string token;
      int64_t duration = 0;
      if (!(ls >> token) || !ParseInt(token, &duration)) {
        return Status::InvalidArgument("stall on line " +
                                       std::to_string(line_no) +
                                       " is missing its duration");
      }
      if (domain >= 0) {
        plan.StallDomainAt(domain, at, SimTime::Micros(duration));
      } else {
        plan.StallAt(disk, at, SimTime::Micros(duration));
      }
    } else if (kind == "degrade") {
      std::string dur_token;
      std::string pct_token;
      int64_t duration = 0;
      int64_t percent = 0;
      if (!(ls >> dur_token >> pct_token) || !ParseInt(dur_token, &duration) ||
          !ParseInt(pct_token, &percent)) {
        return Status::InvalidArgument(
            "degrade on line " + std::to_string(line_no) +
            " needs <duration_micros> <percent>");
      }
      if (domain >= 0) {
        plan.DegradeDomainAt(domain, at, SimTime::Micros(duration),
                             static_cast<int32_t>(percent));
      } else {
        plan.DegradeAt(disk, at, SimTime::Micros(duration),
                       static_cast<int32_t>(percent));
      }
    } else if (kind == "latent") {
      std::string lo_token;
      std::string hi_token;
      int64_t sub_lo = 0;
      int64_t sub_hi = 0;
      if (!(ls >> lo_token >> hi_token) || !ParseInt(lo_token, &sub_lo) ||
          !ParseInt(hi_token, &sub_hi)) {
        return Status::InvalidArgument("latent on line " +
                                       std::to_string(line_no) +
                                       " needs <sub_lo> <sub_hi>");
      }
      if (domain >= 0) {
        return Status::InvalidArgument(
            where + ": latent errors cannot target a domain");
      }
      plan.LatentAt(disk, at, sub_lo, sub_hi);
    } else {
      return Status::InvalidArgument("unknown fault kind '" + kind +
                                     "' on line " + std::to_string(line_no));
    }
    std::string extra;
    if (ls >> extra) {
      return Status::InvalidArgument("trailing garbage '" + extra +
                                     "' on line " + std::to_string(line_no));
    }
  }
  return plan;
}

namespace {

/// True when [start, end] touches no committed window.  Closed-interval
/// comparison: a recover and the next fault *may* legally share an
/// instant (the recover applies first), but Generate keeps windows fully
/// disjoint so every generated plan is unambiguous to read.
bool WindowIsFree(const std::vector<std::pair<SimTime, SimTime>>& windows,
                  SimTime start, SimTime end) {
  for (const auto& [s, e] : windows) {
    if (start <= e && s <= end) return false;
  }
  return true;
}

}  // namespace

Status ChaosParams::Validate(int32_t num_disks) const {
  if (horizon <= SimTime::Zero()) {
    return Status::InvalidArgument("chaos horizon must be positive");
  }
  if (mtbf < SimTime::Zero() || stall_mtbf < SimTime::Zero() ||
      degrade_mtbf < SimTime::Zero() || latent_mtbf < SimTime::Zero()) {
    return Status::InvalidArgument("chaos mtbf must be >= 0 (0 = off)");
  }
  if ((mtbf > SimTime::Zero() && mttr <= SimTime::Zero()) ||
      (stall_mtbf > SimTime::Zero() && mean_stall <= SimTime::Zero()) ||
      (degrade_mtbf > SimTime::Zero() && mean_degrade <= SimTime::Zero())) {
    return Status::InvalidArgument(
        "every enabled chaos fault kind needs a positive mean duration");
  }
  if (num_domains < 0 || num_domains > num_disks) {
    return Status::InvalidArgument("chaos domains must be in [0, " +
                                   std::to_string(num_disks) + "]");
  }
  if (!(domain_event_fraction >= 0.0 && domain_event_fraction <= 1.0)) {
    return Status::InvalidArgument("domain event fraction must be in [0, 1]");
  }
  if (min_degrade_percent < 1 || min_degrade_percent > max_degrade_percent ||
      max_degrade_percent > 99) {
    return Status::InvalidArgument(
        "degrade percents need 1 <= min <= max <= 99");
  }
  if (max_latent_run < 1) {
    return Status::InvalidArgument("max latent run must be >= 1");
  }
  return Status::OK();
}

FaultPlan FaultPlan::Generate(Rng* rng, int32_t num_disks,
                              const ChaosParams& params) {
  STAGGER_CHECK(num_disks >= 1);
  STAGGER_CHECK(params.horizon > SimTime::Zero());
  STAGGER_CHECK(params.num_domains >= 0 && params.num_domains <= num_disks);
  FaultPlan plan;

  // Contiguous enclosures: domain d owns disks [d*D/n, (d+1)*D/n).
  if (params.num_domains > 0) {
    for (int32_t d = 0; d < params.num_domains; ++d) {
      const int32_t lo = static_cast<int32_t>(
          static_cast<int64_t>(d) * num_disks / params.num_domains);
      const int32_t hi = static_cast<int32_t>(
          static_cast<int64_t>(d + 1) * num_disks / params.num_domains);
      std::vector<DiskId> members;
      for (int32_t disk = lo; disk < hi; ++disk) members.push_back(disk);
      plan.AddDomain(std::move(members));
    }
  }

  // Per-disk unavailability windows already committed; group events
  // must clear (and then occupy) the window of every member.
  std::map<DiskId, std::vector<std::pair<SimTime, SimTime>>> windows;

  // Expected event count at a per-disk MTBF over the horizon, with the
  // fractional part resolved by one Bernoulli draw so thin rates still
  // fire sometimes.
  auto count_for = [&](SimTime mtbf) -> int64_t {
    if (mtbf <= SimTime::Zero()) return 0;
    const double expected = static_cast<double>(num_disks) *
                            static_cast<double>(params.horizon.micros()) /
                            static_cast<double>(mtbf.micros());
    auto n = static_cast<int64_t>(expected);
    if (rng->NextDouble() < expected - static_cast<double>(n)) ++n;
    return n;
  };

  // One whole-disk or whole-domain unavailability window.  Group
  // targets fire with probability domain_event_fraction; a draw whose
  // window collides on any member is re-drawn, bounded, then dropped.
  auto draw_window = [&](SimTime mean_duration, FaultKind kind,
                         int32_t percent) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const bool group = params.num_domains > 0 &&
                         rng->NextDouble() < params.domain_event_fraction;
      std::vector<DiskId> targets;
      int32_t domain = -1;
      if (group) {
        domain = static_cast<int32_t>(
            rng->NextBounded(static_cast<uint64_t>(params.num_domains)));
        targets = plan.domains()[static_cast<size_t>(domain)];
      } else {
        targets.push_back(static_cast<DiskId>(
            rng->NextBounded(static_cast<uint64_t>(num_disks))));
      }
      const SimTime start =
          SimTime::Micros(rng->NextInRange(0, params.horizon.micros() - 1));
      const SimTime duration = SimTime::Micros(std::max<int64_t>(
          1, static_cast<int64_t>(rng->NextExponential(
                 static_cast<double>(mean_duration.micros())))));
      const SimTime end = start + duration;
      bool free = true;
      for (const DiskId disk : targets) {
        if (!WindowIsFree(windows[disk], start, end)) {
          free = false;
          break;
        }
      }
      if (!free) continue;
      for (const DiskId disk : targets) windows[disk].emplace_back(start, end);
      switch (kind) {
        case FaultKind::kFail:
          if (domain >= 0) {
            plan.FailDomainAt(domain, start);
            plan.RecoverDomainAt(domain, end);
          } else {
            plan.FailAt(targets[0], start);
            plan.RecoverAt(targets[0], end);
          }
          break;
        case FaultKind::kStall:
          if (domain >= 0) {
            plan.StallDomainAt(domain, start, duration);
          } else {
            plan.StallAt(targets[0], start, duration);
          }
          break;
        case FaultKind::kDegrade:
          if (domain >= 0) {
            plan.DegradeDomainAt(domain, start, duration, percent);
          } else {
            plan.DegradeAt(targets[0], start, duration, percent);
          }
          break;
        case FaultKind::kLatentError:
        case FaultKind::kRecover:
          STAGGER_CHECK(false) << "not a window kind";
      }
      return;
    }
  };

  // Deterministic generation order: failures, stalls, degrades, latents.
  const int64_t failures = count_for(params.mtbf);
  for (int64_t i = 0; i < failures; ++i) {
    draw_window(params.mttr, FaultKind::kFail, 0);
  }
  const int64_t stalls = count_for(params.stall_mtbf);
  for (int64_t i = 0; i < stalls; ++i) {
    draw_window(params.mean_stall, FaultKind::kStall, 0);
  }
  const int64_t degrades = count_for(params.degrade_mtbf);
  for (int64_t i = 0; i < degrades; ++i) {
    const auto percent = static_cast<int32_t>(rng->NextInRange(
        params.min_degrade_percent, params.max_degrade_percent));
    draw_window(params.mean_degrade, FaultKind::kDegrade, percent);
  }

  // Latent errors are health-orthogonal, so they need no window; only
  // exact (disk, instant) duplicates must be avoided.
  const int64_t latents =
      params.subobject_space > 0 ? count_for(params.latent_mtbf) : 0;
  std::set<std::pair<DiskId, int64_t>> latent_at;
  for (int64_t i = 0; i < latents; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto disk = static_cast<DiskId>(
          rng->NextBounded(static_cast<uint64_t>(num_disks)));
      const int64_t at = rng->NextInRange(0, params.horizon.micros() - 1);
      if (!latent_at.insert({disk, at}).second) continue;
      const int64_t run = rng->NextInRange(
          1, std::min(params.max_latent_run, params.subobject_space));
      const int64_t lo = rng->NextInRange(0, params.subobject_space - run);
      plan.LatentAt(disk, SimTime::Micros(at), lo, lo + run - 1);
      break;
    }
  }
  return plan;
}

}  // namespace stagger
