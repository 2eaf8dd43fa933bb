#include "profile/critical_path.hpp"

#include <array>
#include <cstdio>

namespace hwgc {

namespace {

std::string fmt_pct(double share) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", share * 100.0);
  return buf;
}

}  // namespace

std::string CriticalPathReport::summary() const {
  if (!valid) return "unprofiled (sequential fallback)";
  std::string s = "bound by " + std::string(to_string(binding)) + " (" +
                  fmt_pct(binding_share) + " of " +
                  std::to_string(total_cycles) + " cycles)";
  if (longest_run.length > 0) {
    s += ", longest run " + std::to_string(longest_run.length) + " cycles (" +
         std::string(to_string(longest_run.binding)) + ") @ " +
         std::to_string(longest_run.begin);
  }
  s += ", " + std::to_string(chain_length) + " path segment(s)";
  return s;
}

CriticalPathReport critical_path(const CycleProfile& profile) {
  CriticalPathReport r;
  r.valid = profile.valid;
  r.total_cycles = profile.total_cycles;
  if (!profile.valid) return r;
  r.binding = profile.binding();
  r.binding_share = profile.binding_share();
  r.chain_length = profile.segments.size();
  for (const auto& seg : profile.segments) {
    if (seg.length > r.longest_run.length) r.longest_run = seg;
  }
  return r;
}

bool validate_cycle_profile(const CycleProfile& profile, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!profile.valid) {
    if (profile.total_cycles != 0 || !profile.segments.empty()) {
      return fail("invalid profile carries cycle data");
    }
    return true;
  }
  if (profile.per_core.size() != profile.cores) {
    return fail("per_core size does not match core count");
  }
  for (std::size_t c = 0; c < profile.per_core.size(); ++c) {
    Cycle sum = 0;
    for (Cycle v : profile.per_core[c]) sum += v;
    if (sum != profile.total_cycles) {
      return fail("core " + std::to_string(c) + " class totals sum to " +
                  std::to_string(sum) + ", expected " +
                  std::to_string(profile.total_cycles));
    }
  }
  Cycle crit_sum = 0;
  for (Cycle v : profile.critical) crit_sum += v;
  if (crit_sum != profile.total_cycles) {
    return fail("critical totals sum to " + std::to_string(crit_sum) +
                ", expected " + std::to_string(profile.total_cycles));
  }
  Cycle at = 0;
  CycleProfile::ClassTotals from_segments{};
  for (std::size_t i = 0; i < profile.segments.size(); ++i) {
    const auto& seg = profile.segments[i];
    if (seg.begin != at) {
      return fail("segment " + std::to_string(i) + " begins at " +
                  std::to_string(seg.begin) + ", expected " +
                  std::to_string(at));
    }
    if (seg.length == 0) {
      return fail("segment " + std::to_string(i) + " has zero length");
    }
    if (i > 0 && profile.segments[i - 1].binding == seg.binding) {
      return fail("segments " + std::to_string(i - 1) + " and " +
                  std::to_string(i) + " are not maximal (same binding)");
    }
    from_segments[static_cast<std::size_t>(seg.binding)] += seg.length;
    at += seg.length;
  }
  if (at != profile.total_cycles) {
    return fail("segments tile " + std::to_string(at) + " cycles, expected " +
                std::to_string(profile.total_cycles));
  }
  if (from_segments != profile.critical) {
    return fail("segment lengths do not reproduce the critical totals");
  }
  return true;
}

void annotate_critical_path(SignalTrace& trace, const CycleProfile& profile) {
  if (!profile.valid) return;
  std::array<std::string, kStallClassCount> prefixes;
  for (std::size_t c = 0; c < kStallClassCount; ++c) {
    prefixes[c] =
        "crit: " + std::string(to_string(static_cast<StallClass>(c))) + " x";
  }
  for (const auto& seg : profile.segments) {
    trace.note(seg.begin, prefixes[static_cast<std::size_t>(seg.binding)],
               seg.length);
  }
}

}  // namespace hwgc
