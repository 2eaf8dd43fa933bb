// profile_diff — the hwgc-profile-v1 regression comparator.
//
// Usage:
//   profile_diff BASELINE CURRENT [--tolerance=F]
//
// Validates both files (schema identities + file-level span checks), then
// pairs their attribution records by (suite, source, shard) and exits
// nonzero when
//   * either file fails validation,
//   * a record is missing from or extra in CURRENT,
//   * a record's binding resource changed, or
//   * any stall class's share of core_cycles moved more than the
//     tolerance (absolute; default 0.05, i.e. five share points).
//
// CI's profile-smoke job runs this against the committed BENCH_profile.json
// snapshot so an attribution shift — a new stall class eating cycles, a
// binding-resource flip — fails the build instead of rotting silently.
#include <cstdio>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "profile/profile_metrics.hpp"

int main(int argc, char** argv) {
  using namespace hwgc;
  double tolerance = 0.05;
  std::vector<std::string> files(2);
  cli::Parser p("profile_diff", "BASELINE CURRENT [--tolerance=F]");
  p.positional("BASELINE", files[0], "reference hwgc-profile-v1 file", true)
      .positional("CURRENT", files[1], "file compared against it", true)
      .value("--tolerance F", tolerance,
             "max absolute share drift per stall class\n"
             "(default 0.05)",
             cli::range(0.0, 1.0));
  p.parse(argc, argv);
  bool ok = true;
  for (const std::string& path : files) {
    std::vector<std::string> errors;
    if (validate_profile_jsonl_file(path, &errors)) {
      std::printf("%s: valid hwgc-profile-v1\n", path.c_str());
    } else {
      ok = false;
      for (const std::string& e : errors) {
        std::fprintf(stderr, "  %s\n", e.c_str());
      }
      std::printf("%s: INVALID\n", path.c_str());
    }
  }

  std::vector<std::string> drift;
  if (ok && !compare_profile_baselines(files[0], files[1], tolerance, &drift)) {
    ok = false;
    for (const std::string& e : drift) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
  }
  std::printf("attribution drift vs %s (tolerance %.3f): %s\n",
              files[0].c_str(), tolerance, ok ? "none" : "DETECTED");
  return ok ? 0 : 1;
}
