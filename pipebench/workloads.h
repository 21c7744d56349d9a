#pragma once

// The pipeline benchmark's three workloads. Each run sets up the seed's 16
// cases (four per scenario), runs its own workload's stage for half of the
// run and each of the other two stages for a quarter, and checks every
// output against the references recorded at set-up.

#include <cstdint>
#include <map>
#include <string>

namespace pipebench {

enum class Workload { kSimulate, kReplay, kServe };

struct Options {
  Workload workload = Workload::kSimulate;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;    ///< scratch traces and the span file go under here
  std::string corpus_dir;  ///< the golden corpus checked at seed 0
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< by catalogue name
  std::string error;                      ///< set when the run could not finish
};

Report run_workload(const Options& opt);

}  // namespace pipebench
