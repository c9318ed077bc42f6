// perfbench: the end-to-end benchmark driver.
//
//   perfbench gen --workload W --seed N --dir D
//       generates the workload's datasets with src/datasets and writes them
//       as text files under D (untimed, in its own process so its memory
//       does not count toward the run's peak RSS);
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       sets the datasets up from those files, runs the workload, checks
//       every answer and prints one JSON result line.
//
// perfbench/run.py builds this binary and chains the two steps.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return (args->mode == "gen" || args->mode == "run") && !args->dir.empty() &&
         !perfbench::DatasetsFor(args->workload, args->seed).empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench gen|run --workload paper|join|served "
                 "--seed N --dir DIR [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  if (args.mode == "gen") {
    for (const auto& spec : perfbench::DatasetsFor(args.workload, args.seed)) {
      omega::Status s = perfbench::WriteInputs(spec, args.dir);
      if (!s.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    return 0;
  }
  perfbench::Report report;
  omega::Status s;
  if (args.workload == "paper") {
    s = perfbench::RunPaper(args, &report);
  } else if (args.workload == "join") {
    s = perfbench::RunJoin(args, &report);
  } else {
    s = perfbench::RunServed(args, &report);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
