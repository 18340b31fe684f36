// perfbench: one benchmark run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// Prints human-readable notes, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics.  Exits 0 only when every
// checked search reproduced its warm-up.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--scratch DIR]\nworkloads:";
  for (const auto& workload : perfbench::workloads()) std::cerr << ' ' << workload.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.scratch = ".bench_build/scratch";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
          return usage("--seed wants a non-negative integer");
        }
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        if (!std::isfinite(options.seconds) || options.seconds < 0.0) {
          return usage("--seconds wants a non-negative number");
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace wants 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--scratch") {
        options.scratch = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
    if (!have_workload) return usage("--workload is required");
    (void)perfbench::workload_named(options.workload);
  } catch (const std::exception& error) {
    return usage(error.what());
  }

  try {
    const perfbench::RunResult result = perfbench::run_benchmark(options, std::cout);
    std::cout << perfbench::result_line(result) << std::endl;
    return result.correct ? EXIT_SUCCESS : EXIT_FAILURE;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return EXIT_FAILURE;
  }
}
