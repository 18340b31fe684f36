#pragma once
// One benchmark run: build the inputs, warm up, repeat set-up -> search
// for the requested time at a fixed seed, check every result, and reduce
// the samples to the metrics BENCHMARK.json names.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed without --trace: what a user of the tuner sees.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed with --trace: per-layer attribution from the traced searches.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path scratch;  ///< journal files; created if missing
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< in schema order
};

/// Run one workload; progress and human-readable notes go to `log`.
[[nodiscard]] RunResult run_benchmark(const RunOptions& options, std::ostream& log);

/// The last line the benchmark prints: one JSON object with the keys
/// correct, attempted, failed and metrics.
[[nodiscard]] std::string result_line(const RunResult& result);

/// Median of `samples` (mean of the middle two for an even count).
[[nodiscard]] double median(std::vector<double> samples);

/// Samples tail() needs; a run makes at least this many timed searches
/// even when `seconds` runs out first.
constexpr std::size_t kMinTailSamples = 11;

/// Highest percentile of `samples` with at least 10 samples above it:
/// the 11th-largest sample, reported as percentile 100 * (n - 10) / n.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
[[nodiscard]] Tail tail(std::vector<double> samples);

}  // namespace perfbench
