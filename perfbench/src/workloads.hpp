#pragma once
// The benchmark's workloads: DGEMM tuning on the simulated gold6148 (one
// socket, technique c+i+o), set up and searched with the library calls
// `rooftune dgemm` makes, plus a traced variant of each search that splits
// its host time by layer (layers.hpp).

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/autotuner.hpp"
#include "core/evaluator.hpp"
#include "core/parallel_evaluator.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "trace/journal.hpp"

namespace perfbench {

/// Deterministic outputs of one workload at seed 2021 (instance 0), as the
/// CLI prints them for the same flags.
struct Expected2021 {
  double sim_search_s = 0.0;
  std::uint64_t invocations = 0;
  double best_gap_pct = 0.0;
};

struct Workload {
  std::string name;
  rooftune::core::SearchStrategy strategy = rooftune::core::SearchStrategy::Racing;
  int grid_scale = 6;
  bool journal = false;     ///< attach a TraceJournal written to a file
  std::uint64_t seed_budget = 64;
  std::uint64_t confirm_top = 16;
  /// Inputs per run: instance j tunes with noise/search seed
  /// instance_seed(seed, j), and timed searches cycle through them.
  std::size_t instances = 1;
  /// Traced runs also race each input on a ParallelEvaluator pool of this
  /// many workers (0: none) and report its scheduler counters.
  std::size_t pool_workers = 0;
  Expected2021 expected;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& workload_named(const std::string& name);

/// Instance 0 is the run's own seed, so `--seed 2021` reproduces the CLI.
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t seed, std::size_t instance);

/// Everything one `rooftune dgemm` invocation builds before it searches:
/// the space (inside the tuner), the machine model, the backend, and the
/// journal.
struct Setup {
  std::unique_ptr<rooftune::core::Autotuner> tuner;
  rooftune::simhw::MachineSpec machine;
  rooftune::simhw::SimOptions sim;
  std::unique_ptr<rooftune::core::Backend> backend;
  std::unique_ptr<rooftune::trace::TraceJournal> journal;
  std::filesystem::path journal_path;
};

/// Build the inputs of instance `seed`; the journal (if any) goes under
/// `scratch`.
[[nodiscard]] Setup set_up(const Workload& workload, std::uint64_t seed,
                           const std::filesystem::path& scratch);

/// One search, exactly as the CLI runs it: Autotuner::run, then the
/// journal's header, summary and flush when one is attached.
[[nodiscard]] rooftune::core::TuningRun search(Setup& setup);

/// The same search with per-layer timing (layers.hpp).  Returns per-layer
/// values for this one search, keyed by per-layer metric name; layers the
/// workload does not exercise are absent.
struct TracedSearch {
  rooftune::core::TuningRun run;
  std::map<std::string, double> layers;
};
[[nodiscard]] TracedSearch traced_search(const Workload& workload, Setup& setup);

/// Whether the flushed journal file reads back with as many records as the
/// journal emitted.  Releases the setup, and with it the writer's buffered
/// records, before reading; throws when the file does not parse.
[[nodiscard]] bool journal_reads_back(Setup&& setup);

/// What a search decided, for comparing two searches bit for bit: the best
/// configuration and value, the cost totals, and a digest over every
/// per-configuration result.
struct Outcome {
  std::string best_config;
  std::uint64_t best_value_bits = 0;
  std::uint64_t invocations = 0;
  std::uint64_t sim_seconds_bits = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};
[[nodiscard]] Outcome outcome_of(const rooftune::core::TuningRun& run);

/// Noiseless DGEMM rate of `config` on the setup's machine
/// (simhw::DgemmSurface::mean_gflops), and its maximum over the space.
[[nodiscard]] double true_gflops(const Setup& setup,
                                 const rooftune::core::Configuration& config);
[[nodiscard]] double true_optimum(const Setup& setup);

}  // namespace perfbench
