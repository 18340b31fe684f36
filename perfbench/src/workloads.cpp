#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "layers.hpp"
#include "simhw/dgemm_model.hpp"
#include "trace/reader.hpp"

namespace perfbench {

namespace core = rooftune::core;
namespace simhw = rooftune::simhw;
namespace trace = rooftune::trace;

namespace {

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// `--workers W --sched-stats`: the pipeline pool at lookahead 1, with the
/// scheduler counters collected.  Races the setup's input and reports the
/// pool and commit-stage counters as the core.parallel layer; the result
/// must match the serial search's `expected`.
void add_pool_layer(std::map<std::string, double>& layers, const Setup& setup,
                    std::size_t workers, const Outcome& expected) {
  core::ParallelOptions parallel;
  parallel.workers = workers;
  parallel.deterministic = true;  // the only schedule the CLI exposes
  parallel.scheduler = core::SchedulerMode::Pipeline;
  parallel.lookahead = 1;
  parallel.sched_stats = true;
  auto factory = [machine = setup.machine,
                  sim = setup.sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimDgemmBackend>(machine, sim);
  };
  const core::TuningRun run =
      core::ParallelEvaluator(factory, setup.tuner->options(), parallel)
          .run(setup.tuner->space());
  if (outcome_of(run) != expected) {
    throw std::runtime_error("the " + std::to_string(workers) +
                             "-worker search differs from the serial one");
  }
  if (!run.sched.has_value()) {
    throw std::logic_error("add_pool_layer: sched_stats were not collected");
  }
  const core::SchedulerStats& sched = *run.sched;
  const auto tasks = static_cast<double>(sched.tasks);
  layers["core.parallel.tasks"] = tasks;
  layers["core.parallel.steals_per_task"] = ratio(static_cast<double>(sched.steals), tasks);
  layers["core.parallel.parks"] = static_cast<double>(sched.parks);
  layers["core.parallel.idle_frac"] = sched.idle_fraction();
  layers["core.parallel.busy_ms"] = ms(sched.busy_ns);
  layers["core.parallel.commit_wait_ms"] = ms(sched.commit_wait_ns);
}

/// finish_trace's closing records: the run header and the run totals.
void stamp_journal(const Setup& setup, const core::TuningRun& run,
                   const std::string& metric) {
  trace::TraceJournal& journal = *setup.journal;
  journal.begin_run({"dgemm", metric, core::to_string(setup.tuner->options().strategy)});
  trace::RunSummary summary;
  summary.configs = run.results.size();
  summary.pruned = run.pruned_configs;
  summary.invocations = run.total_invocations;
  summary.iterations = run.total_iterations;
  if (run.best_index.has_value()) summary.best = run.best_value();
  summary.scheduler = run.sched;
  journal.finish_run(summary);
}

void add_backend_layer(std::map<std::string, double>& layers, const BackendTally& tally) {
  const auto iterations = static_cast<double>(tally.iterations);
  const auto busy_ns = static_cast<double>(tally.busy_ns);
  layers["simhw.invocations"] = static_cast<double>(tally.invocations);
  layers["simhw.iterations"] = iterations;
  layers["simhw.busy_ms"] = busy_ns / 1e6;
  layers["simhw.ns_per_iteration"] = ratio(busy_ns, iterations);
}

/// Fill the search-level entries: total traced time and what the timed
/// layers left uncovered.
void add_coverage(std::map<std::string, double>& layers, std::uint64_t search_ns,
                  double covered_ns) {
  const auto total = static_cast<double>(search_ns);
  const double uncovered = total > covered_ns ? total - covered_ns : 0.0;
  layers["traced_search_ms"] = total / 1e6;
  layers["unattributed_ms"] = uncovered / 1e6;
  layers["attributed_pct"] = 100.0 * ratio(total - uncovered, total);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> list;
    Workload racing1;
    racing1.name = "racing-1w";
    racing1.strategy = core::SearchStrategy::Racing;
    racing1.pool_workers = 2;
    racing1.instances = 8;
    racing1.expected = {733.98, 11741, 2.831};
    list.push_back(racing1);

    Workload journal;
    journal.name = "exhaustive-journal";
    journal.strategy = core::SearchStrategy::Exhaustive;
    journal.journal = true;
    journal.instances = 8;
    journal.expected = {716.05, 11348, 2.831};
    list.push_back(journal);

    Workload surrogate;
    surrogate.name = "surrogate-wide";
    surrogate.strategy = core::SearchStrategy::Surrogate;
    surrogate.grid_scale = 12;
    surrogate.seed_budget = 128;
    surrogate.confirm_top = 160;
    // Surrogate cost varies about 2.5x between seeds (racing's by 1 %), so
    // it takes many more instances for a steady mean.
    surrogate.instances = 128;
    surrogate.expected = {21.26, 371, 0.617};
    list.push_back(surrogate);
    return list;
  }();
  return all;
}

const Workload& workload_named(const std::string& name) {
  for (const auto& workload : workloads()) {
    if (workload.name == name) return workload;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t instance_seed(std::uint64_t seed, std::size_t instance) {
  return seed + 1000003ULL * instance;
}

Setup set_up(const Workload& workload, std::uint64_t seed,
             const std::filesystem::path& scratch) {
  // tuner_options_from / sim_options_from for
  //   dgemm --machine gold6148 --grid-scale G --strategy S --seed N
  //         [--seed-budget B --confirm-top K] [--trace FILE]
  core::TunerOptions options = core::technique_options(
      core::Technique::CIOuter, core::TunerOptions{}, /*hand_tuned_iterations=*/0,
      /*prune_min_count=*/2);
  options.random_seed = seed;
  options.strategy = workload.strategy;
  options.surrogate_seed_budget = workload.seed_budget;
  options.surrogate_confirm_top = workload.confirm_top;

  Setup setup;
  setup.machine = simhw::machine_by_name("gold6148");
  setup.sim.sockets_used = 1;
  setup.sim.seed = seed;
  setup.sim.grid_scale = workload.grid_scale;
  if (workload.journal) {
    setup.journal_path = scratch / ("journal-" + std::to_string(seed) + ".jsonl");
    trace::JournalOptions journal_options;
    journal_options.path = setup.journal_path.string();
    setup.journal = std::make_unique<trace::TraceJournal>(journal_options);
    options.trace = setup.journal.get();
    options.trace_path = journal_options.path;
  }
  setup.tuner = std::make_unique<core::Autotuner>(
      core::dgemm_scaled_space(workload.grid_scale), options);
  setup.backend = std::make_unique<simhw::SimDgemmBackend>(setup.machine, setup.sim);
  return setup;
}

core::TuningRun search(Setup& setup) {
  core::TuningRun run = setup.tuner->run(*setup.backend);
  if (setup.journal) {
    stamp_journal(setup, run, setup.backend->metric_name());
    setup.journal->flush();
  }
  return run;
}

TracedSearch traced_search(const Workload& workload, Setup& setup) {
  TracedSearch out;
  auto& layers = out.layers;
  BackendTally backend_tally;
  const core::SearchSpace& space = setup.tuner->space();
  const core::TunerOptions& options = setup.tuner->options();
  const auto start = SteadyClock::now();

  TimingBackend backend(std::move(setup.backend), backend_tally);
  if (workload.strategy == core::SearchStrategy::Racing) {
    RacingTally tally;
    out.run = run_racing_primitives(space, options, backend, tally);
    const std::uint64_t search_ns = elapsed_ns(start);
    layers["core.racing.rounds"] = static_cast<double>(tally.rounds);
    layers["core.racing.blocks"] = static_cast<double>(tally.blocks);
    layers["core.racing.frozen_incumbent_ms"] = ms(tally.frozen_incumbent_ns);
    layers["core.racing.counter_skips_ms"] = ms(tally.counter_skips_ns);
    layers["core.racing.invocation_ms"] = ms(tally.invocation_ns);
    layers["core.racing.commit_ms"] = ms(tally.commit_ns);
    layers["core.racing.conclude_round_ms"] = ms(tally.conclude_round_ns);
    layers["core.racing.eliminated_frac"] = ratio(
        static_cast<double>(tally.eliminated), static_cast<double>(tally.entered));
    layers["core.evaluator.self_ms"] =
        ms(tally.invocation_ns) - ms(backend_tally.busy_ns);
    layers["core.evaluator.pruned_configs"] = static_cast<double>(out.run.pruned_configs);
    add_backend_layer(layers, backend_tally);
    add_coverage(layers, search_ns, static_cast<double>(tally.covered_ns()));
    if (workload.pool_workers > 0) {
      add_pool_layer(layers, setup, workload.pool_workers, outcome_of(out.run));
    }
  } else if (workload.strategy == core::SearchStrategy::Surrogate) {
    SurrogateTally tally;
    out.run = run_surrogate_primitives(space, options, backend, tally);
    const std::uint64_t search_ns = elapsed_ns(start);
    layers["core.surrogate.init_ms"] = ms(tally.init_ns);
    layers["core.surrogate.seed_ms"] = ms(tally.seed_ns);
    layers["core.surrogate.fit_and_prune_ms"] = ms(tally.fit_and_prune_ns);
    layers["core.surrogate.scanned"] = static_cast<double>(tally.scanned);
    layers["core.surrogate.ns_per_scanned"] = ratio(
        static_cast<double>(tally.fit_and_prune_ns), static_cast<double>(tally.scanned));
    layers["core.surrogate.confirm_ms"] = ms(tally.confirm_ns);
    add_backend_layer(layers, backend_tally);
    add_coverage(layers, search_ns, static_cast<double>(tally.covered_ns()));
  } else {
    // Exhaustive with the journal: the sink decorator sits between the
    // evaluator and the journal; flush is timed on its own.
    SinkTally sink_tally;
    TimingSink sink(*setup.journal, sink_tally);
    core::TunerOptions traced = options;
    traced.trace = &sink;
    out.run = core::Autotuner(space, traced).run(backend);
    const std::uint64_t tuner_ns = elapsed_ns(start);
    stamp_journal(setup, out.run, backend.metric_name());
    const auto flush_start = SteadyClock::now();
    setup.journal->flush();
    const std::uint64_t flush_ns = elapsed_ns(flush_start);
    const std::uint64_t search_ns = elapsed_ns(start);

    const auto records = static_cast<double>(sink_tally.records);
    layers["trace.records"] = records;
    layers["trace.emit_ms"] = ms(sink_tally.emit_ns);
    layers["trace.ns_per_record"] = ratio(static_cast<double>(sink_tally.emit_ns), records);
    layers["trace.flush_ms"] = ms(flush_ns);
    layers["trace.bytes"] = static_cast<double>(std::filesystem::file_size(setup.journal_path));
    layers["core.evaluator.self_ms"] =
        ms(tuner_ns) - ms(backend_tally.busy_ns) - ms(sink_tally.emit_ns);
    layers["core.evaluator.pruned_configs"] = static_cast<double>(out.run.pruned_configs);
    add_backend_layer(layers, backend_tally);
    add_coverage(layers, search_ns, static_cast<double>(tuner_ns + flush_ns));
  }
  return out;
}

bool journal_reads_back(Setup&& setup) {
  const std::size_t emitted = setup.journal->event_count();
  const std::string path = setup.journal_path.string();
  setup = Setup{};
  return trace::read_journal_file(path).records.size() == emitted;
}

Outcome outcome_of(const core::TuningRun& run) {
  // FNV-1a over each result's identity, value and stop bookkeeping.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xffU;
      digest *= 0x100000001b3ULL;
    }
  };
  for (const auto& result : run.results) {
    mix(result.config.hash());
    mix(std::bit_cast<std::uint64_t>(result.value()));
    mix(result.invocations.size());
    mix(result.total_iterations);
    mix(static_cast<std::uint64_t>(result.outer_stop));
    mix(std::bit_cast<std::uint64_t>(result.total_time.value));
  }
  Outcome outcome;
  if (run.best_index.has_value()) {
    outcome.best_config = run.best_config().to_string();
    outcome.best_value_bits = std::bit_cast<std::uint64_t>(run.best_value());
  }
  outcome.invocations = run.total_invocations;
  outcome.sim_seconds_bits = std::bit_cast<std::uint64_t>(run.total_time.value);
  outcome.digest = digest;
  return outcome;
}

double true_gflops(const Setup& setup, const core::Configuration& config) {
  const simhw::DgemmSurface surface(setup.machine, setup.sim.sockets_used);
  return surface.mean_gflops(config.at("n"), config.at("m"), config.at("k")).value;
}

double true_optimum(const Setup& setup) {
  const simhw::DgemmSurface surface(setup.machine, setup.sim.sockets_used);
  const core::SearchSpace& space = setup.tuner->space();
  double best = 0.0;
  for (std::uint64_t i = 0; i < space.cartesian_cardinality(); ++i) {
    const core::Configuration config = space.config_at(i);
    if (space.has_constraints() && !space.admits(config)) continue;
    best = std::max(best, surface.mean_gflops(config.at("n"), config.at("m"),
                                              config.at("k")).value);
  }
  return best;
}

}  // namespace perfbench
