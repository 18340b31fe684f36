#include "measure.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>

#include "layers.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = rooftune::core;

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"search_ms", "ms"},     {"search_ms_tail", "ms"}, {"cpu_ms", "ms"},
      {"setup_s", "s"},        {"peak_rss_mb", "MiB"},   {"sim_search_s", "s"},
      {"invocations", "count"}, {"best_true_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"simhw.invocations", "count"},
      {"simhw.iterations", "count"},
      {"simhw.busy_ms", "ms"},
      {"simhw.ns_per_iteration", "ns"},
      {"core.racing.rounds", "count"},
      {"core.racing.blocks", "count"},
      {"core.racing.frozen_incumbent_ms", "ms"},
      {"core.racing.counter_skips_ms", "ms"},
      {"core.racing.invocation_ms", "ms"},
      {"core.racing.commit_ms", "ms"},
      {"core.racing.conclude_round_ms", "ms"},
      {"core.racing.eliminated_frac", "ratio"},
      {"core.evaluator.self_ms", "ms"},
      {"core.evaluator.pruned_configs", "count"},
      {"core.parallel.tasks", "count"},
      {"core.parallel.steals_per_task", "ratio"},
      {"core.parallel.parks", "count"},
      {"core.parallel.idle_frac", "ratio"},
      {"core.parallel.busy_ms", "ms"},
      {"core.parallel.commit_wait_ms", "ms"},
      {"core.surrogate.init_ms", "ms"},
      {"core.surrogate.seed_ms", "ms"},
      {"core.surrogate.fit_and_prune_ms", "ms"},
      {"core.surrogate.scanned", "count"},
      {"core.surrogate.ns_per_scanned", "ns"},
      {"core.surrogate.confirm_ms", "ms"},
      {"trace.records", "count"},
      {"trace.emit_ms", "ms"},
      {"trace.ns_per_record", "ns"},
      {"trace.flush_ms", "ms"},
      {"trace.bytes", "bytes"},
      {"host.ref_ms", "ms"},
      {"traced_search_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"attributed_pct", "%"},
      {"tracing_overhead_pct", "%"},
  };
  return specs;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail(std::vector<double> samples) {
  if (samples.size() < kMinTailSamples) {
    throw std::invalid_argument("tail: needs at least " + std::to_string(kMinTailSamples) +
                                " samples");
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto above = static_cast<double>(kMinTailSamples - 1);
  return {samples[samples.size() - kMinTailSamples], 100.0 * (n - above) / n};
}

namespace {

// Read and written through volatile so the probe loop cannot be folded away.
volatile std::uint64_t probe_seed = 0x9E3779B97F4A7C15ULL;
volatile std::uint64_t probe_sink = 0;

/// Host-speed probe: wall milliseconds of a fixed integer loop that does
/// not touch the tuner.  Moves only when the host does.
double host_probe_ms() {
  // xorshift64 chain: serial integer work, no memory traffic, no tuner code.
  const auto start = SteadyClock::now();
  std::uint64_t x = probe_seed;
  for (int i = 0; i < (1 << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  probe_sink = x;
  return static_cast<double>(elapsed_ns(start)) / 1e6;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Start a new resident-set high-water mark at what the process holds now:
/// hand freed heap pages back first, so memory an earlier search or check
/// released does not count, then reset VmHWM.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) throw std::runtime_error("cannot reset the peak resident set");
}

/// VmHWM of this process in MiB: the peak resident set since the last
/// reset_peak_rss().
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string field;
  while (status >> field) {
    if (field == "VmHWM:") {
      double kib = 0.0;
      if (status >> kib) return kib / 1024.0;
      break;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double since_ms(SteadyClock::time_point start) {
  return static_cast<double>(elapsed_ns(start)) / 1e6;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The deterministic outputs of one input instance, from its warm-up search.
struct Reference {
  Outcome outcome;
  double sim_search_s = 0.0;
  double invocations = 0.0;
  double best_true_pct = 0.0;
};

class Runner {
 public:
  Runner(const RunOptions& options, std::ostream& log)
      : options_(options), workload_(workload_named(options.workload)), log_(log) {}

  RunResult run() {
    std::filesystem::create_directories(options_.scratch);
    prepare_references();
    measure();
    RunResult result;
    result.attempted = attempted_;
    result.failed = failed_;
    result.correct = failed_ == 0;
    result.metrics = options_.trace ? per_layer() : end_to_end();
    return result;
  }

 private:
  std::uint64_t seed_of(std::size_t instance) const {
    return instance_seed(options_.seed, instance);
  }

  Setup set_up_instance(std::size_t instance) const {
    return set_up(workload_, seed_of(instance), options_.scratch);
  }

  /// Build every input instance once, run its untimed warm-up search, and
  /// record what every later search of that instance must reproduce.  The
  /// true optimum is computed here, outside set-up and search timing.
  void prepare_references() {
    double optimum = 0.0;
    for (std::size_t j = 0; j < workload_.instances; ++j) {
      Setup setup = set_up_instance(j);
      if (j == 0) optimum = true_optimum(setup);
      const core::TuningRun run = search(setup);
      Reference ref;
      ref.outcome = outcome_of(run);
      ref.sim_search_s = run.total_time.value;
      ref.invocations = static_cast<double>(run.total_invocations);
      ref.best_true_pct = 100.0 * true_gflops(setup, run.best_config()) / optimum;
      if (setup.journal && !journal_reads_back(std::move(setup))) {
        throw std::runtime_error("warm-up journal does not read back");
      }
      log_ << "instance " << j << " (seed " << seed_of(j) << "): best "
           << ref.outcome.best_config << ", sim_search_s " << ref.sim_search_s
           << ", invocations " << run.total_invocations << ", best_gap_pct "
           << 100.0 - ref.best_true_pct << '\n';
      refs_.push_back(std::move(ref));
    }
    if (options_.seed == 2021) check_expected();
  }

  /// At seed 2021 instance 0 must reproduce the recorded CLI values.
  void check_expected() {
    const Reference& ref = refs_.front();
    const Expected2021& want = workload_.expected;
    const bool ok = std::abs(ref.sim_search_s - want.sim_search_s) < 0.01 &&
                    ref.invocations == static_cast<double>(want.invocations) &&
                    std::abs((100.0 - ref.best_true_pct) - want.best_gap_pct) < 0.001;
    ++attempted_;
    if (!ok) {
      ++failed_;
      log_ << "FAIL: seed 2021 differs from the recorded values\n";
    }
  }

  /// Count one checked search; a mismatch counts as failed and is logged.
  /// Consumes the setup: its journal is read back after the writer is gone.
  void check(std::size_t instance, const core::TuningRun& run, Setup&& setup) {
    ++attempted_;
    std::string problem;
    if (outcome_of(run) != refs_[instance].outcome) {
      problem = "result differs from the warm-up";
    } else if (setup.journal && !journal_reads_back(std::move(setup))) {
      problem = "journal on disk does not hold every emitted record";
    }
    if (!problem.empty()) {
      ++failed_;
      log_ << "FAIL: instance " << instance << ": " << problem << '\n';
    }
  }

  void fail(std::size_t instance, const std::exception& error) {
    ++attempted_;
    ++failed_;
    log_ << "FAIL: instance " << instance << ": " << error.what() << '\n';
  }

  void measure() {
    instance_search_ms_.assign(workload_.instances, {});
    instance_cpu_ms_.assign(workload_.instances, {});
    instance_peak_mib_.assign(workload_.instances, {});
    const auto start = SteadyClock::now();
    const auto deadline =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(options_.seconds));
    for (std::size_t i = 0; SteadyClock::now() < deadline || i < kMinTailSamples;
         ++i) {
      const std::size_t j = i % workload_.instances;
      host_ms_.push_back(host_probe_ms());
      try {
        // The first set-up after a search runs with the caches and the heap
        // that search left behind, and its time varies several-fold from
        // process to process; the timed set-up is the second one.
        (void)set_up_instance(j);
        const auto setup_start = SteadyClock::now();
        Setup setup = set_up_instance(j);
        setup_s_.push_back(since_ms(setup_start) / 1e3);
        reset_peak_rss();
        const double cpu_start = cpu_seconds();
        const auto search_start = SteadyClock::now();
        const core::TuningRun run = search(setup);
        const double wall_ms = since_ms(search_start);
        const double cpu_ms = (cpu_seconds() - cpu_start) * 1e3;
        instance_peak_mib_[j].push_back(peak_rss_mib());
        search_ms_.push_back(wall_ms);
        instance_search_ms_[j].push_back(wall_ms);
        instance_cpu_ms_[j].push_back(cpu_ms);
        check(j, run, std::move(setup));
      } catch (const std::exception& error) {
        fail(j, error);
      }
      if (!options_.trace) continue;
      try {
        Setup setup = set_up_instance(j);
        TracedSearch traced = traced_search(workload_, setup);
        check(j, traced.run, std::move(setup));
        for (const auto& [name, value] : traced.layers) layers_[name].push_back(value);
      } catch (const std::exception& error) {
        fail(j, error);
      }
    }
    log_ << "measured " << search_ms_.size() << " searches"
         << (options_.trace ? " and as many traced ones" : "") << " in "
         << since_ms(start) / 1e3 << " s; host.ref_ms median " << median(host_ms_) << '\n';
  }

  /// Mean over instances of each instance's median.
  static double mean_of_medians(const std::vector<std::vector<double>>& per_instance) {
    std::vector<double> medians;
    for (const auto& samples : per_instance) {
      if (!samples.empty()) medians.push_back(median(samples));
    }
    return mean(medians);
  }

  std::vector<Metric> end_to_end() const {
    const Tail search_tail = tail(search_ms_);
    log_ << "search_ms_tail is p" << search_tail.percentile << " of " << search_ms_.size()
         << " searches; search_fail_frac " << failed_ << "/" << attempted_ << '\n';
    log_ << "per-instance median search_ms:";
    for (const auto& samples : instance_search_ms_) log_ << ' ' << median(samples);
    log_ << '\n';
    std::vector<double> sim, invocations, best;
    for (const auto& ref : refs_) {
      sim.push_back(ref.sim_search_s);
      invocations.push_back(ref.invocations);
      best.push_back(ref.best_true_pct);
    }
    const std::map<std::string, double> values = {
        {"search_ms", mean_of_medians(instance_search_ms_)},
        {"search_ms_tail", search_tail.value},
        {"cpu_ms", mean_of_medians(instance_cpu_ms_)},
        {"setup_s", median(setup_s_)},
        {"peak_rss_mb", mean_of_medians(instance_peak_mib_)},
        {"sim_search_s", mean(sim)},
        {"invocations", mean(invocations)},
        {"best_true_pct", mean(best)},
    };
    return in_schema_order(end_to_end_metrics(), values);
  }

  std::vector<Metric> per_layer() const {
    std::map<std::string, double> values;
    for (const auto& [name, samples] : layers_) values[name] = median(samples);
    values["host.ref_ms"] = median(host_ms_);
    // Both medians pool the same instance mix: each repetition runs one
    // untraced and one traced search of the same instance.
    const double untraced = median(search_ms_);
    if (untraced > 0.0 && values.contains("traced_search_ms")) {
      values["tracing_overhead_pct"] = 100.0 * (values["traced_search_ms"] / untraced - 1.0);
    }
    for (const auto& spec : per_layer_metrics()) values.try_emplace(spec.name, 0.0);
    return in_schema_order(per_layer_metrics(), values);
  }

  static std::vector<Metric> in_schema_order(const std::vector<MetricSpec>& specs,
                                             const std::map<std::string, double>& values) {
    if (values.size() != specs.size()) {
      throw std::logic_error("metric set does not match the schema");
    }
    std::vector<Metric> metrics;
    for (const auto& spec : specs) {
      metrics.push_back({spec.name, values.at(spec.name), spec.unit});
    }
    return metrics;
  }

  const RunOptions& options_;
  const Workload& workload_;
  std::ostream& log_;
  std::vector<Reference> refs_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> host_ms_, setup_s_, search_ms_;
  /// Per-instance samples: instances differ in work, so medians are taken
  /// per instance and then averaged, which keeps the instance mix of a run
  /// out of the result.
  std::vector<std::vector<double>> instance_search_ms_, instance_cpu_ms_, instance_peak_mib_;
  std::map<std::string, std::vector<double>> layers_;
};

}  // namespace

RunResult run_benchmark(const RunOptions& options, std::ostream& log) {
  return Runner(options, log).run();
}

std::string result_line(const RunResult& result) {
  rooftune::util::JsonWriter json;
  json.begin_object()
      .key("correct").value(result.correct)
      .key("attempted").value(result.attempted)
      .key("failed").value(result.failed)
      .key("metrics").begin_object();
  for (const Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      throw std::invalid_argument("metric " + metric.name + " is not finite");
    }
    json.key(metric.name).begin_object()
        .key("value").value_exact(metric.value)
        .key("unit").value(metric.unit)
        .end_object();
  }
  json.end_object().end_object();
  return json.str();
}

}  // namespace perfbench
