// The benchmark's own tests: the layer decorators and primitive runners
// change nothing the tuner computes, the seed-2021 outputs match the
// recorded values, and every printed metric is declared in BENCHMARK.json.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include "core/racing.hpp"
#include "core/surrogate.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "util/json_parse.hpp"
#include "workloads.hpp"

namespace {

namespace core = rooftune::core;
using namespace perfbench;

/// Per-process scratch root for journal files, removed at exit.
struct ScratchRoot {
  std::filesystem::path path = std::filesystem::temp_directory_path() /
                               ("perfbench_test_" + std::to_string(::getpid()));
  ~ScratchRoot() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};
const ScratchRoot scratch_root;

std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = scratch_root.path / name;
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Decorators, TimingBackendIsTransparent) {
  const Workload& racing = workload_named("racing-1w");
  perfbench::Setup plain = set_up(racing, 7, scratch_dir("backend"));
  const Outcome expected = outcome_of(search(plain));

  perfbench::Setup timed = set_up(racing, 7, scratch_dir("backend"));
  BackendTally tally;
  TimingBackend backend(std::move(timed.backend), tally);
  EXPECT_EQ(outcome_of(timed.tuner->run(backend)), expected);
  EXPECT_EQ(tally.invocations, expected.invocations);
  EXPECT_GT(tally.busy_ns, 0U);
}

TEST(Decorators, TimingSinkAndBackendKeepJournalBytes) {
  const Workload& journal = workload_named("exhaustive-journal");
  perfbench::Setup plain = set_up(journal, 11, scratch_dir("plain"));
  const Outcome expected = outcome_of(search(plain));

  perfbench::Setup traced = set_up(journal, 11, scratch_dir("traced"));
  const TracedSearch result = traced_search(journal, traced);
  EXPECT_EQ(outcome_of(result.run), expected);
  const std::string bytes = slurp(plain.journal_path);
  const std::string traced_bytes = slurp(traced.journal_path);
  ASSERT_FALSE(bytes.empty());
  // Not EXPECT_EQ: gtest would diff two ~11 MB strings on failure.
  const auto mismatch = std::mismatch(bytes.begin(), bytes.end(), traced_bytes.begin(),
                                      traced_bytes.end());
  EXPECT_TRUE(mismatch.first == bytes.end() && mismatch.second == traced_bytes.end())
      << "journals differ from byte " << (mismatch.first - bytes.begin()) << " ("
      << bytes.size() << " vs " << traced_bytes.size() << " bytes)";
  EXPECT_EQ(result.layers.at("trace.records"),
            static_cast<double>(plain.journal->event_count()));
  EXPECT_TRUE(journal_reads_back(std::move(traced)));
}

TEST(PrimitiveRunners, RacingMatchesRacingSchedulerRun) {
  const Workload& racing = workload_named("racing-1w");
  for (const std::uint64_t seed : {2021ULL, 5ULL}) {
    perfbench::Setup library = set_up(racing, seed, scratch_dir("racing"));
    const core::TuningRun expected = library.tuner->run(*library.backend);

    perfbench::Setup driven = set_up(racing, seed, scratch_dir("racing"));
    RacingTally tally;
    const core::TuningRun run = run_racing_primitives(
        driven.tuner->space(), driven.tuner->options(), *driven.backend, tally);
    EXPECT_EQ(outcome_of(run), outcome_of(expected)) << "seed " << seed;
    EXPECT_EQ(tally.entered, run.results.size());
    EXPECT_GT(tally.rounds, 1U);
    EXPECT_GE(tally.blocks, tally.rounds);
  }
}

TEST(PrimitiveRunners, SurrogateMatchesSurrogateSchedulerRun) {
  const Workload& surrogate = workload_named("surrogate-wide");
  for (const std::uint64_t seed : {2021ULL, 3ULL}) {
    perfbench::Setup library = set_up(surrogate, seed, scratch_dir("surrogate"));
    const core::TuningRun expected =
        core::SurrogateScheduler(library.tuner->options())
            .run(*library.backend, library.tuner->space());

    perfbench::Setup driven = set_up(surrogate, seed, scratch_dir("surrogate"));
    SurrogateTally tally;
    const core::TuningRun run = run_surrogate_primitives(
        driven.tuner->space(), driven.tuner->options(), *driven.backend, tally);
    EXPECT_EQ(outcome_of(run), outcome_of(expected)) << "seed " << seed;
    EXPECT_GT(tally.scanned, 0U);
  }
}

TEST(PrimitiveRunners, TracedSearchesMatchUntracedOnes) {
  for (const auto& workload : workloads()) {
    perfbench::Setup plain = set_up(workload, 9, scratch_dir("traced-" + workload.name));
    const Outcome expected = outcome_of(search(plain));
    perfbench::Setup traced = set_up(workload, 9, scratch_dir("traced-" + workload.name));
    EXPECT_EQ(outcome_of(traced_search(workload, traced).run), expected) << workload.name;
  }
}

TEST(Workloads, Seed2021MatchesRecordedValues) {
  for (const auto& workload : workloads()) {
    perfbench::Setup setup = set_up(workload, 2021, scratch_dir("expected"));
    const double optimum = true_optimum(setup);
    const core::TuningRun run = search(setup);
    const double gap = 100.0 * (1.0 - true_gflops(setup, run.best_config()) / optimum);
    EXPECT_NEAR(run.total_time.value, workload.expected.sim_search_s, 0.01) << workload.name;
    EXPECT_EQ(run.total_invocations, workload.expected.invocations) << workload.name;
    EXPECT_NEAR(gap, workload.expected.best_gap_pct, 0.001) << workload.name;
  }
}

TEST(Statistics, MedianAndTail) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Tail t = tail(samples);
  EXPECT_DOUBLE_EQ(t.value, 90.0);  // ten samples (91..100) lie above it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_THROW((void)tail({1.0, 2.0}), std::invalid_argument);
}

/// name -> unit for one metric list of BENCHMARK.json.
std::map<std::string, std::string> manifest_metrics(const std::string& key) {
  const auto manifest = rooftune::util::parse_json(slurp(PERFBENCH_MANIFEST));
  std::map<std::string, std::string> metrics;
  for (const auto& entry : manifest.at(key).as_array()) {
    metrics[entry.at("name").as_string()] = entry.at("unit").as_string();
  }
  return metrics;
}

std::map<std::string, std::string> schema(const std::vector<MetricSpec>& specs) {
  std::map<std::string, std::string> metrics;
  for (const auto& spec : specs) metrics[spec.name] = spec.unit;
  return metrics;
}

TEST(Manifest, SchemaMatchesBenchmarkJson) {
  EXPECT_EQ(schema(end_to_end_metrics()), manifest_metrics("end_to_end"));
  EXPECT_EQ(schema(per_layer_metrics()), manifest_metrics("per_layer"));
  const auto manifest = rooftune::util::parse_json(slurp(PERFBENCH_MANIFEST));
  std::set<std::string> names;
  for (const auto& w : manifest.at("workloads").as_array()) {
    names.insert(w.at("name").as_string());
  }
  std::set<std::string> ours;
  for (const auto& w : workloads()) ours.insert(w.name);
  EXPECT_EQ(ours, names);
}

TEST(Manifest, PrintedNamesAreDeclared) {
  const std::regex allowed("[A-Za-z0-9_.-]+");
  for (const bool traced : {false, true}) {
    RunOptions options;
    options.workload = "surrogate-wide";
    options.seed = 4;
    options.seconds = 0.0;
    options.trace = traced;
    options.scratch = scratch_dir("printed");
    std::ostringstream log;
    const RunResult result = run_benchmark(options, log);
    EXPECT_TRUE(result.correct) << log.str();
    EXPECT_EQ(result.failed, 0U);
    EXPECT_GE(result.attempted, kMinTailSamples);

    const auto line = rooftune::util::parse_json(result_line(result));
    EXPECT_TRUE(line.at("correct").as_bool());
    const auto declared =
        manifest_metrics(traced ? "per_layer" : "end_to_end");
    std::map<std::string, std::string> printed;
    for (const auto& [name, metric] : line.at("metrics").as_object()) {
      EXPECT_TRUE(std::regex_match(name, allowed)) << name;
      printed[name] = metric.at("unit").as_string();
    }
    EXPECT_EQ(printed, declared);
  }
}

}  // namespace
