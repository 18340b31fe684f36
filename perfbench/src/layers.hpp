#pragma once
// Per-layer attribution from outside the library: decorators around the
// two seams the tuner calls through (core::Backend, core::TraceSink), and
// step-by-step runners over the public racing and surrogate primitives that
// time each primitive call.  None of this changes what the tuner computes:
// the decorators forward every call, and the runners make the same calls in
// the same order as RacingScheduler::run and SurrogateScheduler::run
// (perfbench_test checks both claims bit for bit).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/autotuner.hpp"
#include "core/backend.hpp"
#include "core/racing.hpp"
#include "core/search_space.hpp"
#include "core/surrogate.hpp"
#include "core/trace_events.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t elapsed_ns(SteadyClock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - since)
          .count());
}

/// Backend-layer counters of one serial search.
struct BackendTally {
  std::uint64_t invocations = 0;
  std::uint64_t iterations = 0;
  std::uint64_t busy_ns = 0;  ///< wall time inside backend calls
};

/// core::Backend decorator: forwards every call to the wrapped backend and
/// adds the wall time of begin/iteration/batch/end calls to a tally.
class TimingBackend final : public rooftune::core::Backend {
 public:
  TimingBackend(std::unique_ptr<rooftune::core::Backend> inner, BackendTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  void begin_invocation(const rooftune::core::Configuration& config,
                        std::uint64_t invocation_index) override;
  rooftune::core::Sample run_iteration() override;
  rooftune::core::BatchSample run_batch(std::uint64_t count) override;
  void end_invocation() override;

  [[nodiscard]] const rooftune::util::Clock& clock() const override {
    return inner_->clock();
  }
  [[nodiscard]] bool reentrant() const override { return inner_->reentrant(); }
  [[nodiscard]] std::optional<rooftune::util::ArenaStats> arena_stats() const override {
    return inner_->arena_stats();
  }
  [[nodiscard]] std::optional<InvocationTiming> last_invocation_timing() const override {
    return inner_->last_invocation_timing();
  }
  [[nodiscard]] std::optional<rooftune::core::TelemetrySpan> last_invocation_telemetry()
      const override {
    return inner_->last_invocation_telemetry();
  }
  [[nodiscard]] std::optional<rooftune::core::CounterSample> last_invocation_counters()
      const override {
    return inner_->last_invocation_counters();
  }
  [[nodiscard]] std::optional<double> analytic_intensity(
      const rooftune::core::Configuration& config) const override {
    return inner_->analytic_intensity(config);
  }
  [[nodiscard]] std::optional<double> flops_per_iteration() const override {
    return inner_->flops_per_iteration();
  }
  [[nodiscard]] std::optional<double> bytes_per_iteration() const override {
    return inner_->bytes_per_iteration();
  }
  [[nodiscard]] std::string metric_name() const override { return inner_->metric_name(); }

 private:
  std::unique_ptr<rooftune::core::Backend> inner_;
  BackendTally& tally_;
};

/// Trace-layer counters.  The journal workload is serial, so plain fields.
struct SinkTally {
  std::uint64_t records = 0;
  std::uint64_t emit_ns = 0;
};

/// core::TraceSink decorator: forwards every call to the wrapped sink (the
/// TraceJournal) and times emit(), the per-record encode/buffer cost.
class TimingSink final : public rooftune::core::TraceSink {
 public:
  TimingSink(rooftune::core::TraceSink& inner, SinkTally& tally)
      : inner_(inner), tally_(tally) {}

  void emit(const rooftune::core::TraceEvent& event) override;
  void kernel_phase_begin() override { inner_.kernel_phase_begin(); }
  void kernel_phase_end() override { inner_.kernel_phase_end(); }
  [[nodiscard]] std::optional<rooftune::core::CounterSample> kernel_phase_counters()
      const override {
    return inner_.kernel_phase_counters();
  }

 private:
  rooftune::core::TraceSink& inner_;
  SinkTally& tally_;
};

/// Time spent in each racing primitive over one race.
struct RacingTally {
  std::uint64_t rounds = 0;
  std::uint64_t blocks = 0;
  std::uint64_t entered = 0;     ///< configurations that entered the race
  std::uint64_t eliminated = 0;  ///< ... and left it eliminated
  std::uint64_t init_ns = 0;     ///< config list + RacingScheduler::init
  std::uint64_t round_blocks_ns = 0;
  std::uint64_t frozen_incumbent_ns = 0;
  std::uint64_t counter_skips_ns = 0;
  std::uint64_t invocation_ns = 0;  ///< run_detached_invocation
  std::uint64_t commit_ns = 0;      ///< commit_invocation
  std::uint64_t conclude_round_ns = 0;
  std::uint64_t finish_ns = 0;

  [[nodiscard]] std::uint64_t covered_ns() const {
    return init_ns + round_blocks_ns + frozen_incumbent_ns + counter_skips_ns +
           invocation_ns + commit_ns + conclude_round_ns + finish_ns;
  }
};

/// The racing strategy as Autotuner::run runs it (SpaceView order, then
/// RacingScheduler::run), driven one primitive at a time.
[[nodiscard]] rooftune::core::TuningRun run_racing_primitives(
    const rooftune::core::SearchSpace& space, const rooftune::core::TunerOptions& options,
    rooftune::core::Backend& backend, RacingTally& tally);

/// Time spent in each surrogate phase over one search.
struct SurrogateTally {
  std::uint64_t scanned = 0;
  std::uint64_t init_ns = 0;
  std::uint64_t seed_ns = 0;
  std::uint64_t fit_and_prune_ns = 0;
  std::uint64_t confirm_ns = 0;
  std::uint64_t finish_ns = 0;

  [[nodiscard]] std::uint64_t covered_ns() const {
    return init_ns + seed_ns + fit_and_prune_ns + confirm_ns + finish_ns;
  }
};

/// SurrogateScheduler::run, driven one phase at a time (untraced: the
/// journal-event emission of the library's loop is not reproduced).
[[nodiscard]] rooftune::core::TuningRun run_surrogate_primitives(
    const rooftune::core::SearchSpace& space, const rooftune::core::TunerOptions& options,
    rooftune::core::Backend& backend, SurrogateTally& tally);

}  // namespace perfbench
