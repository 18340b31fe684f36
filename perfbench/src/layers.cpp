#include "layers.hpp"

#include <stdexcept>
#include <type_traits>
#include <utility>

namespace perfbench {

namespace core = rooftune::core;

namespace {

/// Run `fn`, add its wall time to `ns`, and return its result.
template <typename Fn>
decltype(auto) timed(std::uint64_t& ns, Fn&& fn) {
  const auto start = SteadyClock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    fn();
    ns += elapsed_ns(start);
  } else {
    auto result = fn();
    ns += elapsed_ns(start);
    return result;
  }
}

void require_untraced(const core::TunerOptions& options, const char* caller) {
  if (options.trace != nullptr) {
    throw std::invalid_argument(std::string(caller) +
                                ": the primitive runners work without a trace sink");
  }
}

}  // namespace

void TimingBackend::begin_invocation(const core::Configuration& config,
                                     std::uint64_t invocation_index) {
  const auto start = SteadyClock::now();
  inner_->begin_invocation(config, invocation_index);
  tally_.busy_ns += elapsed_ns(start);
  tally_.invocations += 1;
}

core::Sample TimingBackend::run_iteration() {
  const auto start = SteadyClock::now();
  const core::Sample sample = inner_->run_iteration();
  tally_.busy_ns += elapsed_ns(start);
  tally_.iterations += 1;
  return sample;
}

core::BatchSample TimingBackend::run_batch(std::uint64_t count) {
  const auto start = SteadyClock::now();
  const core::BatchSample batch = inner_->run_batch(count);
  tally_.busy_ns += elapsed_ns(start);
  tally_.iterations += batch.count;
  return batch;
}

void TimingBackend::end_invocation() {
  const auto start = SteadyClock::now();
  inner_->end_invocation();
  tally_.busy_ns += elapsed_ns(start);
}

void TimingSink::emit(const core::TraceEvent& event) {
  const auto start = SteadyClock::now();
  inner_.emit(event);
  tally_.emit_ns += elapsed_ns(start);
  ++tally_.records;
}

core::TuningRun run_racing_primitives(const core::SearchSpace& space,
                                      const core::TunerOptions& options,
                                      core::Backend& backend, RacingTally& tally) {
  require_untraced(options, "run_racing_primitives");
  using Status = core::RacingScheduler::Status;
  const core::RacingScheduler racing(options);

  auto state = timed(tally.init_ns, [&] {
    const core::SpaceView view(space, options.order, options.random_seed);
    std::vector<core::Configuration> configs;
    configs.reserve(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) configs.push_back(view.at(i));
    return racing.init(std::move(configs));
  });
  tally.entered += state.entries.size();

  // RacingScheduler::step, one primitive at a time.
  for (;;) {
    const auto blocks = timed(tally.round_blocks_ns,
                              [&] { return core::RacingScheduler::round_blocks(state); });
    if (blocks.empty()) break;
    ++tally.rounds;
    for (const auto& block : blocks) {
      ++tally.blocks;
      const auto incumbent = timed(tally.frozen_incumbent_ns, [&] {
        return core::RacingScheduler::frozen_incumbent(state);
      });
      timed(tally.counter_skips_ns,
            [&] { racing.apply_counter_skips(state, block, incumbent, backend); });
      for (const std::size_t i : block) {
        auto& entry = state.entries[i];
        if (entry.status != Status::Racing) continue;
        auto invocation = timed(tally.invocation_ns, [&] {
          return racing.run_detached_invocation(backend, entry.result.config,
                                                entry.result.invocations.size(),
                                                incumbent, i);
        });
        timed(tally.commit_ns, [&] {
          core::RacingScheduler::commit_invocation(entry, std::move(invocation));
        });
      }
    }
    if (!timed(tally.conclude_round_ns, [&] { return racing.conclude_round(state); })) {
      break;
    }
  }

  for (const auto& entry : state.entries) {
    if (entry.status == Status::Eliminated) ++tally.eliminated;
  }
  auto run = timed(tally.finish_ns,
                   [&] { return core::RacingScheduler::finish(std::move(state)); });
  run.arena = backend.arena_stats();
  return run;
}

core::TuningRun run_surrogate_primitives(const core::SearchSpace& space,
                                         const core::TunerOptions& options,
                                         core::Backend& backend, SurrogateTally& tally) {
  require_untraced(options, "run_surrogate_primitives");
  const core::SurrogateScheduler scheduler(options);

  auto state = timed(tally.init_ns, [&] { return scheduler.init(space); });

  timed(tally.seed_ns, [&] {
    std::optional<double> incumbent;
    for (std::size_t i = 0; i < state.seed_indices.size(); ++i) {
      core::TraceContext ctx;
      ctx.epoch = i;
      ctx.config_ordinal = i;
      const core::Configuration config = space.config_at(state.seed_indices[i]);
      core::ConfigResult result =
          core::run_configuration(backend, config, options, incumbent, ctx);
      core::SurrogateScheduler::normalize_seed_time(result);
      const double value = result.value();
      if (!incumbent.has_value() || value > *incumbent) incumbent = value;
      state.seed_results.push_back(std::move(result));
    }
  });

  const std::uint64_t seed_epochs = state.seed_indices.size();
  timed(tally.fit_and_prune_ns,
        [&] { scheduler.fit_and_prune(space, state, seed_epochs); });
  tally.scanned += state.scanned;

  timed(tally.confirm_ns, [&] {
    const core::RacingScheduler racing(scheduler.confirm_options(nullptr));
    while (racing.step(state.race, backend)) {
    }
  });

  auto run = timed(tally.finish_ns, [&] {
    return core::SurrogateScheduler::finish(std::move(state));
  });
  run.arena = backend.arena_stats();
  return run;
}

}  // namespace perfbench
