// Instruments that time the library from outside, with no change to it:
//   - timed_stage wraps each stage of engine::engine::default_pipeline(),
//   - timed_tool wraps the workload's core::downstream_tool,
//   - run_observer is an engine::iteration_observer.
// They record spans into an in-memory span_log, read only after the traced
// pass ends, and never alter what the engine computes: timed_tool keeps the
// wrapped tool's name, so cache keys are unchanged, and timed_stage
// forwards name() and runs_in_drain(). identity_test.cpp checks that
// schedules come back bit-identical.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/downstream.h"
#include "engine/observer.h"
#include "engine/stage.h"

namespace perfbench {

/// What a span times. Nesting depth: run 1; pre_loop and the six stages 2;
/// downstream 3.
enum class layer {
  run,
  pre_loop,
  enumerate,
  rank,
  expand,
  evaluate,
  update,
  resolve,
  downstream,
};
inline constexpr int num_layers = 9;

/// The six stages of engine::engine::default_pipeline(), in order.
inline constexpr layer engine_stages[] = {layer::enumerate, layer::rank,
                                          layer::expand,    layer::evaluate,
                                          layer::update,    layer::resolve};

/// Metric-name stem of a layer ("run", "pre_loop", "evaluate", ...).
const char* layer_name(layer l);
int layer_depth(layer l);

/// One timed interval. `design` is the index of the design it belongs to
/// (-1 when it cannot be attributed, as for async downstream calls, which
/// run on the shared dispatch pool). `parent` indexes the span log (-1 at
/// top level). Times are seconds since the log's origin; `closed` is set
/// when the end is recorded.
struct span {
  layer kind = layer::run;
  int design = -1;
  int parent = -1;
  double begin = 0.0;
  double end = 0.0;
  bool closed = false;
};

/// Thread-safe, append-only span store kept in memory until the run ends.
class span_log {
public:
  span_log() : origin_(std::chrono::steady_clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }
  int open(layer kind, int design, int parent, double begin);
  void close(int id, double end);
  std::vector<span> spans() const;

private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<span> spans_;
};

class trace_state;

/// Opens a run span on the calling thread for one direct engine::run call
/// and closes it when destroyed.
class scoped_run {
public:
  scoped_run(trace_state& trace, int design);
  ~scoped_run();
  scoped_run(const scoped_run&) = delete;
  scoped_run& operator=(const scoped_run&) = delete;

private:
  trace_state& trace_;
  int id_;
};

/// One call the downstream tool answered: the subgraph it received (kept
/// for the pass-by-pass replay), the delay it returned and how long it took.
struct downstream_call {
  isdc::ir::graph subgraph;
  double delay_ps = 0.0;
  double seconds = 0.0;
};

/// Shared state of one traced pass: the span log plus the downstream calls.
/// Each instance has its own epoch, which separates passes that reuse the
/// same threads.
class trace_state {
public:
  trace_state();
  trace_state(const trace_state&) = delete;
  trace_state& operator=(const trace_state&) = delete;

  span_log& log() { return log_; }
  std::uint64_t epoch() const { return epoch_; }

  /// The evaluate span of the sync run in progress, the parent of
  /// downstream calls that run on pool threads.
  std::atomic<int> sync_evaluate{-1};
  std::atomic<int> sync_evaluate_design{-1};

  void record_call(downstream_call call);
  void record_error();
  std::vector<downstream_call> take_calls();
  std::size_t errors() const;

private:
  std::uint64_t epoch_;
  span_log log_;
  mutable std::mutex mutex_;
  std::vector<downstream_call> calls_;
  std::size_t errors_ = 0;
};

/// Decorator around one engine stage: a span per invocation.
class timed_stage final : public isdc::engine::stage {
public:
  timed_stage(std::unique_ptr<isdc::engine::stage> inner, layer kind,
              trace_state& trace)
      : inner_(std::move(inner)), kind_(kind), trace_(trace) {}

  std::string_view name() const override { return inner_->name(); }
  bool run(isdc::engine::run_state& rs,
           isdc::engine::iteration_state& it) override;
  bool runs_in_drain() const override { return inner_->runs_in_drain(); }

private:
  std::unique_ptr<isdc::engine::stage> inner_;
  layer kind_;
  trace_state& trace_;
};

/// engine::engine::default_pipeline() with every stage wrapped.
std::vector<std::unique_ptr<isdc::engine::stage>> traced_pipeline(
    trace_state& trace);

/// Timing wrapper around a downstream tool. Same name as the inner tool,
/// so the evaluation cache keys (and hence the schedules) do not change.
class timed_tool final : public isdc::core::downstream_tool {
public:
  timed_tool(const isdc::core::downstream_tool& inner, trace_state& trace)
      : inner_(inner), trace_(trace) {}

  double subgraph_delay_ps(const isdc::ir::graph& sub) const override;
  std::string name() const override { return inner_.name(); }

private:
  const isdc::core::downstream_tool& inner_;
  trace_state& trace_;
};

/// Per-record counters the observer folds over every run of a pass.
struct observed_counters {
  std::int64_t iterations = 0;  ///< feedback records (iteration > 0)
  std::int64_t async_dispatched = 0;
  std::int64_t async_coalesced = 0;
  std::int64_t in_flight_max = 0;
  std::int64_t ssp_paths = 0;
  std::int64_t constraints_reemitted = 0;
  double component_s_max = 0.0;  ///< longest run or component run
};

/// Observer that opens pre-loop spans (from the run call, or the previous
/// component's end, to on_run_begin), opens run spans for fleet jobs, and
/// folds the iteration records into observed_counters. Thread-safe.
class run_observer final : public isdc::engine::iteration_observer {
public:
  explicit run_observer(trace_state& trace) : trace_(trace) {}

  /// Attributes runs on `g` to design `design` (fleet jobs, whose runs the
  /// benchmark does not call itself). Not thread-safe: call before the
  /// runs start.
  void add_design(const isdc::ir::graph* g, int design);
  /// Start of the fleet batch: the pre-loop mark for each shard's first job.
  void set_batch_start(double t) { batch_start_ = t; }

  void on_run_begin(const isdc::ir::graph& g,
                    const isdc::core::isdc_options& options) override;
  void on_iteration(const isdc::core::iteration_record& rec) override;
  void on_run_end(const isdc::core::isdc_result& result) override;

  observed_counters counters() const;

private:
  trace_state& trace_;
  double batch_start_ = 0.0;
  std::unordered_map<const isdc::ir::graph*, int> designs_;
  mutable std::mutex mutex_;
  observed_counters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
