#include "probes.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "engine/engine.h"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_epoch{0};

/// What the calling thread is currently doing, for parenting the spans
/// opened on it. scoped_run sets it around each direct engine::run call;
/// run_observer sets it for fleet jobs on shard threads.
struct thread_context {
  std::uint64_t epoch = 0;  ///< trace_state the fields belong to
  int design = -1;
  int run_span = -1;
  int innermost = -1;  ///< innermost open span on this thread
  bool owns_run = false;  ///< run span opened by run_observer (fleet job)
  bool has_mark = false;
  double mark = 0.0;  ///< where the next pre-loop span starts
  double component_begin = 0.0;  ///< start of the run or component run
};

/// The calling thread's context for `epoch`, reset when it belongs to
/// another trace_state (the main thread runs several traced passes).
thread_context& context_for(std::uint64_t epoch) {
  thread_local thread_context ctx;
  if (ctx.epoch != epoch) {
    ctx = thread_context{};
    ctx.epoch = epoch;
  }
  return ctx;
}

/// Leaves the thread context and the span log as they were before a stage
/// ran, also when the stage throws.
struct stage_span_guard {
  trace_state& trace;
  thread_context& ctx;
  int id;
  int saved_innermost;
  bool sync_evaluate;
  ~stage_span_guard() {
    if (sync_evaluate) {
      trace.sync_evaluate = -1;
    }
    ctx.innermost = saved_innermost;
    trace.log().close(id, trace.log().now());
  }
};

layer stage_layer(std::string_view name) {
  for (const layer l : engine_stages) {
    if (name == layer_name(l)) {
      return l;
    }
  }
  throw std::runtime_error("perfbench: unknown engine stage '" +
                           std::string(name) + "'");
}

}  // namespace

const char* layer_name(layer l) {
  static constexpr const char* names[num_layers] = {
      "run",    "pre_loop", "enumerate", "rank",      "expand",
      "evaluate", "update", "resolve",   "downstream"};
  return names[static_cast<int>(l)];
}

int layer_depth(layer l) {
  switch (l) {
    case layer::run:
      return 1;
    case layer::downstream:
      return 3;
    default:
      return 2;
  }
}

int span_log::open(layer kind, int design, int parent, double begin) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span{kind, design, parent, begin, begin, false});
  return static_cast<int>(spans_.size()) - 1;
}

void span_log::close(int id, double end) {
  std::lock_guard lock(mutex_);
  span& s = spans_[static_cast<std::size_t>(id)];
  s.end = end;
  s.closed = true;
}

std::vector<span> span_log::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

trace_state::trace_state() : epoch_(++next_epoch) {}

void trace_state::record_call(downstream_call call) {
  std::lock_guard lock(mutex_);
  calls_.push_back(std::move(call));
}

void trace_state::record_error() {
  std::lock_guard lock(mutex_);
  ++errors_;
}

std::vector<downstream_call> trace_state::take_calls() {
  std::lock_guard lock(mutex_);
  return std::exchange(calls_, {});
}

std::size_t trace_state::errors() const {
  std::lock_guard lock(mutex_);
  return errors_;
}

scoped_run::scoped_run(trace_state& trace, int design)
    : trace_(trace) {
  thread_context& ctx = context_for(trace.epoch());
  const double now = trace.log().now();
  id_ = trace.log().open(layer::run, design, -1, now);
  ctx.design = design;
  ctx.run_span = id_;
  ctx.innermost = id_;
  ctx.mark = now;
  ctx.has_mark = true;
}

scoped_run::~scoped_run() {
  trace_.log().close(id_, trace_.log().now());
  thread_context& ctx = context_for(trace_.epoch());
  ctx.design = -1;
  ctx.run_span = -1;
  ctx.innermost = -1;
}

bool timed_stage::run(isdc::engine::run_state& rs,
                      isdc::engine::iteration_state& it) {
  thread_context& ctx = context_for(trace_.epoch());
  span_log& log = trace_.log();
  const int id = log.open(kind_, ctx.design, ctx.innermost, log.now());
  const bool sync_evaluate =
      kind_ == layer::evaluate && !rs.options.async_evaluation;
  const stage_span_guard guard{trace_, ctx, id, ctx.innermost,
                               sync_evaluate};
  ctx.innermost = id;
  if (sync_evaluate) {
    trace_.sync_evaluate_design = ctx.design;
    trace_.sync_evaluate = id;
  }
  return inner_->run(rs, it);
}

std::vector<std::unique_ptr<isdc::engine::stage>> traced_pipeline(
    trace_state& trace) {
  std::vector<std::unique_ptr<isdc::engine::stage>> stages;
  for (std::unique_ptr<isdc::engine::stage>& st :
       isdc::engine::engine::default_pipeline()) {
    const layer kind = stage_layer(st->name());
    stages.push_back(
        std::make_unique<timed_stage>(std::move(st), kind, trace));
  }
  return stages;
}

double timed_tool::subgraph_delay_ps(const isdc::ir::graph& sub) const {
  thread_context& ctx = context_for(trace_.epoch());
  span_log& log = trace_.log();
  int parent = ctx.innermost;
  int design = ctx.design;
  if (parent < 0) {
    // A pool thread: in sync mode the call belongs to the one evaluate
    // stage in progress; async calls stay unattributed.
    parent = trace_.sync_evaluate.load();
    design = parent >= 0 ? trace_.sync_evaluate_design.load() : -1;
  }
  const double begin = log.now();
  const int id = log.open(layer::downstream, design, parent, begin);
  double delay_ps = 0.0;
  try {
    delay_ps = inner_.subgraph_delay_ps(sub);
  } catch (...) {
    log.close(id, log.now());
    trace_.record_error();
    throw;
  }
  const double end = log.now();
  log.close(id, end);
  trace_.record_call(downstream_call{sub, delay_ps, end - begin});
  return delay_ps;
}

void run_observer::add_design(const isdc::ir::graph* g, int design) {
  designs_[g] = design;
}

void run_observer::on_run_begin(const isdc::ir::graph& g,
                                const isdc::core::isdc_options& /*options*/) {
  thread_context& ctx = context_for(trace_.epoch());
  span_log& log = trace_.log();
  const double now = log.now();
  if (ctx.run_span < 0) {
    // A fleet job on a shard thread. Its run began when the shard took it:
    // at the batch start for the shard's first job, else when the shard's
    // previous job ended.
    const auto found = designs_.find(&g);
    ctx.design = found != designs_.end() ? found->second : -1;
    if (!ctx.has_mark) {
      ctx.mark = batch_start_;
    }
    ctx.run_span = log.open(layer::run, ctx.design, -1, ctx.mark);
    ctx.innermost = ctx.run_span;
    ctx.owns_run = true;
  }
  const int pre = log.open(layer::pre_loop, ctx.design, ctx.run_span,
                           ctx.mark);
  log.close(pre, now);
  ctx.component_begin = ctx.mark;
}

void run_observer::on_iteration(const isdc::core::iteration_record& rec) {
  std::lock_guard lock(mutex_);
  if (rec.iteration > 0) {
    ++counters_.iterations;
  }
  counters_.async_dispatched += rec.evaluations_dispatched;
  counters_.async_coalesced += rec.evaluations_coalesced;
  counters_.in_flight_max =
      std::max(counters_.in_flight_max,
               static_cast<std::int64_t>(rec.evaluations_in_flight));
  counters_.ssp_paths += static_cast<std::int64_t>(rec.solver_ssp_paths);
  counters_.constraints_reemitted +=
      static_cast<std::int64_t>(rec.constraints_reemitted);
}

void run_observer::on_run_end(const isdc::core::isdc_result& /*result*/) {
  thread_context& ctx = context_for(trace_.epoch());
  span_log& log = trace_.log();
  const double now = log.now();
  {
    std::lock_guard lock(mutex_);
    counters_.component_s_max =
        std::max(counters_.component_s_max, now - ctx.component_begin);
  }
  if (ctx.owns_run) {
    log.close(ctx.run_span, now);
    ctx.run_span = -1;
    ctx.innermost = -1;
    ctx.design = -1;
    ctx.owns_run = false;
  }
  ctx.mark = now;
  ctx.has_mark = true;
}

observed_counters run_observer::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

}  // namespace perfbench
