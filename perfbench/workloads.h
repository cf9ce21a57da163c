// The benchmark's workloads: what each one builds from its seed, how it is
// set up and run, and how its returned schedules are checked.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/downstream.h"
#include "core/isdc_scheduler.h"
#include "engine/engine.h"
#include "engine/fleet.h"
#include "ir/graph.h"
#include "probes.h"
#include "synth/characterizer.h"

namespace perfbench {

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The downstream flow behind a workload's tool. The pass-by-pass replay
/// follows the same flow, so it is spelled out here rather than hidden in
/// a registry spec string.
struct tool_config {
  bool full_synthesis = true;  ///< synthesis + STA; else optimized AIG depth
  isdc::synth::synthesis_options synth;
  double ps_per_level = 80.0;  ///< AIG-depth flow only
  double offset_ps = 0.0;      ///< AIG-depth flow only
  double latency_ms = 0.0;     ///< injected round trip; 0 = none
  double jitter_ms = 0.0;
};

struct workload_spec {
  std::string name;
  tool_config tool;
  /// Options of every run; each design overrides the clock period.
  isdc::core::isdc_options options;
  bool fleet = false;  ///< one engine::fleet for all designs
  int shards = 4;
  /// One pre-characterized delay model shared by all designs (set up
  /// before the timed pass); otherwise each run characterizes its own.
  bool shared_model = false;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<workload_spec>& all_workloads();
/// Throws std::invalid_argument for an unknown name.
const workload_spec& find_workload(const std::string& name);

struct design {
  std::string name;
  std::shared_ptr<const isdc::ir::graph> graph;  ///< shared by clock variants
  double clock_ps = 0.0;
};

/// The designs a workload schedules for `seed`, in submission order.
std::vector<design> build_designs(const workload_spec& spec,
                                  std::uint64_t seed);

/// A copy of `g` with its nodes renumbered in a seeded random topological
/// order: the same design, handed to the scheduler in another order.
isdc::ir::graph relabel(const isdc::ir::graph& g, std::uint64_t seed);

/// The tool a workload's runs call, and the same flow without the injected
/// latency, which sign-off uses.
struct tool_chain {
  std::unique_ptr<isdc::core::downstream_tool> flow;
  std::unique_ptr<isdc::core::downstream_tool> padded;  ///< null: no latency
  const isdc::core::downstream_tool& run_tool() const {
    return padded ? *padded : *flow;
  }
};
tool_chain make_tools(const tool_config& config);

/// Everything the timed pass needs, built by setup(). With a trace, the
/// engine runs the traced pipeline and the observer is registered.
struct prepared {
  std::vector<design> designs;
  tool_chain tools;
  std::unique_ptr<isdc::synth::delay_model> model;  ///< shared_model only
  std::unique_ptr<isdc::engine::engine> engine;     ///< direct workloads
  std::unique_ptr<isdc::engine::fleet> fleet;       ///< fleet workloads
  double characterize_s = 0.0;  ///< pre-warming the shared model
};
prepared setup(const workload_spec& spec, std::uint64_t seed,
               trace_state* trace, run_observer* observer);

/// One design's outcome in a pass.
struct design_result {
  std::optional<isdc::core::isdc_result> result;  ///< empty: the run threw
  std::string error;
};

struct pass_result {
  double wall_s = 0.0;
  std::vector<design_result> designs;
  isdc::engine::evaluation_cache::counters cache_delta;
  std::vector<double> job_seconds;  ///< fleet workloads only
};

/// Runs every design once through the prepared engine or fleet. `tool` is
/// the tool the runs call (the traced pass wraps run_tool()). Timing
/// starts when the designs are handed over and stops when the last
/// schedule returns.
pass_result run_pass(const workload_spec& spec, prepared& p,
                     const isdc::core::downstream_tool& tool,
                     trace_state* trace, run_observer* observer);

/// The combinational cloud of every stage of `s` that holds logic, by the
/// rule of sched::synthesized_stage_delay: the stage's non-input,
/// non-constant nodes, rooted at outputs and at values used in a later
/// stage. Sign-off measures each with the workload's own tool.
std::vector<isdc::ir::graph> stage_clouds(const isdc::ir::graph& g,
                                          const isdc::sched::schedule& s);

/// True when every operand of every node is scheduled no later than it.
bool dependence_order_holds(const isdc::ir::graph& g,
                            const isdc::sched::schedule& s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
