#include "replay.h"

#include <chrono>

#include "aig/balance.h"
#include "aig/refactor.h"
#include "aig/rewrite.h"
#include "extract/partition.h"
#include "lower/lowering.h"
#include "sched/delay_matrix.h"
#include "sched/scheduler_instance.h"
#include "support/thread_pool.h"
#include "synth/sta.h"
#include "synth/synthesis.h"
#include "synth/techmap.h"

namespace perfbench {

namespace {

using steady = std::chrono::steady_clock;

/// Times `fn` into `total` and returns its result.
template <typename F>
auto timed(double& total, F&& fn) {
  const auto start = steady::now();
  auto result = fn();
  total += seconds_since(start);
  return result;
}

/// One downstream call rerun pass by pass. The loop is synth::optimize's;
/// the rest is synth::synthesize_graph's, or aig_depth_downstream's.
pass_replay replay_one(const downstream_call& call, const tool_config& tool) {
  pass_replay r;
  const isdc::synth::synthesis_options& opts = tool.synth;
  isdc::aig::aig g = timed(r.lower_s, [&] {
    const isdc::lower::lowering_result lowered =
        isdc::lower::lower_graph(call.subgraph);
    r.ands_lowered = static_cast<std::int64_t>(lowered.net.num_ands());
    return lowered.net.cleanup();
  });
  for (int round = 0; round < opts.opt_rounds; ++round) {
    const int depth_before = g.depth();
    const std::size_t size_before = g.num_ands();
    g = timed(r.balance_s, [&] { return isdc::aig::balance(g); });
    if (opts.use_rewrite) {
      g = timed(r.rewrite_s, [&] { return isdc::aig::rewrite(g); });
    }
    if (opts.use_refactor) {
      g = timed(r.refactor_s, [&] { return isdc::aig::refactor(g); });
    }
    g = timed(r.balance_s, [&] { return isdc::aig::balance(g); });
    if (g.depth() >= depth_before && g.num_ands() >= size_before) {
      break;
    }
  }
  g = g.cleanup();
  r.ands_optimized = static_cast<std::int64_t>(g.num_ands());

  double delay_ps = 0.0;
  if (tool.full_synthesis) {
    const isdc::synth::netlist mapped = timed(r.techmap_s, [&] {
      return isdc::synth::technology_map(g, isdc::synth::default_library(),
                                         opts.mapping);
    });
    delay_ps = timed(r.sta_s, [&] {
                 return isdc::synth::analyze(mapped);
               }).critical_delay_ps;
  } else {
    delay_ps = tool.offset_ps + tool.ps_per_level * g.depth();
  }
  r.mismatches = delay_ps == call.delay_ps ? 0 : 1;
  return r;
}

/// Characterizes a fresh model on `g` (timed separately), then builds the
/// initial matrix and cold-solves it. Returns whether the schedule equals
/// `expected`.
isdc::sched::schedule cold_solve(const isdc::ir::graph& g,
                                 const isdc::synth::delay_model* shared,
                                 const isdc::core::isdc_options& options,
                                 solve_replay& out) {
  isdc::synth::delay_model local(options.synth);
  const isdc::synth::delay_model& model = shared != nullptr ? *shared : local;
  if (shared == nullptr) {
    timed(out.characterize_s, [&] {
      for (isdc::ir::node_id v = 0; v < g.num_nodes(); ++v) {
        local.node_delay_ps(g, v);
      }
      return 0;
    });
  }
  const isdc::sched::delay_matrix d = timed(out.matrix_init_s, [&] {
    return isdc::sched::delay_matrix::initial(
        g, [&](isdc::ir::node_id v) { return model.node_delay_ps(g, v); });
  });
  return timed(out.cold_solve_s, [&] {
    isdc::sched::scheduler_instance scheduler(g, options.base);
    return scheduler.solve(d);
  });
}

}  // namespace

pass_replay replay_calls(const std::vector<downstream_call>& calls,
                         const tool_config& tool, isdc::thread_pool& pool) {
  std::vector<pass_replay> each(calls.size());
  pool.parallel_for(calls.size(), [&](std::size_t i) {
    each[i] = replay_one(calls[i], tool);
  });
  pass_replay total;
  for (const pass_replay& r : each) {
    total.lower_s += r.lower_s;
    total.balance_s += r.balance_s;
    total.rewrite_s += r.rewrite_s;
    total.refactor_s += r.refactor_s;
    total.techmap_s += r.techmap_s;
    total.sta_s += r.sta_s;
    total.ands_lowered += r.ands_lowered;
    total.ands_optimized += r.ands_optimized;
    total.mismatches += r.mismatches;
  }
  return total;
}

solve_replay replay_cold_solves(const workload_spec& spec, const prepared& p,
                                const std::vector<design_result>& results) {
  // The model the engine used: the shared one, or a fresh one per run.
  const isdc::synth::delay_model* shared =
      spec.fleet ? &p.fleet->model() : p.model.get();
  solve_replay out;
  for (std::size_t i = 0; i < p.designs.size(); ++i) {
    if (!results[i].result.has_value()) {
      continue;  // the run threw; already counted as failed
    }
    const isdc::core::isdc_result& result = *results[i].result;
    const isdc::ir::graph& g = *p.designs[i].graph;
    isdc::core::isdc_options options = spec.options;
    options.base.clock_period_ps = p.designs[i].clock_ps;

    std::vector<isdc::extract::design_component> components;
    if (options.memory_budget_mb > 0.0) {
      components = timed(out.split_s, [&] {
        return isdc::extract::weakly_connected_components(g);
      });
      out.components += static_cast<std::int64_t>(components.size());
    }
    if (components.size() <= 1) {
      if (cold_solve(g, shared, options, out) != result.initial) {
        ++out.mismatches;
      }
      continue;
    }
    // engine::run_partitioned: one run per component, in order.
    for (const isdc::extract::design_component& comp : components) {
      const isdc::ir::extraction part =
          isdc::extract::extract_component(g, comp);
      const isdc::sched::schedule s = cold_solve(part.g, shared, options, out);
      for (const auto& [original, sub] : part.to_sub) {
        if (result.initial.cycle[original] != s.cycle[sub]) {
          ++out.mismatches;
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace perfbench
