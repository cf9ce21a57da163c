#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "ir/extract.h"
#include "sched/metrics.h"
#include "support/rng.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using isdc::ir::graph;
using isdc::ir::node_id;

/// Left out of table1 for run time only: together they take ~38 s of the
/// full suite's ~54 s engine time on a 4-core machine, more than one run
/// may spend. All three meet the clock at the parent commit; sha256, which
/// does not, stays in.
const std::unordered_set<std::string> table1_left_out = {
    "ml_datapath0_all", "ml_datapath0_opcode2", "ml_datapath0_opcode3"};

/// The cheap oracle of the stitched and fleet workloads: AIG depth after
/// lowering alone (no optimization rounds), 80 ps per level.
tool_config aig_depth_oracle() {
  tool_config t;
  t.full_synthesis = false;
  t.synth.opt_rounds = 0;
  t.synth.use_rewrite = false;
  t.synth.use_refactor = false;
  return t;
}

std::vector<workload_spec> make_workloads() {
  std::vector<workload_spec> specs;

  workload_spec table1;  // paper settings: 15 iterations, 16 subgraphs, 4
  table1.name = "table1";  // evaluation threads, full synthesis + STA
  table1.shared_model = true;
  specs.push_back(table1);

  workload_spec sweep;
  sweep.name = "fleet_sweep";
  sweep.tool = aig_depth_oracle();
  sweep.tool.latency_ms = 50.0;
  sweep.tool.jitter_ms = 25.0;
  sweep.options.async_evaluation = true;
  sweep.fleet = true;
  sweep.shards = 4;
  sweep.shared_model = true;
  specs.push_back(sweep);

  workload_spec scale;
  scale.name = "scale_partitioned";
  scale.tool = aig_depth_oracle();
  scale.options.memory_budget_mb = 512.0;
  specs.push_back(scale);

  workload_spec large;
  large.name = "large_single";
  large.tool = aig_depth_oracle();
  specs.push_back(large);
  return specs;
}

template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  isdc::rng r(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[r.next_below(i)]);
  }
}

/// Stitched designs are fixed (stitch seed 7, the one isdc_fuzz --scale
/// uses); the run seed only renumbers their nodes.
design stitched(const std::string& name, std::size_t target_nodes,
                isdc::workloads::stitch_mode mode, std::uint64_t seed) {
  isdc::workloads::stitch_options opts;
  opts.mode = mode;
  opts.name = name;
  const graph g = isdc::workloads::stitch_registry(7, target_nodes, opts);
  // The registry mixes 2500 ps and 5000 ps kernels.
  return design{name, std::make_shared<const graph>(relabel(g, seed)),
                5000.0};
}

}  // namespace

const std::vector<workload_spec>& all_workloads() {
  static const std::vector<workload_spec> specs = make_workloads();
  return specs;
}

const workload_spec& find_workload(const std::string& name) {
  for (const workload_spec& spec : all_workloads()) {
    if (spec.name == name) {
      return spec;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<design> build_designs(const workload_spec& spec,
                                  std::uint64_t seed) {
  std::vector<design> designs;
  if (spec.name == "table1") {
    for (const auto& w : isdc::workloads::all_workloads()) {
      if (!table1_left_out.contains(w.name)) {
        designs.push_back(design{w.name, std::make_shared<const graph>(
                                             w.build()),
                                 w.clock_period_ps});
      }
    }
  } else if (spec.name == "fleet_sweep") {
    // Each job gets its own copy of the graph, so the observer can tell
    // the three clock variants of a design apart by graph address.
    for (const auto& w : isdc::workloads::all_workloads()) {
      const graph g = w.build();
      for (const auto& [label, scale] :
           {std::pair{"x1", 1.0}, {"x1.25", 1.25}, {"x1.5", 1.5}}) {
        designs.push_back(design{w.name + "@" + label,
                                 std::make_shared<const graph>(g),
                                 w.clock_period_ps * scale});
      }
    }
  } else if (spec.name == "scale_partitioned") {
    designs.push_back(stitched("scale_partitioned", 10000,
                               isdc::workloads::stitch_mode::parallel, seed));
  } else if (spec.name == "large_single") {
    designs.push_back(stitched("large_single", 3000,
                               isdc::workloads::stitch_mode::chained, seed));
  } else {
    throw std::invalid_argument("no designs for workload '" + spec.name +
                                "'");
  }
  // Submission order comes from the seed; the sync workloads' schedules
  // do not depend on it, the fleet's arrival order does.
  shuffle(designs, seed);
  return designs;
}

graph relabel(const graph& g, std::uint64_t seed) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> pending(n, 0);
  std::vector<std::vector<node_id>> users(n);
  for (node_id v = 0; v < n; ++v) {
    for (const node_id u : g.at(v).operands) {
      ++pending[v];
      users[u].push_back(v);
    }
  }
  std::vector<node_id> ready;
  for (node_id v = 0; v < n; ++v) {
    if (pending[v] == 0) {
      ready.push_back(v);
    }
  }
  isdc::rng r(seed);
  std::vector<node_id> to_new(n, isdc::ir::invalid_node);
  graph out(g.name());
  while (!ready.empty()) {
    const std::size_t pick = r.next_below(ready.size());
    const node_id v = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    const isdc::ir::node& nd = g.at(v);
    std::vector<node_id> operands;
    operands.reserve(nd.operands.size());
    for (const node_id u : nd.operands) {
      operands.push_back(to_new[u]);
    }
    to_new[v] = out.add_node(nd.op, nd.width, std::move(operands), nd.value,
                             nd.name);
    for (const node_id w : users[v]) {
      if (--pending[w] == 0) {
        ready.push_back(w);
      }
    }
  }
  for (const node_id o : g.outputs()) {
    out.mark_output(to_new[o]);
  }
  return out;
}

tool_chain make_tools(const tool_config& config) {
  tool_chain chain;
  if (config.full_synthesis) {
    chain.flow =
        std::make_unique<isdc::core::synthesis_downstream>(config.synth);
  } else {
    chain.flow = std::make_unique<isdc::core::aig_depth_downstream>(
        config.ps_per_level, config.offset_ps, config.synth);
  }
  if (config.latency_ms > 0.0) {
    chain.padded = std::make_unique<isdc::core::latency_downstream>(
        *chain.flow, config.latency_ms, config.jitter_ms);
  }
  return chain;
}

prepared setup(const workload_spec& spec, std::uint64_t seed,
               trace_state* trace, run_observer* observer) {
  prepared p;
  p.designs = build_designs(spec, seed);
  p.tools = make_tools(spec.tool);
  isdc::synth::delay_model* model = nullptr;
  if (spec.fleet) {
    isdc::engine::fleet_options fo;
    fo.shards = spec.shards;
    fo.isdc = spec.options;
    p.fleet = std::make_unique<isdc::engine::fleet>(fo);
    model = &p.fleet->model();
    if (observer != nullptr) {
      p.fleet->shared_engine().add_observer(observer);
    }
  } else {
    p.engine = trace != nullptr ? std::make_unique<isdc::engine::engine>(
                                      traced_pipeline(*trace))
                                : std::make_unique<isdc::engine::engine>();
    if (observer != nullptr) {
      p.engine->add_observer(observer);
    }
    if (spec.shared_model) {
      p.model = std::make_unique<isdc::synth::delay_model>(spec.options.synth);
      model = p.model.get();
    }
  }
  if (spec.shared_model) {
    const auto start = std::chrono::steady_clock::now();
    for (const design& d : p.designs) {
      for (node_id v = 0; v < d.graph->num_nodes(); ++v) {
        model->node_delay_ps(*d.graph, v);
      }
    }
    p.characterize_s = seconds_since(start);
  }
  return p;
}

pass_result run_pass(const workload_spec& spec, prepared& p,
                     const isdc::core::downstream_tool& tool,
                     trace_state* trace, run_observer* observer) {
  pass_result out;
  out.designs.resize(p.designs.size());
  if (spec.fleet) {
    std::vector<isdc::engine::fleet_job> jobs;
    for (std::size_t i = 0; i < p.designs.size(); ++i) {
      const design& d = p.designs[i];
      jobs.push_back({d.name, d.graph.get(), d.clock_ps});
      if (observer != nullptr) {
        observer->add_design(d.graph.get(), static_cast<int>(i));
      }
    }
    if (observer != nullptr && trace != nullptr) {
      observer->set_batch_start(trace->log().now());
    }
    const auto start = std::chrono::steady_clock::now();
    isdc::engine::fleet_report report = p.fleet->run(jobs, tool);
    out.wall_s = seconds_since(start);
    out.cache_delta = report.cache_delta;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      isdc::engine::fleet_result& r = report.results[i];
      out.job_seconds.push_back(r.seconds);
      if (r.error == nullptr) {
        out.designs[i].result = std::move(r.result);
        continue;
      }
      try {
        std::rethrow_exception(r.error);
      } catch (const std::exception& e) {
        out.designs[i].error = e.what();
      } catch (...) {
        out.designs[i].error = "unknown exception";
      }
    }
    return out;
  }

  const isdc::engine::evaluation_cache::counters before =
      p.engine->cache().stats();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < p.designs.size(); ++i) {
    const design& d = p.designs[i];
    isdc::core::isdc_options opts = spec.options;
    opts.base.clock_period_ps = d.clock_ps;
    std::optional<scoped_run> span;
    if (trace != nullptr) {
      span.emplace(*trace, static_cast<int>(i));
    }
    try {
      out.designs[i].result = p.engine->run(*d.graph, tool, opts,
                                            p.model.get());
    } catch (const std::exception& e) {
      out.designs[i].error = e.what();
    }
  }
  out.wall_s = seconds_since(start);
  const isdc::engine::evaluation_cache::counters after =
      p.engine->cache().stats();
  out.cache_delta.hits = after.hits - before.hits;
  out.cache_delta.misses = after.misses - before.misses;
  out.cache_delta.coalesced = after.coalesced - before.coalesced;
  return out;
}

bool dependence_order_holds(const graph& g, const isdc::sched::schedule& s) {
  if (s.cycle.size() != g.num_nodes()) {
    return false;
  }
  for (node_id v = 0; v < g.num_nodes(); ++v) {
    if (s.cycle[v] < 0) {
      return false;
    }
    for (const node_id u : g.at(v).operands) {
      if (s.cycle[u] > s.cycle[v]) {
        return false;
      }
    }
  }
  return true;
}

std::vector<graph> stage_clouds(const graph& g,
                                const isdc::sched::schedule& s) {
  const int stages = s.num_stages();
  std::vector<std::vector<node_id>> members(stages);
  std::vector<std::vector<node_id>> roots(stages);
  for (node_id v = 0; v < g.num_nodes(); ++v) {
    const isdc::ir::opcode op = g.at(v).op;
    if (op == isdc::ir::opcode::constant || op == isdc::ir::opcode::input) {
      continue;
    }
    const int stage = s.cycle[v];
    members[stage].push_back(v);
    if (g.is_output(v) || isdc::sched::last_use_stage(g, s, v) > stage) {
      roots[stage].push_back(v);
    }
  }
  std::vector<graph> clouds;
  for (int stage = 0; stage < stages; ++stage) {
    if (!members[stage].empty() && !roots[stage].empty()) {
      clouds.push_back(
          isdc::ir::extract_subgraph(g, members[stage], roots[stage]).g);
    }
  }
  return clouds;
}

}  // namespace perfbench
