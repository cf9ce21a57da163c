// isdc_perfbench: runs one benchmark workload and prints its metrics.
//
//   isdc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics: the workload is set up and
// run, untraced, while the next pass is expected to end within S seconds
// (at least once), and each metric is the median over those passes.
// --trace 1 alternates untraced and traced passes the same way and reports
// the per-layer metrics of the last traced pass, after replaying its
// downstream calls and baseline solves (see replay.h). Every returned
// schedule is checked in both modes.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when a check fails (a run threw, a schedule is
// illegal, a sync pass was not reproducible, a replay did not match, the
// span tree of the traced pass is broken), 2 on bad arguments.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "replay.h"
#include "sched/metrics.h"
#include "support/mem.h"
#include "support/thread_pool.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using steady = std::chrono::steady_clock;

/// Exact quantile by linear interpolation between order statistics (q =
/// 0.5 is the median).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

struct metric {
  double value = 0.0;
  const char* unit = "";
};
using metric_map = std::map<std::string, metric>;

/// What checking one pass's returned schedules found.
struct pass_quality {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< threw or returned an illegal schedule
  std::int64_t clock_misses = 0;  ///< legal, but negative sign-off slack
  std::int64_t register_bits = 0;
  double register_ratio = 0.0;  ///< geomean ISDC / SDC register bits
  std::int64_t stages = 0;
  double worst_clock_use = 0.0;  ///< max stage-cloud delay / clock
  double min_slack_ps = 0.0;
  double signoff_s = 0.0;
  std::vector<std::string> rows;  ///< one line per design
};

/// One design's sign-off: schedule metrics and its largest stage-cloud
/// delay under the workload's own tool.
struct signoff {
  std::int64_t register_bits = 0;
  std::int64_t initial_register_bits = 0;
  int stages = 0;
  double critical_ps = 0.0;
};

/// Checks every returned schedule: dependence order (independently of the
/// scheduler), then every stage cloud of every design measured in one
/// parallel batch. Sync workloads are deterministic: a schedule seen in an
/// earlier pass must come back identical, and its sign-off is reused; a
/// different one fails the run.
class checker {
public:
  checker(const workload_spec& spec, isdc::thread_pool& pool)
      : spec_(spec), pool_(pool), tools_(make_tools(spec.tool)) {}

  pass_quality check(const prepared& p, const pass_result& r) {
    const auto start = steady::now();
    pass_quality q;
    std::vector<std::optional<signoff>> done(p.designs.size());
    std::vector<std::pair<std::size_t, isdc::ir::graph>> clouds;
    for (std::size_t i = 0; i < p.designs.size(); ++i) {
      const design& d = p.designs[i];
      const design_result& dr = r.designs[i];
      ++q.attempted;
      if (!dr.result.has_value()) {
        ++q.failed;
        std::fprintf(stderr, "perfbench: %s threw: %s\n", d.name.c_str(),
                     dr.error.c_str());
        continue;
      }
      const isdc::core::isdc_result& res = *dr.result;
      if (!dependence_order_holds(*d.graph, res.final_schedule) ||
          !dependence_order_holds(*d.graph, res.initial)) {
        ++q.failed;
        std::fprintf(stderr, "perfbench: %s returned an illegal schedule\n",
                     d.name.c_str());
        continue;
      }
      if (!spec_.options.async_evaluation) {
        const auto seen = seen_.find(d.name);
        if (seen != seen_.end()) {
          if (seen->second.first == res.final_schedule) {
            done[i] = seen->second.second;
            continue;
          }
          reproducible_ = false;
          std::fprintf(stderr,
                       "perfbench: %s: a sync pass returned another "
                       "schedule\n",
                       d.name.c_str());
        }
      }
      done[i] = signoff{isdc::sched::register_bits(*d.graph,
                                                   res.final_schedule),
                        isdc::sched::register_bits(*d.graph, res.initial),
                        res.final_schedule.num_stages(), 0.0};
      for (isdc::ir::graph& cloud :
           stage_clouds(*d.graph, res.final_schedule)) {
        clouds.emplace_back(i, std::move(cloud));
      }
    }
    std::vector<double> delay(clouds.size(), 0.0);
    pool_.parallel_for(clouds.size(), [&](std::size_t c) {
      delay[c] = tools_.flow->subgraph_delay_ps(clouds[c].second);
    });
    for (std::size_t c = 0; c < clouds.size(); ++c) {
      signoff& s = *done[clouds[c].first];
      s.critical_ps = std::max(s.critical_ps, delay[c]);
    }

    double log_ratio = 0.0;
    std::int64_t signed_off = 0;
    for (std::size_t i = 0; i < p.designs.size(); ++i) {
      if (!done[i].has_value()) {
        continue;
      }
      const design& d = p.designs[i];
      const signoff& s = *done[i];
      if (!spec_.options.async_evaluation && !seen_.contains(d.name)) {
        seen_.emplace(d.name,
                      std::make_pair(r.designs[i].result->final_schedule, s));
      }
      const double slack = d.clock_ps - s.critical_ps;
      if (slack < 0.0) {
        ++q.clock_misses;
      }
      q.min_slack_ps =
          signed_off == 0 ? slack : std::min(q.min_slack_ps, slack);
      q.worst_clock_use =
          std::max(q.worst_clock_use, s.critical_ps / d.clock_ps);
      q.register_bits += s.register_bits;
      q.stages += s.stages;
      log_ratio += std::log(static_cast<double>(s.register_bits) /
                            static_cast<double>(s.initial_register_bits));
      ++signed_off;
      char row[160];
      std::snprintf(row, sizeof row,
                    "  %-28s clk %6.0f ps  slack %7.1f ps  stages %3d  "
                    "regs %6lld -> %6lld",
                    d.name.c_str(), d.clock_ps, slack, s.stages,
                    static_cast<long long>(s.initial_register_bits),
                    static_cast<long long>(s.register_bits));
      q.rows.emplace_back(row);
    }
    q.register_ratio =
        signed_off > 0
            ? std::exp(log_ratio / static_cast<double>(signed_off))
            : 0.0;
    q.signoff_s = seconds_since(start);
    return q;
  }

  bool reproducible() const { return reproducible_; }

private:
  const workload_spec& spec_;
  isdc::thread_pool& pool_;
  tool_chain tools_;  ///< flow: the workload's tool without latency
  std::map<std::string, std::pair<isdc::sched::schedule, signoff>> seen_;
  bool reproducible_ = true;
};

/// The per-layer self times of one traced pass: each instant of the pass
/// is charged to the deepest layer with an open span (split evenly when
/// several layers at that depth are open at once, as with concurrent fleet
/// shards); instants no span covers are the remainder. For one design at a
/// time this is each layer's span time minus the time its child spans
/// cover.
struct self_times {
  double layer_s[num_layers] = {};
  double remainder_s = 0.0;
};

self_times account(const std::vector<span>& spans, double w0, double w1) {
  struct event {
    double t;
    int delta;
    int layer_index;
  };
  std::vector<event> events;
  for (const span& s : spans) {
    const double b = std::clamp(s.begin, w0, w1);
    const double e = std::clamp(s.end, w0, w1);
    if (e > b) {
      events.push_back({b, +1, static_cast<int>(s.kind)});
      events.push_back({e, -1, static_cast<int>(s.kind)});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const event& a, const event& b) { return a.t < b.t; });
  self_times out;
  int open[num_layers] = {};
  double prev = w0;
  const auto charge = [&](double dt) {
    int depth = 0;
    for (int l = 0; l < num_layers; ++l) {
      if (open[l] > 0) {
        depth = std::max(depth, layer_depth(static_cast<layer>(l)));
      }
    }
    if (depth == 0) {
      out.remainder_s += dt;
      return;
    }
    int sharing = 0;
    for (int l = 0; l < num_layers; ++l) {
      sharing += open[l] > 0 && layer_depth(static_cast<layer>(l)) == depth;
    }
    for (int l = 0; l < num_layers; ++l) {
      if (open[l] > 0 && layer_depth(static_cast<layer>(l)) == depth) {
        out.layer_s[l] += dt / sharing;
      }
    }
  };
  for (const event& ev : events) {
    charge(ev.t - prev);
    prev = ev.t;
    open[ev.layer_index] += ev.delta;
  }
  charge(w1 - prev);
  return out;
}

/// Sorted, disjoint [begin, end) intervals.
using intervals = std::vector<std::pair<double, double>>;

intervals merged(intervals xs) {
  std::sort(xs.begin(), xs.end());
  intervals out;
  for (const auto& [b, e] : xs) {
    if (e <= b) {
      continue;
    }
    if (!out.empty() && b <= out.back().second) {
      out.back().second = std::max(out.back().second, e);
    } else {
      out.emplace_back(b, e);
    }
  }
  return out;
}

/// [b, e) minus the merged intervals `cut`.
intervals minus(double b, double e, const intervals& cut) {
  intervals out;
  for (const auto& [cb, ce] : cut) {
    if (ce <= b || cb >= e) {
      continue;
    }
    if (cb > b) {
      out.emplace_back(b, cb);
    }
    b = std::max(b, ce);
  }
  if (e > b) {
    out.emplace_back(b, e);
  }
  return out;
}

double covered_s(const intervals& merged_xs) {
  double total = 0.0;
  for (const auto& [b, e] : merged_xs) {
    total += e - b;
  }
  return total;
}

/// Checks the span tree of one traced pass against the sweep's self times
/// and prints what does not hold. Every span must be closed, lie inside the
/// traced window and inside its parent, sit deeper than its parent and
/// belong to the same design. With one design at a time (`by_parent`), each
/// layer's self time is recomputed from the parent links, as the time its
/// spans cover minus the time their own child spans cover, and the
/// remainder as the window minus the top-level spans; both must equal the
/// sweep's. A mis-parented, leaked or stray span breaks one of these.
bool span_tree_holds(const std::vector<span>& spans, double w0, double w1,
                     bool by_parent, const self_times& swept) {
  std::size_t bad = 0;
  const auto report = [&](std::size_t i, const char* what) {
    if (bad++ < 5) {
      std::fprintf(stderr, "perfbench: %s span %zu (design %d) %s\n",
                   layer_name(spans[i].kind), i, spans[i].design, what);
    }
  };
  std::vector<intervals> children(spans.size());
  intervals top;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    if (!s.closed) {
      report(i, "was never closed");
    } else if (s.begin < w0 || s.end > w1 || s.end < s.begin) {
      report(i, "lies outside the traced pass");
    }
    if (s.parent < 0) {
      top.emplace_back(s.begin, s.end);
      continue;
    }
    const span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.begin < p.begin || s.end > p.end) {
      report(i, "lies outside its parent");
    }
    if (layer_depth(s.kind) <= layer_depth(p.kind) || s.design != p.design) {
      report(i, "has a parent of the wrong layer or design");
    }
    children[static_cast<std::size_t>(s.parent)].emplace_back(s.begin,
                                                              s.end);
  }
  if (by_parent) {
    const double tolerance = 1e-6 * (w1 - w0) + 1e-9;
    std::vector<intervals> self(num_layers);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const intervals own =
          minus(spans[i].begin, spans[i].end, merged(children[i]));
      intervals& into = self[static_cast<int>(spans[i].kind)];
      into.insert(into.end(), own.begin(), own.end());
    }
    for (int l = 0; l < num_layers; ++l) {
      const double s = covered_s(merged(self[l]));
      if (std::abs(s - swept.layer_s[l]) > tolerance) {
        ++bad;
        std::fprintf(stderr,
                     "perfbench: %s self time is %.9f s by parent links, "
                     "%.9f s by the sweep\n",
                     layer_name(static_cast<layer>(l)), s, swept.layer_s[l]);
      }
    }
    const double remainder = (w1 - w0) - covered_s(merged(top));
    if (std::abs(remainder - swept.remainder_s) > tolerance) {
      ++bad;
      std::fprintf(stderr,
                   "perfbench: remainder is %.9f s by parent links, %.9f s "
                   "by the sweep\n",
                   remainder, swept.remainder_s);
    }
  }
  return bad == 0;
}

/// The engine's own per-stage wall histograms (microseconds). The engine
/// records them on every run, decorated or not, so they time the stages of
/// fleet jobs too, whose engine engine::fleet builds without decorators.
std::map<std::string, double> stage_histogram_sums() {
  std::map<std::string, double> sums;
  for (const layer l : engine_stages) {
    sums[layer_name(l)] =
        isdc::telemetry::get_histogram(std::string("engine.stage.") +
                                       layer_name(l) + ".wall_us")
            .snapshot()
            .sum *
        1e-6;
  }
  return sums;
}

/// Everything kept from the last traced pass.
struct traced_pass {
  std::unique_ptr<trace_state> trace;
  std::unique_ptr<run_observer> observer;
  std::unique_ptr<prepared> setup;
  pass_result result;
  double w0 = 0.0;
  double w1 = 0.0;
  std::map<std::string, double> stage_s;  ///< histogram deltas
};

traced_pass run_traced(const workload_spec& spec, std::uint64_t seed) {
  traced_pass t;
  t.trace = std::make_unique<trace_state>();
  t.observer = std::make_unique<run_observer>(*t.trace);
  t.setup = std::make_unique<prepared>(
      setup(spec, seed, t.trace.get(), t.observer.get()));
  const timed_tool tool(t.setup->tools.run_tool(), *t.trace);
  const std::map<std::string, double> before = stage_histogram_sums();
  t.w0 = t.trace->log().now();
  t.result = run_pass(spec, *t.setup, tool, t.trace.get(), t.observer.get());
  t.w1 = t.trace->log().now();
  for (const auto& [stage, after] : stage_histogram_sums()) {
    t.stage_s[stage] = after - before.at(stage);
  }
  return t;
}

metric_map per_layer_metrics(const workload_spec& spec, traced_pass& t,
                             double untraced_wall_s, double traced_wall_s,
                             double signoff_s, isdc::thread_pool& pool,
                             bool& correct) {
  metric_map m;
  const std::vector<span> spans = t.trace->log().spans();
  double pre_loop_s = 0.0;
  for (const span& s : spans) {
    if (s.kind == layer::pre_loop) {
      pre_loop_s += s.end - s.begin;
    }
  }
  m["engine.pre_loop_s"] = {pre_loop_s, "s"};
  for (const layer l : engine_stages) {
    m[std::string("engine.") + layer_name(l) + "_s"] = {
        t.stage_s.at(layer_name(l)), "s"};
  }
  const observed_counters c = t.observer->counters();
  m["engine.iterations"] = {static_cast<double>(c.iterations), "count"};

  const std::vector<downstream_call> calls = t.trace->take_calls();
  std::vector<double> call_ms;
  std::vector<double> nodes;
  double busy_s = 0.0;
  for (const downstream_call& call : calls) {
    call_ms.push_back(call.seconds * 1e3);
    nodes.push_back(static_cast<double>(call.subgraph.num_nodes()));
    busy_s += call.seconds;
  }
  m["downstream.calls"] = {static_cast<double>(calls.size()), "count"};
  m["downstream.busy_s"] = {busy_s, "s"};
  m["downstream.call_ms_p50"] = {quantile(call_ms, 0.50), "ms"};
  m["downstream.call_ms_p99"] = {quantile(call_ms, 0.99), "ms"};
  m["downstream.subgraph_nodes_p50"] = {quantile(nodes, 0.50), "count"};
  m["downstream.subgraph_nodes_max"] = {quantile(nodes, 1.0), "count"};
  m["downstream.errors"] = {static_cast<double>(t.trace->errors()), "count"};
  const double evaluate_s = m["engine.evaluate_s"].value;
  const double width =
      isdc::engine::evaluation_pool_width(spec.options) *
      (spec.fleet ? spec.shards : 1);
  m["engine.evaluate_overlap"] = {
      evaluate_s > 0.0 ? busy_s / (evaluate_s * width) : 0.0, "ratio"};

  const isdc::engine::evaluation_cache::counters& cache =
      t.result.cache_delta;
  const double lookups =
      static_cast<double>(cache.hits + cache.misses + cache.coalesced);
  m["cache.hits"] = {static_cast<double>(cache.hits), "count"};
  m["cache.misses"] = {static_cast<double>(cache.misses), "count"};
  m["cache.coalesced"] = {static_cast<double>(cache.coalesced), "count"};
  m["cache.hit_ratio"] = {
      lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0,
      "ratio"};

  m["engine.async_dispatched"] = {static_cast<double>(c.async_dispatched),
                                  "count"};
  m["engine.async_coalesced"] = {static_cast<double>(c.async_coalesced),
                                 "count"};
  m["engine.in_flight_max"] = {static_cast<double>(c.in_flight_max),
                               "count"};
  const std::vector<double>& jobs = t.result.job_seconds;
  double job_total = 0.0;
  for (const double s : jobs) {
    job_total += s;
  }
  m["fleet.job_s_p50"] = {quantile(jobs, 0.50), "s"};
  m["fleet.job_s_max"] = {quantile(jobs, 1.0), "s"};
  m["fleet.shard_busy_share"] = {
      jobs.empty() ? 0.0
                   : job_total / (t.result.wall_s * spec.shards),
      "ratio"};

  const solve_replay solves =
      replay_cold_solves(spec, *t.setup, t.result.designs);
  m["sched.matrix_init_s"] = {solves.matrix_init_s, "s"};
  m["sdc.cold_solve_s"] = {solves.cold_solve_s, "s"};
  m["sdc.ssp_paths"] = {static_cast<double>(c.ssp_paths), "count"};
  m["sdc.constraints_reemitted"] = {
      static_cast<double>(c.constraints_reemitted), "count"};

  const pass_replay passes = replay_calls(calls, spec.tool, pool);
  m["lower.lower_graph_s"] = {passes.lower_s, "s"};
  m["aig.balance_s"] = {passes.balance_s, "s"};
  m["aig.rewrite_s"] = {passes.rewrite_s, "s"};
  m["aig.refactor_s"] = {passes.refactor_s, "s"};
  m["synth.techmap_s"] = {passes.techmap_s, "s"};
  m["synth.sta_s"] = {passes.sta_s, "s"};
  m["aig.ands_lowered"] = {static_cast<double>(passes.ands_lowered),
                           "count"};
  m["aig.ands_optimized"] = {static_cast<double>(passes.ands_optimized),
                             "count"};
  m["synth.characterize_s"] = {
      spec.shared_model ? t.setup->characterize_s : solves.characterize_s,
      "s"};

  m["partition.components"] = {static_cast<double>(solves.components),
                               "count"};
  m["partition.split_s"] = {solves.split_s, "s"};
  m["partition.component_s_max"] = {c.component_s_max, "s"};

  const self_times self = account(spans, t.w0, t.w1);
  for (int l = 0; l < num_layers; ++l) {
    m[std::string("self.") + layer_name(static_cast<layer>(l)) + "_s"] = {
        self.layer_s[l], "s"};
  }
  m["self.remainder_s"] = {self.remainder_s, "s"};
  m["trace.wall_s"] = {t.w1 - t.w0, "s"};
  m["trace_overhead"] = {traced_wall_s / untraced_wall_s, "ratio"};
  m["signoff_s"] = {signoff_s, "s"};

  if (passes.mismatches != 0) {
    std::fprintf(stderr,
                 "perfbench: pass replay did not reproduce %zu of %zu "
                 "downstream delays\n",
                 passes.mismatches, calls.size());
    correct = false;
  }
  if (solves.mismatches != 0) {
    std::fprintf(stderr,
                 "perfbench: cold-solve replay did not reproduce %zu "
                 "baseline schedules\n",
                 solves.mismatches);
    correct = false;
  }
  if (!span_tree_holds(spans, t.w0, t.w1, !spec.fleet, self)) {
    correct = false;
  }
  if (t.trace->errors() != 0) {
    correct = false;
  }
  return m;
}

struct args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse(int argc, char** argv, args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') {
        return false;
      }
    } else if (key == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed &&
         a.seconds > 0.0 && a.trace >= 0;
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const metric_map& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: isdc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const workload_spec* spec_ptr = nullptr;
  try {
    spec_ptr = &find_workload(a.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const workload_spec& spec = *spec_ptr;

  // Setting up is repeated at least min_setups times, so setup_s is a
  // median even when one pass fills the whole run; cheap set-ups repeat
  // until they have taken setup_budget_s.
  constexpr std::size_t min_setups = 3;
  constexpr std::size_t max_setups = 50;
  constexpr double setup_budget_s = 1.0;
  isdc::thread_pool pool(4);  // sign-off and replay only, never timed
  checker check(spec, pool);
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<pass_quality> quality;
  std::vector<double> traced_wall_s;
  std::optional<traced_pass> last_traced;

  // Every checked pass, traced ones included, counts.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t misses = 0;
  const auto tally = [&](pass_quality q) {
    attempted += q.attempted;
    failed += q.failed;
    misses += q.clock_misses;
    return q;
  };

  // Passes repeat while the next one is expected to end within the run's
  // seconds; there is always at least one.
  double peak_rss_mb = 0.0;
  std::size_t total_nodes = 0;
  const auto start = steady::now();
  double round_s = 0.0;
  do {
    const auto round_start = steady::now();
    {
      const auto t0 = steady::now();
      prepared p = setup(spec, a.seed, nullptr, nullptr);
      setup_s.push_back(seconds_since(t0));
      const pass_result r = run_pass(spec, p, p.tools.run_tool(), nullptr,
                                     nullptr);
      if (wall_s.empty()) {
        // Before any sign-off of timed results, whose parallel synthesis
        // of whole stage clouds is no part of the workload.
        peak_rss_mb = static_cast<double>(isdc::peak_rss_kb()) / 1024.0;
      }
      wall_s.push_back(r.wall_s);
      quality.push_back(tally(check.check(p, r)));
      total_nodes = 0;
      for (const design& d : p.designs) {
        total_nodes += d.graph->num_nodes();
      }
    }
    if (a.trace == 1) {
      last_traced.reset();
      last_traced.emplace(run_traced(spec, a.seed));
      tally(check.check(*last_traced->setup, last_traced->result));
      traced_wall_s.push_back(last_traced->result.wall_s);
    }
    round_s = seconds_since(round_start);
  } while (seconds_since(start) + round_s <= a.seconds);
  double setup_total_s = 0.0;
  for (const double s : setup_s) {
    setup_total_s += s;
  }
  while (setup_s.size() < min_setups ||
         (setup_total_s < setup_budget_s && setup_s.size() < max_setups)) {
    const auto t0 = steady::now();
    const prepared p = setup(spec, a.seed, nullptr, nullptr);
    setup_s.push_back(seconds_since(t0));
    setup_total_s += setup_s.back();
  }

  metric_map metrics;
  bool correct = true;
  if (a.trace == 1) {
    // The first pass did the full sign-off; later sync passes reuse it.
    metrics = per_layer_metrics(spec, *last_traced, quantile(wall_s, 0.5),
                                quantile(traced_wall_s, 0.5),
                                quality.front().signoff_s, pool, correct);
  } else {
    const auto med = [&](auto field) {
      std::vector<double> xs;
      for (const pass_quality& q : quality) {
        xs.push_back(static_cast<double>(field(q)));
      }
      return quantile(xs, 0.5);
    };
    metrics["wall_s"] = {quantile(wall_s, 0.5), "s"};
    metrics["setup_s"] = {quantile(setup_s, 0.5), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    metrics["register_bits"] = {
        med([](const pass_quality& q) { return q.register_bits; }), "count"};
    metrics["register_ratio"] = {
        med([](const pass_quality& q) { return q.register_ratio; }),
        "ratio"};
    metrics["stages"] = {med([](const pass_quality& q) { return q.stages; }),
                         "count"};
    metrics["worst_clock_use"] = {
        med([](const pass_quality& q) { return q.worst_clock_use; }),
        "ratio"};
    metrics["failure_rate"] = {
        med([](const pass_quality& q) {
          return static_cast<double>(q.failed + q.clock_misses) /
                 static_cast<double>(q.attempted);
        }),
        "ratio"};
  }
  correct = correct && check.reproducible() && failed == 0;

  const pass_quality& last = quality.back();
  std::printf("workload %s, seed %llu: %zu designs (%zu nodes), %zu timed "
              "untraced passes\n",
              spec.name.c_str(), static_cast<unsigned long long>(a.seed),
              last.rows.size(), total_nodes, wall_s.size());
  for (const std::string& row : last.rows) {
    std::printf("%s\n", row.c_str());
  }
  std::printf("  pass wall times    ");
  for (const double w : wall_s) {
    std::printf(" %.3f", w);
  }
  std::printf(" s\n");
  std::printf("  min_slack_ps       %.1f ps (last pass)\n", last.min_slack_ps);
  std::printf("  failure_rate       %lld/%lld (threw or illegal: %lld, "
              "missed the clock: %lld)\n",
              static_cast<long long>(failed + misses),
              static_cast<long long>(attempted),
              static_cast<long long>(failed), static_cast<long long>(misses));
  std::printf("  signoff_s          %.3f s (first pass)\n",
              quality.front().signoff_s);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-30s %.6g %s\n", name.c_str(), m.value, m.unit);
  }
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
