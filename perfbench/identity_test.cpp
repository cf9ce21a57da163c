// The benchmark's instruments must not change what they measure: on the
// sync workloads, schedules returned through the traced pipeline, the
// timing tool wrapper and the observer are bit-identical to a plain
// engine::engine{} run.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "ir/verify.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Schedules, history and final matrix of two runs agree exactly.
void expect_same_run(const isdc::core::isdc_result& plain,
                     const isdc::core::isdc_result& traced,
                     const std::string& design) {
  SCOPED_TRACE(design);
  EXPECT_EQ(plain.initial, traced.initial);
  EXPECT_EQ(plain.final_schedule, traced.final_schedule);
  EXPECT_EQ(plain.iterations, traced.iterations);
  EXPECT_TRUE(plain.delays == traced.delays);
  ASSERT_EQ(plain.history.size(), traced.history.size());
  for (std::size_t i = 0; i < plain.history.size(); ++i) {
    const isdc::core::iteration_record& a = plain.history[i];
    const isdc::core::iteration_record& b = traced.history[i];
    EXPECT_EQ(a.register_bits, b.register_bits) << "record " << i;
    EXPECT_EQ(a.num_stages, b.num_stages) << "record " << i;
    EXPECT_EQ(a.estimated_delay_ps, b.estimated_delay_ps) << "record " << i;
    EXPECT_EQ(a.subgraphs_evaluated, b.subgraphs_evaluated) << "record " << i;
    EXPECT_EQ(a.matrix_entries_lowered, b.matrix_entries_lowered)
        << "record " << i;
    EXPECT_EQ(a.solver_ssp_paths, b.solver_ssp_paths) << "record " << i;
    EXPECT_EQ(a.constraints_reemitted, b.constraints_reemitted)
        << "record " << i;
  }
}

/// Runs `workload` plainly and through every instrument, optionally on a
/// subset of its designs, and compares the two passes design by design.
void expect_instruments_change_nothing(
    const std::string& workload, const std::set<std::string>& subset = {}) {
  const workload_spec& spec = find_workload(workload);
  ASSERT_FALSE(spec.options.async_evaluation);
  const auto keep_subset = [&](prepared& p) {
    if (!subset.empty()) {
      std::erase_if(p.designs, [&](const design& d) {
        return !subset.contains(d.name);
      });
      ASSERT_EQ(p.designs.size(), subset.size());
    }
  };

  prepared plain = setup(spec, 1, nullptr, nullptr);
  keep_subset(plain);
  const pass_result a =
      run_pass(spec, plain, plain.tools.run_tool(), nullptr, nullptr);

  trace_state trace;
  run_observer observer(trace);
  prepared traced = setup(spec, 1, &trace, &observer);
  keep_subset(traced);
  const timed_tool tool(traced.tools.run_tool(), trace);
  const pass_result b = run_pass(spec, traced, tool, &trace, &observer);

  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    ASSERT_TRUE(a.designs[i].result.has_value()) << a.designs[i].error;
    ASSERT_TRUE(b.designs[i].result.has_value()) << b.designs[i].error;
    expect_same_run(*a.designs[i].result, *b.designs[i].result,
                    plain.designs[i].name);
  }
  EXPECT_EQ(a.cache_delta.hits, b.cache_delta.hits);
  EXPECT_EQ(a.cache_delta.misses, b.cache_delta.misses);
  // The instruments did record: downstream calls (isomorphic misses in
  // one batch share a call) and spans.
  const std::size_t calls = trace.take_calls().size();
  EXPECT_GT(calls, 0u);
  EXPECT_LE(calls, b.cache_delta.misses);
  EXPECT_FALSE(trace.log().spans().empty());
}

TEST(Instruments, Table1SubsetUnchanged) {
  expect_instruments_change_nothing(
      "table1", {"ml_datapath1", "rrot", "binary_divide", "hsv2rgb", "crc32",
                 "video_core"});
}

TEST(Instruments, ScalePartitionedUnchanged) {
  expect_instruments_change_nothing("scale_partitioned");
}

TEST(Instruments, LargeSingleUnchanged) {
  expect_instruments_change_nothing("large_single");
}

TEST(Relabel, SameDesignInAnotherOrder) {
  const isdc::ir::graph g =
      *build_designs(find_workload("large_single"), 1).front().graph;
  const isdc::ir::graph r = relabel(g, 99);
  EXPECT_EQ(isdc::ir::verify(r), "");
  ASSERT_EQ(r.num_nodes(), g.num_nodes());
  EXPECT_EQ(r.outputs().size(), g.outputs().size());
  EXPECT_EQ(r.total_output_bits(), g.total_output_bits());
  EXPECT_NE(r.fingerprint(), g.fingerprint());
  EXPECT_EQ(relabel(g, 99).fingerprint(), r.fingerprint());
  std::multiset<int> ops_g;
  std::multiset<int> ops_r;
  for (isdc::ir::node_id v = 0; v < g.num_nodes(); ++v) {
    ops_g.insert(static_cast<int>(g.at(v).op));
    ops_r.insert(static_cast<int>(r.at(v).op));
  }
  EXPECT_EQ(ops_g, ops_r);
}

}  // namespace
}  // namespace perfbench
