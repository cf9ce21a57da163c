// Replays that give the per-layer numbers the traced pass cannot see from
// outside, run after the pass so its wall time stays comparable to an
// untraced one. Each replay is guarded: it must reproduce what the pass
// recorded exactly, or the numbers would describe another program.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace perfbench {

/// Every downstream call rerun pass by pass, in the order
/// synth::synthesize_graph (or the AIG-depth flow) runs them.
struct pass_replay {
  double lower_s = 0.0;  ///< lower::lower_graph plus the strash cleanup
  double balance_s = 0.0;
  double rewrite_s = 0.0;
  double refactor_s = 0.0;
  double techmap_s = 0.0;
  double sta_s = 0.0;
  std::int64_t ands_lowered = 0;
  std::int64_t ands_optimized = 0;
  std::size_t mismatches = 0;  ///< calls whose delay was not reproduced
};
pass_replay replay_calls(const std::vector<downstream_call>& calls,
                         const tool_config& tool, isdc::thread_pool& pool);

/// Every design's baseline rerun through sched::delay_matrix::initial and
/// a cold sched::scheduler_instance solve, the way engine::run starts;
/// per weakly-connected component on the memory-budgeted path.
struct solve_replay {
  double characterize_s = 0.0;  ///< fresh per-run models only
  double matrix_init_s = 0.0;
  double cold_solve_s = 0.0;
  double split_s = 0.0;  ///< extract::weakly_connected_components
  std::int64_t components = 0;  ///< components of budgeted designs
  std::size_t mismatches = 0;  ///< baselines not reproduced bit for bit
};
solve_replay replay_cold_solves(const workload_spec& spec,
                                const prepared& p,
                                const std::vector<design_result>& results);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
