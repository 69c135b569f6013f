// Cooperative check-in points at oracle-round boundaries.
//
// Every solver variant's round loop is a sequence of oracle evaluations
// separated by cheap coordinate updates; between rounds the solver holds no
// locks and is inside no parallel region, which makes the round boundary
// the one safe place for a scheduler to borrow the thread. A caller that
// wants that control installs a YieldPoint through the solver options
// (DecisionOptions::yield and the schedule variants' copies); the loop
// calls check() once per round.
//
// check() may do anything that returns control to the solver with the
// process-global par configuration intact: run a different job to
// completion on this thread (cooperative preemption), or flip the
// thread-local par::regions_inlined() flag so subsequent rounds run their
// parallel regions at full pool width (dynamic lane widening). It must NOT
// change par::num_threads(): the loops other jobs have in flight size their
// partitions from it. No bit depends on it -- reductions fold over fixed
// pieces and every other loop writes disjoint outputs.
//
// Determinism: a yield reorders which *job* runs when, never the bits a
// job computes. The parked solve's state lives in its own SolverState /
// SolverWorkspace on this thread's stack; when check() returns, the round
// loop continues exactly where it left off.
#pragma once

namespace psdp::core {

class YieldPoint {
 public:
  virtual ~YieldPoint() = default;

  /// Called once per oracle round, outside any parallel region. May run
  /// other work on the calling thread before returning; must leave
  /// par::num_threads() unchanged.
  virtual void check() = 0;
};

}  // namespace psdp::core
