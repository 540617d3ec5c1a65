// Scenario specification: parameterized what-if transformations of a fitted network.
//
// The point of inferring service demands from incomplete traces is to answer capacity
// questions: what happens to latency if traffic doubles, if a tier gets two more servers,
// if routing shifts load between replicas? A ScenarioAxis names ONE such knob together
// with the grid of values it sweeps; a ScenarioGrid expands the axes' Cartesian product
// into a cell lattice and materializes any cell as a concrete simulatable network given a
// parameter draw (per-queue exponential rates, index 0 = lambda) from the fitted
// posterior. The grid is pure data — evaluation lives in scenario_engine.h.

#ifndef QNET_SCENARIO_SCENARIO_SPEC_H_
#define QNET_SCENARIO_SCENARIO_SPEC_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "qnet/model/network.h"

namespace qnet {

enum class AxisKind {
  // Multiply the arrival rate lambda by the axis value.
  kArrivalScale,
  // Multiply queue `queue`'s service rate by the axis value (queue == -1: every real
  // queue — a uniform hardware speedup).
  kServiceScale,
  // Set queue `queue`'s server count to the axis value (a positive integer). The DES
  // models c servers as one pooled server of rate c * mu — exact in heavy traffic,
  // optimistic at low load — while the analytic cross-check uses the exact Erlang-C
  // M/M/c formulas, so the report surfaces the approximation error.
  kServerCount,
  // Multiply the FSM emission weight of (state, queue) by the axis value and renormalize
  // that state's emission row — shifts traffic toward (value > 1) or away from
  // (value < 1) one replica.
  kRoutingScale,
};

struct ScenarioAxis {
  AxisKind kind = AxisKind::kArrivalScale;
  // Column label in reports (must be unique within a grid, no commas).
  std::string name;
  // Target queue (kServiceScale: -1 allowed for "all real queues"; kServerCount and
  // kRoutingScale require a real queue id).
  int queue = -1;
  // Target FSM state (kRoutingScale only).
  int state = -1;
  // Grid points, all positive; kServerCount values must be integral.
  std::vector<double> values;
};

// One lattice point: the per-axis value indices and values for a flat cell index.
struct ScenarioCell {
  std::size_t index = 0;
  std::vector<std::size_t> coords;  // coords[a] indexes axes[a].values
  std::vector<double> values;       // values[a] == axes[a].values[coords[a]]
};

// A materialized cell: the transformed per-server rates, the per-queue server counts,
// and the DES-ready network (exponential services at the pooled rates, edited FSM).
struct CellRealization {
  std::vector<double> rates;  // per-SERVER rates post-transform; index 0 = lambda
  std::vector<int> servers;   // per-queue server count (index 0 is always 1)
  QueueingNetwork net;
};

// The clone-free counterpart of CellRealization: the same transformed rates and server
// counts plus the cell's edited FSM emission rows, held as a lightweight overlay over one
// shared immutable base network instead of a per-cell deep clone. ScenarioGrid::
// RealizeOverlay mirrors Realize()'s arithmetic operation-for-operation, so a DES (or
// analytic cross-check) driven off the overlay is bit-identical to one driven off the
// realized clone. Reusable: every buffer keeps its capacity across RealizeOverlay calls.
class CellOverlay {
 public:
  // The span accessors view the overlay's own buffers, so calling them on a temporary
  // would dangle and does not compile.
  // Per-server rates post-transform; index 0 = lambda (== CellRealization::rates).
  std::span<const double> Rates() const& { return rates_; }
  std::span<const double> Rates() const&& = delete;
  // Per-queue server counts (== CellRealization::servers).
  std::span<const int> Servers() const& { return servers_; }
  std::span<const int> Servers() const&& = delete;
  // Pooled DES service rates: [0] = lambda, [q] = servers[q] * rates[q] — exactly the
  // Exponential rates Realize() installs on the cloned network.
  std::span<const double> PooledRates() const& { return pooled_; }
  std::span<const double> PooledRates() const&& = delete;
  double ArrivalRate() const { return rates_[0]; }

  // Effective emission row of `state` under this cell's routing edits: the edited,
  // renormalized row when the cell touched it, `fsm`'s own row otherwise. `fsm` must be
  // the base network's FSM the overlay was realized against.
  std::span<const double> EmissionRow(const Fsm& fsm, int state) const& {
    const auto s = static_cast<std::size_t>(state);
    if (s < edited_index_.size() && edited_index_[s] >= 0) {
      return {edited_rows_.data() +
                  static_cast<std::size_t>(edited_index_[s]) * static_cast<std::size_t>(num_queues_),
              static_cast<std::size_t>(num_queues_)};
    }
    return fsm.EmissionRow(state);
  }
  std::span<const double> EmissionRow(const Fsm& fsm, int state) const&& = delete;

 private:
  friend class ScenarioGrid;

  std::vector<double> rates_;
  std::vector<int> servers_;
  std::vector<double> pooled_;
  int num_queues_ = 0;
  // Per-state index into edited_rows_ (-1: base row). Sized lazily on the first routing
  // edit, so routing-free grids never touch the FSM.
  std::vector<int> edited_index_;
  std::vector<double> edited_rows_;  // flat, num_queues_ columns per edited state
  std::vector<double> scratch_row_;  // RealizeOverlay workspace
};

class ScenarioGrid {
 public:
  // Validates the axes: nonempty values, positive, unique nonempty names, integral
  // server counts. An empty axis list is allowed and yields one cell (the baseline).
  explicit ScenarioGrid(std::vector<ScenarioAxis> axes);

  std::size_t NumAxes() const { return axes_.size(); }
  std::size_t NumCells() const { return num_cells_; }
  const std::vector<ScenarioAxis>& Axes() const { return axes_; }
  std::vector<std::string> AxisNames() const;

  // Decodes a flat index into lattice coordinates; axis 0 varies fastest.
  ScenarioCell Cell(std::size_t index) const;
  // Allocation-reusing overload: refills `cell` in place (capacity kept).
  void Cell(std::size_t index, ScenarioCell& cell) const;

  // Applies the cell's transforms to a posterior rate draw (index 0 = lambda) against
  // `base`'s topology: returns per-server rates, server counts, and a clone of `base`
  // with Exponential(servers * rate) services and the cell's routing edits applied.
  // CHECK-fails when an axis targets a queue/state outside the base network.
  CellRealization Realize(const QueueingNetwork& base, const ScenarioCell& cell,
                          std::span<const double> draw) const;

  // Clone-free equivalent of Realize: fills `overlay` (buffers reused) with rates,
  // server counts, pooled DES rates, and edited emission rows that are bit-identical to
  // what Realize would have produced/installed — without copying the network.
  void RealizeOverlay(const QueueingNetwork& base, const ScenarioCell& cell,
                      std::span<const double> draw, CellOverlay& overlay) const;

 private:
  std::vector<ScenarioAxis> axes_;
  std::size_t num_cells_ = 1;
};

}  // namespace qnet

#endif  // QNET_SCENARIO_SCENARIO_SPEC_H_
