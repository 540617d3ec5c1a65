#include "qnet/infer/initializer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "qnet/lp/problem.h"
#include "qnet/lp/simplex.h"
#include "qnet/support/check.h"
#include "qnet/support/logspace.h"

namespace qnet {
namespace {

// Working memory of one InitializeFeasible call. Every vector is assign()ed or resize()d,
// so a thread that initializes same-shaped windows reuses its capacity and the greedy
// path allocates nothing but the returned log; the memory held is bounded by the largest
// window the thread has initialized.
struct InitScratch {
  // Successor adjacency of the constraint graph on departure variables as CSR: the
  // successors of u are succ[offsets[u] .. offsets[u + 1]). Edge u -> v encodes x_u <= x_v.
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> cursor;
  std::vector<EventId> succ;
  std::vector<int> indegree;
  // Topological order; doubles as Kahn's FIFO frontier (pops advance a head index, and a
  // FIFO pops in push order, so the pushed sequence is the order).
  std::vector<EventId> order;
  // Feasible windows [lower, upper] per departure; pinned events take pin_value.
  std::vector<double> lower;
  std::vector<double> upper;
  std::vector<char> pinned;
  std::vector<double> pin_value;
  // Greedy assignment: running max of assigned predecessor values, and the values.
  std::vector<double> pred_max;
  std::vector<double> x;

  std::span<const EventId> Successors(EventId u) const {
    const auto ui = static_cast<std::size_t>(u);
    return {succ.data() + offsets[ui], offsets[ui + 1] - offsets[ui]};
  }
};

InitScratch& ThreadLocalInitScratch() {
  thread_local InitScratch scratch;
  return scratch;
}

// Calls edge(u, v) for every constraint-graph edge, grouped by the event e that induces
// it, in event order:
//     x_pi(e) <= x_e,   x_rho(e) <= x_e,   x_pi(rho(e)) <= x_pi(e)  (arrival order).
// Per-event inner loop over the whole log: *Unchecked accessors under DCHECK, per the
// hot-path contract (ids come straight from the iteration bounds and the links).
template <typename EdgeFn>
void ForEachConstraintEdge(const EventLog& log, EdgeFn&& edge) {
  for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    const Event& ev = log.AtUnchecked(e);
    if (!ev.initial) {
      edge(ev.pi, e);
    }
    if (ev.rho != kNoEvent) {
      edge(ev.rho, e);
      const Event& rho = log.AtUnchecked(ev.rho);
      if (!ev.initial && !rho.initial) {
        edge(rho.pi, ev.pi);
      }
    }
  }
}

// Builds the CSR graph (count, then fill in the same edge order, so each node lists its
// successors in the order the edges were enumerated) and its Kahn topological order.
void BuildConstraintGraph(const EventLog& log, InitScratch& s) {
  const std::size_t n = log.NumEvents();
  s.offsets.assign(n + 1, 0);
  ForEachConstraintEdge(log, [&s](EventId u, EventId) {
    ++s.offsets[static_cast<std::size_t>(u) + 1];
  });
  for (std::size_t u = 0; u < n; ++u) {
    s.offsets[u + 1] += s.offsets[u];
  }
  s.cursor.assign(s.offsets.begin(), s.offsets.end() - 1);
  s.succ.resize(s.offsets[n]);
  s.indegree.assign(n, 0);
  ForEachConstraintEdge(log, [&s](EventId u, EventId v) {
    s.succ[s.cursor[static_cast<std::size_t>(u)]++] = v;
    ++s.indegree[static_cast<std::size_t>(v)];
  });

  s.order.clear();
  s.order.reserve(n);
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    if (s.indegree[static_cast<std::size_t>(e)] == 0) {
      s.order.push_back(e);
    }
  }
  for (std::size_t head = 0; head < s.order.size(); ++head) {
    for (EventId v : s.Successors(s.order[head])) {
      if (--s.indegree[static_cast<std::size_t>(v)] == 0) {
        s.order.push_back(v);
      }
    }
  }
  QNET_CHECK(s.order.size() == n, "constraint graph has a cycle; corrupt event log?");
}

void ComputeWindows(const EventLog& log, const Observation& obs, InitScratch& s) {
  const std::size_t n = log.NumEvents();
  s.lower.assign(n, 0.0);
  s.upper.assign(n, kPosInf);
  s.pinned.assign(n, 0);
  s.pin_value.assign(n, 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    if (obs.DepartureObserved(e)) {
      s.pinned[static_cast<std::size_t>(e)] = 1;
      s.pin_value[static_cast<std::size_t>(e)] = log.DepartureUnchecked(e);
    }
  }
  // Forward pass: lower bounds.
  for (EventId u : s.order) {
    auto& lb = s.lower[static_cast<std::size_t>(u)];
    if (s.pinned[static_cast<std::size_t>(u)] != 0) {
      QNET_CHECK(s.pin_value[static_cast<std::size_t>(u)] >= lb - 1e-6,
                 "observed departure violates lower bound at event ", u);
      lb = s.pin_value[static_cast<std::size_t>(u)];
    }
    for (EventId v : s.Successors(u)) {
      auto& lb_v = s.lower[static_cast<std::size_t>(v)];
      lb_v = std::max(lb_v, lb);
    }
  }
  // Backward pass: upper bounds.
  for (auto it = s.order.rbegin(); it != s.order.rend(); ++it) {
    const EventId u = *it;
    auto& ub = s.upper[static_cast<std::size_t>(u)];
    for (EventId v : s.Successors(u)) {
      ub = std::min(ub, s.upper[static_cast<std::size_t>(v)]);
    }
    if (s.pinned[static_cast<std::size_t>(u)] != 0) {
      QNET_CHECK(s.pin_value[static_cast<std::size_t>(u)] <= ub + 1e-6,
                 "observed departure violates upper bound at event ", u);
      ub = s.pin_value[static_cast<std::size_t>(u)];
    }
    QNET_CHECK(s.lower[static_cast<std::size_t>(u)] <= ub + 1e-6,
               "infeasible window at event ", u);
  }
}

void AssignGreedy(const EventLog& log, std::span<const double> rates, Rng& rng,
                  InitScratch& s) {
  const std::size_t n = log.NumEvents();
  s.pred_max.assign(n, 0.0);
  s.x.assign(n, 0.0);
  for (EventId u : s.order) {
    const std::size_t ui = static_cast<std::size_t>(u);
    double value;
    if (s.pinned[ui] != 0) {
      value = s.pin_value[ui];
      QNET_CHECK(value >= s.pred_max[ui] - 1e-6,
                 "observed time below assigned predecessors at event ", u);
    } else {
      const double base = std::max(s.pred_max[ui], s.lower[ui]);
      const double rate = rates[static_cast<std::size_t>(log.AtUnchecked(u).queue)];
      double value_try = base + rng.Exponential(rate);
      const double ub = s.upper[ui];
      if (value_try > ub) {
        // Clip into the window, placing the point strictly inside when possible.
        value_try = (std::isfinite(ub) && ub > base) ? base + 0.95 * (ub - base) : ub;
      }
      value = std::min(std::max(value_try, base), ub);
    }
    s.x[ui] = value;
    for (EventId v : s.Successors(u)) {
      auto& pm = s.pred_max[static_cast<std::size_t>(v)];
      pm = std::max(pm, value);
    }
  }
}

std::vector<double> AssignLp(const EventLog& log, const InitScratch& windows,
                             std::span<const double> rates, double epsilon) {
  const std::size_t n = log.NumEvents();
  LpProblem lp;
  // One departure variable per free event; pinned events are constants.
  std::vector<int> x_var(n, -1);
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const std::size_t ei = static_cast<std::size_t>(e);
    if (windows.pinned[ei] == 0) {
      x_var[ei] = lp.AddVariable("x" + std::to_string(e), 0.0);
    }
  }
  const auto x_term = [&](EventId e) -> std::pair<bool, double> {
    // Returns (is_variable, constant). Pinned events contribute a constant.
    const std::size_t ei = static_cast<std::size_t>(e);
    if (windows.pinned[ei] != 0) {
      return {false, windows.pin_value[ei]};
    }
    return {true, 0.0};
  };
  // Difference-constraint helper: x_u - x_v <= 0, with pinned sides folded into the rhs.
  const auto add_le2 = [&](EventId u, EventId v) {
    const auto [u_isvar, u_const] = x_term(u);
    const auto [v_isvar, v_const] = x_term(v);
    std::vector<std::pair<int, double>> terms;
    double rhs = 0.0;
    if (u_isvar) {
      terms.emplace_back(x_var[static_cast<std::size_t>(u)], 1.0);
    } else {
      rhs -= u_const;  // move constant to the rhs
    }
    if (v_isvar) {
      terms.emplace_back(x_var[static_cast<std::size_t>(v)], -1.0);
    } else {
      rhs += v_const;
    }
    if (terms.empty()) {
      QNET_CHECK(u_const <= v_const + 1e-6, "pinned times violate ordering");
      return;
    }
    lp.AddConstraint(std::move(terms), LpRelation::kLessEqual, rhs);
  };

  // Begin-service and epigraph variables, per event: b_e >= a_e, b_e >= x_rho(e),
  // s_e = x_e - b_e >= 0, u_e >= s_e - m_q, u_e >= m_q - s_e.
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const Event& ev = log.At(e);
    const int b = lp.AddVariable("b" + std::to_string(e), 0.0);
    const int u = lp.AddVariable("u" + std::to_string(e), 0.0);
    const double target = 1.0 / rates[static_cast<std::size_t>(ev.queue)];
    lp.SetObjective(u, 1.0);
    lp.SetObjective(b, epsilon);

    // b >= arrival (x_pi for non-initial; 0 for initial events, already implied by b >= 0).
    if (!ev.initial) {
      const auto [pvar, pconst] = x_term(ev.pi);
      if (pvar) {
        lp.AddConstraint({{b, 1.0}, {x_var[static_cast<std::size_t>(ev.pi)], -1.0}},
                         LpRelation::kGreaterEqual, 0.0);
      } else {
        lp.AddConstraint({{b, 1.0}}, LpRelation::kGreaterEqual, pconst);
      }
    }
    if (ev.rho != kNoEvent) {
      const auto [rvar, rconst] = x_term(ev.rho);
      if (rvar) {
        lp.AddConstraint({{b, 1.0}, {x_var[static_cast<std::size_t>(ev.rho)], -1.0}},
                         LpRelation::kGreaterEqual, 0.0);
      } else {
        lp.AddConstraint({{b, 1.0}}, LpRelation::kGreaterEqual, rconst);
      }
    }
    // s_e = x_e - b >= 0 and the |s - m| epigraph.
    const auto [evar, econst] = x_term(e);
    if (evar) {
      const int xe = x_var[static_cast<std::size_t>(e)];
      lp.AddConstraint({{xe, 1.0}, {b, -1.0}}, LpRelation::kGreaterEqual, 0.0);
      lp.AddConstraint({{u, 1.0}, {xe, -1.0}, {b, 1.0}}, LpRelation::kGreaterEqual, -target);
      lp.AddConstraint({{u, 1.0}, {xe, 1.0}, {b, -1.0}}, LpRelation::kGreaterEqual, target);
    } else {
      lp.AddConstraint({{b, 1.0}}, LpRelation::kLessEqual, econst);
      lp.AddConstraint({{u, 1.0}, {b, 1.0}}, LpRelation::kGreaterEqual, econst - target);
      lp.AddConstraint({{u, 1.0}, {b, -1.0}}, LpRelation::kGreaterEqual, target - econst);
    }
  }

  // Ordering constraints (the DAG edges).
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const Event& ev = log.At(e);
    if (!ev.initial) {
      add_le2(ev.pi, e);
    }
    if (ev.rho != kNoEvent) {
      add_le2(ev.rho, e);
      const Event& rho = log.At(ev.rho);
      if (!ev.initial && !rho.initial) {
        add_le2(rho.pi, ev.pi);
      }
    }
  }

  SimplexSolver solver;
  const LpSolution solution = solver.Solve(lp);
  QNET_CHECK(solution.status == LpStatus::kOptimal, "initializer LP did not solve: status=",
             static_cast<int>(solution.status));

  std::vector<double> x(n, 0.0);
  for (EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const std::size_t ei = static_cast<std::size_t>(e);
    x[ei] = windows.pinned[ei] != 0 ? windows.pin_value[ei]
                                    : solution.values[static_cast<std::size_t>(x_var[ei])];
  }
  return x;
}

}  // namespace

std::vector<EventId> ConstraintTopologicalOrder(const EventLog& log) {
  InitScratch& scratch = ThreadLocalInitScratch();
  BuildConstraintGraph(log, scratch);
  return scratch.order;
}

EventLog InitializeFeasible(const EventLog& truth, const Observation& obs,
                            std::span<const double> rates, Rng& rng,
                            const InitializerOptions& options) {
  obs.Validate(truth);
  QNET_CHECK(static_cast<std::size_t>(truth.NumQueues()) == rates.size(),
             "rates size mismatch");
  InitScratch& scratch = ThreadLocalInitScratch();
  BuildConstraintGraph(truth, scratch);
  ComputeWindows(truth, obs, scratch);
  if (options.method == InitMethod::kGreedy) {
    AssignGreedy(truth, rates, rng, scratch);
  } else {
    scratch.x = AssignLp(truth, scratch, rates, options.lp_epsilon);
  }
  const std::vector<double>& x = scratch.x;

  EventLog state = truth;  // copies structure; all times overwritten below
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    const Event& ev = truth.AtUnchecked(e);
    state.SetDepartureUnchecked(e, x[static_cast<std::size_t>(e)]);
    if (ev.initial) {
      state.SetArrivalUnchecked(e, 0.0);
    } else {
      state.SetArrivalUnchecked(e, x[static_cast<std::size_t>(ev.pi)]);
    }
  }
  std::string why;
  QNET_CHECK(state.IsFeasible(options.tol, &why), "initializer produced infeasible state: ",
             why);
  return state;
}

}  // namespace qnet
