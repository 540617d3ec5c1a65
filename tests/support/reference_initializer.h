// Test oracle: the greedy feasible initializer (infer/initializer.h, InitMethod::kGreedy)
// written over a list-of-lists constraint graph and a std::deque Kahn frontier.
// InitializeFeasible's CSR graph must visit the same topological order and the same
// per-node successor order, so at the same seed it consumes the same draws and returns
// the same log bit for bit.

#ifndef QNET_TESTS_SUPPORT_REFERENCE_INITIALIZER_H_
#define QNET_TESTS_SUPPORT_REFERENCE_INITIALIZER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"

namespace qnet_testing {

// Edge u -> v encodes x_u <= x_v on departure variables.
inline std::vector<std::vector<qnet::EventId>> ReferenceConstraintEdges(
    const qnet::EventLog& log) {
  std::vector<std::vector<qnet::EventId>> succ(log.NumEvents());
  for (qnet::EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
    const qnet::Event& ev = log.At(e);
    if (!ev.initial) {
      succ[static_cast<std::size_t>(ev.pi)].push_back(e);
    }
    if (ev.rho != qnet::kNoEvent) {
      succ[static_cast<std::size_t>(ev.rho)].push_back(e);
      const qnet::Event& rho = log.At(ev.rho);
      if (!ev.initial && !rho.initial) {
        succ[static_cast<std::size_t>(rho.pi)].push_back(ev.pi);
      }
    }
  }
  return succ;
}

inline std::vector<qnet::EventId> ReferenceTopologicalOrder(
    const std::vector<std::vector<qnet::EventId>>& succ) {
  const std::size_t n = succ.size();
  std::vector<int> indegree(n, 0);
  for (const auto& out : succ) {
    for (qnet::EventId v : out) {
      ++indegree[static_cast<std::size_t>(v)];
    }
  }
  std::deque<qnet::EventId> frontier;
  for (qnet::EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    if (indegree[static_cast<std::size_t>(e)] == 0) {
      frontier.push_back(e);
    }
  }
  std::vector<qnet::EventId> order;
  while (!frontier.empty()) {
    const qnet::EventId u = frontier.front();
    frontier.pop_front();
    order.push_back(u);
    for (qnet::EventId v : succ[static_cast<std::size_t>(u)]) {
      if (--indegree[static_cast<std::size_t>(v)] == 0) {
        frontier.push_back(v);
      }
    }
  }
  QNET_CHECK(order.size() == n, "constraint graph has a cycle");
  return order;
}

inline qnet::EventLog ReferenceInitializeGreedy(const qnet::EventLog& truth,
                                                const qnet::Observation& obs,
                                                std::span<const double> rates,
                                                qnet::Rng& rng) {
  const std::size_t n = truth.NumEvents();
  const auto succ = ReferenceConstraintEdges(truth);
  const auto topo = ReferenceTopologicalOrder(succ);

  // Feasible windows: forward lower bounds, backward upper bounds, observed pins.
  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, std::numeric_limits<double>::infinity());
  std::vector<char> pinned(n, 0);
  std::vector<double> pin_value(n, 0.0);
  for (qnet::EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    if (obs.DepartureObserved(e)) {
      pinned[static_cast<std::size_t>(e)] = 1;
      pin_value[static_cast<std::size_t>(e)] = truth.Departure(e);
    }
  }
  for (qnet::EventId u : topo) {
    const auto ui = static_cast<std::size_t>(u);
    if (pinned[ui] != 0) {
      lower[ui] = pin_value[ui];
    }
    for (qnet::EventId v : succ[ui]) {
      lower[static_cast<std::size_t>(v)] = std::max(lower[static_cast<std::size_t>(v)],
                                                    lower[ui]);
    }
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto ui = static_cast<std::size_t>(*it);
    for (qnet::EventId v : succ[ui]) {
      upper[ui] = std::min(upper[ui], upper[static_cast<std::size_t>(v)]);
    }
    if (pinned[ui] != 0) {
      upper[ui] = pin_value[ui];
    }
  }

  // Forward assignment in topological order: max(preds) + Exp(mu_q), clipped into the
  // window.
  std::vector<double> pred_max(n, 0.0);
  std::vector<double> x(n, 0.0);
  for (qnet::EventId u : topo) {
    const auto ui = static_cast<std::size_t>(u);
    double value;
    if (pinned[ui] != 0) {
      value = pin_value[ui];
    } else {
      const double base = std::max(pred_max[ui], lower[ui]);
      const double rate = rates[static_cast<std::size_t>(truth.At(u).queue)];
      double value_try = base + rng.Exponential(rate);
      const double ub = upper[ui];
      if (value_try > ub) {
        value_try = (std::isfinite(ub) && ub > base) ? base + 0.95 * (ub - base) : ub;
      }
      value = std::min(std::max(value_try, base), ub);
    }
    x[ui] = value;
    for (qnet::EventId v : succ[ui]) {
      pred_max[static_cast<std::size_t>(v)] = std::max(pred_max[static_cast<std::size_t>(v)],
                                                       value);
    }
  }

  qnet::EventLog state = truth;
  for (qnet::EventId e = 0; static_cast<std::size_t>(e) < n; ++e) {
    const qnet::Event& ev = truth.At(e);
    state.SetDeparture(e, x[static_cast<std::size_t>(e)]);
    state.SetArrival(e, ev.initial ? 0.0 : x[static_cast<std::size_t>(ev.pi)]);
  }
  return state;
}

}  // namespace qnet_testing

#endif  // QNET_TESTS_SUPPORT_REFERENCE_INITIALIZER_H_
