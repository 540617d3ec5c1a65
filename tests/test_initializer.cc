// Tests for the feasible-state initializers (greedy and the paper's LP), parameterized over
// network shapes and observation fractions.

#include "qnet/infer/initializer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/check.h"
#include "qnet/support/math.h"
#include "qnet/support/rng.h"
#include "support/reference_initializer.h"

namespace qnet {
namespace {

struct InitCase {
  std::string name;
  int net_kind;  // 0: tandem, 1: three-tier, 2: feedback
  double fraction;
  InitMethod method;
  bool observe_final = false;
};

std::pair<EventLog, std::vector<double>> MakeProblem(int net_kind, int tasks,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  switch (net_kind) {
    case 0: {
      const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
      return {SimulateWorkload(net, PoissonArrivals(2.0, static_cast<std::size_t>(tasks)), rng),
              net.ExponentialRates()};
    }
    case 1: {
      ThreeTierConfig config;
      config.tier_sizes = {1, 2, 4};
      const QueueingNetwork net = MakeThreeTierNetwork(config);
      return {
          SimulateWorkload(net, PoissonArrivals(10.0, static_cast<std::size_t>(tasks)), rng),
          net.ExponentialRates()};
    }
    default: {
      const QueueingNetwork net = MakeFeedbackNetwork(1.0, 4.0, 0.4);
      return {SimulateWorkload(net, PoissonArrivals(1.0, static_cast<std::size_t>(tasks)), rng),
              net.ExponentialRates()};
    }
  }
}

class InitializerTest : public ::testing::TestWithParam<InitCase> {};

TEST_P(InitializerTest, ProducesFeasibleStateRespectingObservations) {
  const InitCase& c = GetParam();
  const int tasks = c.method == InitMethod::kLp ? 30 : 150;  // keep LP instances small
  const auto [truth, rates] = MakeProblem(c.net_kind, tasks, 1000 + c.net_kind);
  TaskSamplingScheme scheme;
  scheme.fraction = c.fraction;
  scheme.observe_final_departure = c.observe_final;
  Rng rng(77);
  const Observation obs = scheme.Apply(truth, rng);

  InitializerOptions options;
  options.method = c.method;
  const EventLog state = InitializeFeasible(truth, obs, rates, rng, options);

  std::string why;
  EXPECT_TRUE(state.IsFeasible(1e-6, &why)) << why;
  // Observed times must be copied exactly.
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    if (obs.ArrivalObserved(e)) {
      EXPECT_DOUBLE_EQ(state.Arrival(e), truth.Arrival(e)) << "event " << e;
    }
    if (obs.DepartureObserved(e)) {
      EXPECT_DOUBLE_EQ(state.Departure(e), truth.Departure(e)) << "event " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InitializerTest,
    ::testing::Values(
        InitCase{"tandem_greedy_10", 0, 0.1, InitMethod::kGreedy},
        InitCase{"tandem_greedy_50", 0, 0.5, InitMethod::kGreedy},
        InitCase{"tandem_greedy_none", 0, 0.0, InitMethod::kGreedy},
        InitCase{"tandem_greedy_final", 0, 0.3, InitMethod::kGreedy, true},
        InitCase{"tier_greedy_10", 1, 0.1, InitMethod::kGreedy},
        InitCase{"tier_greedy_25", 1, 0.25, InitMethod::kGreedy},
        InitCase{"feedback_greedy_20", 2, 0.2, InitMethod::kGreedy},
        InitCase{"tandem_lp_20", 0, 0.2, InitMethod::kLp},
        InitCase{"tier_lp_20", 1, 0.2, InitMethod::kLp},
        InitCase{"feedback_lp_30", 2, 0.3, InitMethod::kLp, true}),
    [](const ::testing::TestParamInfo<InitCase>& param_info) { return param_info.param.name; });

TEST(ConstraintTopo, OrderRespectsAllEdges) {
  const auto [truth, rates] = MakeProblem(1, 80, 5);
  (void)rates;
  const auto topo = ConstraintTopologicalOrder(truth);
  ASSERT_EQ(topo.size(), truth.NumEvents());
  std::vector<std::size_t> position(truth.NumEvents());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    position[static_cast<std::size_t>(topo[i])] = i;
  }
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    const Event& ev = truth.At(e);
    if (!ev.initial) {
      EXPECT_LT(position[static_cast<std::size_t>(ev.pi)],
                position[static_cast<std::size_t>(e)]);
    }
    if (ev.rho != kNoEvent) {
      EXPECT_LT(position[static_cast<std::size_t>(ev.rho)],
                position[static_cast<std::size_t>(e)]);
      const Event& rho = truth.At(ev.rho);
      if (!ev.initial && !rho.initial) {
        EXPECT_LE(position[static_cast<std::size_t>(rho.pi)],
                  position[static_cast<std::size_t>(ev.pi)]);
      }
    }
  }
}

TEST(ConstraintTopo, OrderMatchesListOfListsReference) {
  for (int net_kind = 0; net_kind < 3; ++net_kind) {
    const auto [truth, rates] = MakeProblem(net_kind, 120, 3 + net_kind);
    (void)rates;
    EXPECT_EQ(ConstraintTopologicalOrder(truth),
              qnet_testing::ReferenceTopologicalOrder(
                  qnet_testing::ReferenceConstraintEdges(truth)))
        << "net kind " << net_kind;
  }
}

TEST(Initializer, GreedyIsBitEqualToListOfListsReference) {
  // Same seed, same draws, same log: the CSR graph must reproduce the list-of-lists
  // graph's topological order and successor order exactly. Calls alternate between
  // shapes so the reused per-thread scratch is exercised both growing and shrinking.
  for (int round = 0; round < 2; ++round) {
    for (int net_kind = 0; net_kind < 3; ++net_kind) {
      for (const double fraction : {0.0, 0.1, 0.25, 0.6}) {
        const int tasks = 60 + 90 * net_kind + 40 * round;
        const auto [truth, rates] = MakeProblem(net_kind, tasks, 500 + net_kind);
        TaskSamplingScheme scheme;
        scheme.fraction = fraction;
        scheme.observe_final_departure = net_kind == 1;
        Rng obs_rng(91);
        const Observation obs = scheme.Apply(truth, obs_rng);

        Rng rng(1234 + static_cast<std::uint64_t>(round));
        Rng reference_rng(1234 + static_cast<std::uint64_t>(round));
        const EventLog state = InitializeFeasible(truth, obs, rates, rng);
        const EventLog reference =
            qnet_testing::ReferenceInitializeGreedy(truth, obs, rates, reference_rng);
        ASSERT_EQ(state.NumEvents(), reference.NumEvents());
        for (EventId e = 0; static_cast<std::size_t>(e) < state.NumEvents(); ++e) {
          ASSERT_EQ(state.Arrival(e), reference.Arrival(e)) << "event " << e;
          ASSERT_EQ(state.Departure(e), reference.Departure(e)) << "event " << e;
        }
        EXPECT_EQ(rng.NextU64(), reference_rng.NextU64()) << "draw counts differ";
      }
    }
  }
}

TEST(Initializer, FullyObservedReproducesTruthExactly) {
  const auto [truth, rates] = MakeProblem(0, 60, 9);
  const Observation obs = Observation::FullyObserved(truth);
  Rng rng(11);
  const EventLog state = InitializeFeasible(truth, obs, rates, rng);
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    EXPECT_DOUBLE_EQ(state.Arrival(e), truth.Arrival(e));
    EXPECT_DOUBLE_EQ(state.Departure(e), truth.Departure(e));
  }
}

TEST(Initializer, LpServiceTimesTrackTargetMeans) {
  // With nothing observed, the LP should be able to place every service close to its target
  // mean 1/mu (the objective the paper prescribes).
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(21);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 25), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.0;
  const Observation obs = scheme.Apply(truth, rng);
  InitializerOptions options;
  options.method = InitMethod::kLp;
  const EventLog state = InitializeFeasible(truth, obs, net.ExponentialRates(), rng, options);
  RunningStat deviation;
  for (EventId e = 0; static_cast<std::size_t>(e) < state.NumEvents(); ++e) {
    const double target = 1.0 / net.ExponentialRates()[static_cast<std::size_t>(
                              state.At(e).queue)];
    deviation.Add(std::abs(state.ServiceTime(e) - target));
  }
  // Unconstrained events can hit their targets exactly; mean deviation should be small
  // relative to the mean service scale (~0.3).
  EXPECT_LT(deviation.Mean(), 0.1);
}

TEST(Initializer, GreedyHandlesInterleavedObservations) {
  // A task with observed first and third visits but unobserved second: the second visit is
  // pinned between two observed times through both its queue and its task.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {5.0, 5.0, 5.0});
  Rng rng(31);
  const EventLog truth = SimulateWorkload(net, PoissonArrivals(2.0, 50), rng);
  // Hand-build an observation: every task observes visits 1 and 3 but not 2.
  Observation obs;
  obs.arrival_observed.assign(truth.NumEvents(), 0);
  obs.departure_observed.assign(truth.NumEvents(), 0);
  for (int k = 0; k < truth.NumTasks(); ++k) {
    const auto& chain = truth.TaskEvents(k);
    obs.arrival_observed[static_cast<std::size_t>(chain[0])] = 1;  // initial
    obs.arrival_observed[static_cast<std::size_t>(chain[1])] = 1;
    obs.arrival_observed[static_cast<std::size_t>(chain[3])] = 1;
  }
  for (EventId e = 0; static_cast<std::size_t>(e) < truth.NumEvents(); ++e) {
    const Event& ev = truth.At(e);
    if (!ev.initial) {
      obs.departure_observed[static_cast<std::size_t>(ev.pi)] =
          obs.arrival_observed[static_cast<std::size_t>(e)];
    }
  }
  obs.Validate(truth);
  const EventLog state = InitializeFeasible(truth, obs, net.ExponentialRates(), rng);
  std::string why;
  EXPECT_TRUE(state.IsFeasible(1e-6, &why)) << why;
  // The unobserved second visit must sit between the observed neighbors.
  for (int k = 0; k < truth.NumTasks(); ++k) {
    const auto& chain = truth.TaskEvents(k);
    EXPECT_GE(state.Arrival(chain[2]), state.Arrival(chain[1]) - 1e-9);
    EXPECT_LE(state.Departure(chain[2]), truth.Arrival(chain[3]) + 1e-9);
  }
}

}  // namespace
}  // namespace qnet
