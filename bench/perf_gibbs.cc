// Microbenchmarks: Gibbs sweep, single-move, parallel-chains and allocation-count
// throughput (google-benchmark).
//
// Workflow (tracked in CI as BENCH_gibbs.json; compare runs with benchmark's
// tools/compare.py):
//   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
//   ./build/perf_gibbs --benchmark_format=json > BENCH_gibbs.json
//   ./build/perf_gibbs --benchmark_filter='BM_GibbsSweep/500'   # the headline number
// Rows:
//   BM_GibbsSweep/N items_per_second   — latent arrival moves per second (N tasks,
//                                        three-tier {1,2,4} fixture, 10% tasks observed;
//                                        batched SoA kernel — the default sweep path);
//   BM_GibbsSweepScalar/N              — same fixture on the scalar move-at-a-time kernel
//                                        (batched = false), the historical sweep path;
//   BM_GibbsSweepReference/N           — the batched schedule driven through the
//                                        move-at-a-time reference kernel
//                                        (batched_reference = true): identical buckets,
//                                        identical lane streams, bit-identical states.
//                                        CI gates BM_GibbsSweep/500 at >= 1.25x this
//                                        row's items_per_second in the same run (see
//                                        .github/workflows/ci.yml);
//   BM_SingleArrivalMove               — one gather + exact-conditional arrival sample;
//   BM_ShardedSweep/T items_per_second — one chain's colored sharded sweep on T worker
//                                        threads (intra-chain scaling; bit-identical
//                                        results across T by construction);
//   BM_ShardedSweepAllocations, BM_GibbsSweepAllocations allocs_per_sweep,
//   BM_SingleArrivalMoveAllocations allocs_per_move
//                                      — global operator-new calls per sweep / move;
//                                        must stay exactly 0 (see tests/test_alloc_free.cc
//                                        for the hard assertion);
//   BM_ParallelChains/T draws_per_sec  — pooled post-burn-in draws per wall second with
//                                        4 chains on T threads (scaling curve);
//   BM_Initializer/N                   — the greedy feasible initializer on N tasks.

#include <benchmark/benchmark.h>

// Counting allocator (defines global operator new/delete; one TU per binary): lets the
// allocation benchmarks report exact counts alongside timings.
#include "../tests/support/counting_allocator.h"

#include "qnet/infer/gibbs.h"
#include "qnet/infer/initializer.h"
#include "qnet/infer/parallel_chains.h"
#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/support/rng.h"

namespace {

using qnet_testing::AllocationCount;

struct Fixture {
  qnet::EventLog truth;
  qnet::Observation obs;
  std::vector<double> rates;
  qnet::EventLog init;
};

Fixture MakeFixture(std::size_t tasks, double fraction) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::Rng rng(12345);
  qnet::EventLog truth =
      qnet::SimulateWorkload(net, qnet::PoissonArrivals(10.0, tasks), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = fraction;
  qnet::Observation obs = scheme.Apply(truth, rng);
  std::vector<double> rates = net.ExponentialRates();
  qnet::EventLog init = qnet::InitializeFeasible(truth, obs, rates, rng);
  return Fixture{std::move(truth), std::move(obs), std::move(rates), std::move(init)};
}

void BM_GibbsSweep(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks, 0.1);
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  qnet::Rng rng(7);
  for (auto _ : state) {
    sampler.Sweep(rng);
    benchmark::DoNotOptimize(sampler.State().Arrival(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sampler.NumLatentArrivals()));
  state.counters["latent_arrivals"] =
      static_cast<double>(sampler.NumLatentArrivals());
}
BENCHMARK(BM_GibbsSweep)->Arg(100)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// Scalar kernel (batched = false): the historical move-at-a-time sequential sweep. Runs
// in the same process as BM_GibbsSweep so the pair is an in-run A/B, immune to the
// machine-level drift that makes cross-run absolute numbers unusable; CI gates the
// batched kernel's items_per_second against this row (see .github/workflows/ci.yml).
void BM_GibbsSweepScalar(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks, 0.1);
  qnet::GibbsOptions options;
  options.batched = false;
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates, options);
  qnet::Rng rng(7);
  for (auto _ : state) {
    sampler.Sweep(rng);
    benchmark::DoNotOptimize(sampler.State().Arrival(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sampler.NumLatentArrivals()));
  state.counters["latent_arrivals"] =
      static_cast<double>(sampler.NumLatentArrivals());
}
BENCHMARK(BM_GibbsSweepScalar)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// The batched kernel's protocol-matched A/B partner: the SAME colored schedule and the
// SAME per-lane streams as BM_GibbsSweep, executed move-at-a-time through the reference
// kernel (batched_reference = true), so the two rows produce bit-identical states (the
// equality the tests in tests/test_move_batch.cc pin down) and their throughput ratio
// isolates exactly what batch-at-a-time execution buys: SoA finalize/sample vmath sweeps
// versus per-move scalar transcendentals over an identical gather/scatter stream.
void BM_GibbsSweepReference(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks, 0.1);
  qnet::GibbsOptions options;
  options.batched_reference = true;
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates, options);
  qnet::Rng rng(7);
  for (auto _ : state) {
    sampler.Sweep(rng);
    benchmark::DoNotOptimize(sampler.State().Arrival(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sampler.NumLatentArrivals()));
  state.counters["latent_arrivals"] =
      static_cast<double>(sampler.NumLatentArrivals());
}
BENCHMARK(BM_GibbsSweepReference)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_SingleArrivalMove(benchmark::State& state) {
  const Fixture fixture = MakeFixture(500, 0.1);
  qnet::Rng rng(11);
  // Pick a representative mid-log latent event.
  qnet::EventId target = qnet::kNoEvent;
  for (qnet::EventId e = static_cast<qnet::EventId>(fixture.truth.NumEvents() / 2);
       static_cast<std::size_t>(e) < fixture.truth.NumEvents(); ++e) {
    if (!fixture.truth.At(e).initial) {
      target = e;
      break;
    }
  }
  qnet::EventLog log = fixture.init;
  for (auto _ : state) {
    const qnet::ArrivalMove move = qnet::GatherArrivalMove(log, target, fixture.rates);
    benchmark::DoNotOptimize(qnet::SampleArrival(move, rng));
  }
}
BENCHMARK(BM_SingleArrivalMove);

// Intra-chain scaling: one chain's sweep on the colored sharded scheduler with
// T = state.range(0) worker threads (4 logical shards, so results are bit-identical across
// the T values — only wall-clock changes). Compare against BM_GibbsSweep for the sharding
// overhead at T=1 and against the core count for parallel efficiency.
void BM_ShardedSweep(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(500, 0.1);
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  qnet::ShardedSweepOptions options;
  options.shards = 4;
  options.threads = threads;
  sampler.EnableShardedSweeps(options);
  qnet::Rng rng(7);
  for (auto _ : state) {
    sampler.Sweep(rng);
    benchmark::DoNotOptimize(sampler.State().Arrival(1));
  }
  // Items = latent arrivals, matching BM_GibbsSweep's definition so the T=1 overhead
  // comparison and the 8.1M moves/s baseline stay apples-to-apples (the sharded sweep
  // additionally executes the final-departure moves, reported via total_moves).
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sampler.NumLatentArrivals()));
  state.counters["total_moves"] = static_cast<double>(sampler.Scheduler()->NumMoves());
  state.counters["threads"] = static_cast<double>(sampler.Scheduler()->NumThreads());
  state.counters["colors"] = static_cast<double>(sampler.Scheduler()->NumColors());
}
BENCHMARK(BM_ShardedSweep)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Allocation gate for the colored sweep path (threads = 1 keeps the counter exact: with
// workers the count is still 0 after warm-up — see tests/test_alloc_free.cc — but worker
// wake-ups could jitter the timing columns). Expected value: 0, enforced by CI alongside
// the sequential-sweep counter.
void BM_ShardedSweepAllocations(benchmark::State& state) {
  const Fixture fixture = MakeFixture(500, 0.1);
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  qnet::ShardedSweepOptions options;
  options.shards = 4;
  options.threads = 1;
  sampler.EnableShardedSweeps(options);
  qnet::Rng rng(7);
  sampler.Sweep(rng);  // warm-up outside the counted region
  const std::size_t before = AllocationCount();
  std::size_t sweeps = 0;
  for (auto _ : state) {
    sampler.Sweep(rng);
    ++sweeps;
  }
  const std::size_t after = AllocationCount();
  state.counters["allocs_per_sweep"] =
      sweeps > 0 ? static_cast<double>(after - before) / static_cast<double>(sweeps) : 0.0;
}
BENCHMARK(BM_ShardedSweepAllocations)->Unit(benchmark::kMillisecond);

// Allocation count per sweep on the fast path. The counter is exact (every operator new in
// the process), so the benchmark pauses timing around the measured region is unnecessary —
// we simply diff the counter across the iteration. Expected value: 0.
void BM_GibbsSweepAllocations(benchmark::State& state) {
  const Fixture fixture = MakeFixture(500, 0.1);
  qnet::GibbsSampler sampler(fixture.init, fixture.obs, fixture.rates);
  qnet::Rng rng(7);
  sampler.Sweep(rng);  // warm-up outside the counted region
  const std::size_t before = AllocationCount();
  std::size_t sweeps = 0;
  for (auto _ : state) {
    sampler.Sweep(rng);
    ++sweeps;
  }
  const std::size_t after = AllocationCount();
  state.counters["allocs_per_sweep"] =
      sweeps > 0 ? static_cast<double>(after - before) / static_cast<double>(sweeps) : 0.0;
}
BENCHMARK(BM_GibbsSweepAllocations)->Unit(benchmark::kMillisecond);

void BM_SingleArrivalMoveAllocations(benchmark::State& state) {
  const Fixture fixture = MakeFixture(500, 0.1);
  qnet::Rng rng(11);
  qnet::EventId target = qnet::kNoEvent;
  for (qnet::EventId e = static_cast<qnet::EventId>(fixture.truth.NumEvents() / 2);
       static_cast<std::size_t>(e) < fixture.truth.NumEvents(); ++e) {
    if (!fixture.truth.At(e).initial) {
      target = e;
      break;
    }
  }
  qnet::EventLog log = fixture.init;
  const std::size_t before = AllocationCount();
  std::size_t moves = 0;
  for (auto _ : state) {
    const qnet::ArrivalMove move = qnet::GatherArrivalMove(log, target, fixture.rates);
    benchmark::DoNotOptimize(qnet::SampleArrival(move, rng));
    ++moves;
  }
  const std::size_t after = AllocationCount();
  state.counters["allocs_per_move"] =
      moves > 0 ? static_cast<double>(after - before) / static_cast<double>(moves) : 0.0;
}
BENCHMARK(BM_SingleArrivalMoveAllocations);

// Multi-chain scaling: 4 chains of the three-tier fixture on T = state.range(0) threads.
// draws_per_sec is the pooled post-burn-in draw throughput; on a multi-core host it should
// scale near-linearly in T up to the core count (chains are embarrassingly parallel and
// share no mutable state).
void BM_ParallelChains(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(200, 0.1);
  qnet::ParallelChainsOptions options;
  options.chains = 4;
  options.threads = threads;
  options.sweeps = 40;
  options.burn_in = 10;
  std::uint64_t seed = 1;
  std::size_t draws = 0;
  for (auto _ : state) {
    const qnet::ParallelChainsResult result = qnet::RunParallelChains(
        fixture.truth, fixture.obs, fixture.rates, seed++, options);
    draws += result.total_draws;
    benchmark::DoNotOptimize(result.pooled.NumSamples());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(draws));
  state.counters["draws_per_sec"] = benchmark::Counter(
      static_cast<double>(draws), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelChains)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_Initializer(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const Fixture fixture = MakeFixture(tasks, 0.1);
  qnet::Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qnet::InitializeFeasible(fixture.truth, fixture.obs, fixture.rates, rng));
  }
}
BENCHMARK(BM_Initializer)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
