// The benchmark's workloads: generated inputs (a pure function of the seed), the
// pipeline each one drives through qnet's public API, and its ground truth.

#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "qnet/detect/change_monitor.h"
#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/scenario/campaign.h"
#include "qnet/scenario/forecast.h"
#include "qnet/shard/sharded_streaming.h"
#include "qnet/stream/task_record.h"

namespace pipebench {

struct Workload {
  std::string name;
  // Paced pass: offered task rate (tasks per wall second).
  double offered_rate = 0.0;
  // Passes per process after the warm-up. Untraced: `full_passes` full-speed passes
  // and `paced_passes` paced passes. Traced: `traced_passes` pairs of an untraced and a
  // traced full-speed pass (each followed by the fleet probe, if any).
  int full_passes = 1;
  int paced_passes = 1;
  int traced_passes = 1;

  // Every pass runs the plain StreamingEstimator with options.stream. With
  // `fleet_probe`, traced runs also replay the trace from memory through a
  // ShardedStreamingEstimator with `options` (the shard layer's metrics).
  bool fleet_probe = false;
  qnet::ShardedStreamingOptions options;
  std::vector<double> init_rates;
  std::uint64_t fit_seed = 0;
  // Event-time arrival rate of the generated trace (tasks per simulated second); the
  // paced generator's speedup is offered_rate / arrival_rate.
  double arrival_rate = 0.0;
  TrueRateFn truth;

  // Inputs. Replay workloads hold a simulated log; csv-replay additionally its CSV text;
  // campaign-monitor generates records live from `campaign`.
  qnet::EventLog log{2};
  qnet::Observation obs;
  std::string log_csv;
  std::string obs_csv;
  std::unique_ptr<qnet::Campaign> campaign;
  std::unique_ptr<qnet::QueueingNetwork> network;  // the campaign's topology
  std::uint64_t sim_seed = 0;

  // Wall time the paced pass spends on one window: window_duration / speedup.
  double WindowWallMs() const {
    return options.stream.window.window_duration * arrival_rate / offered_rate * 1e3;
  }

  // A fresh stream over the inputs.
  std::unique_ptr<qnet::TraceStream> MakeStream() const;
  // A fresh in-memory replay of the recorded trace (replay workloads).
  std::unique_ptr<qnet::TraceStream> MakeMemoryStream() const;
  // True when records come from the live simulator (the `sim` layer) rather than a
  // recorded trace (the `trace` layer).
  bool LiveStream() const { return campaign != nullptr; }
  // Bytes of trace text the stream reads (0 for in-memory and live streams).
  std::size_t InputBytes() const { return log_csv.size() + obs_csv.size(); }
};

// Builds the named workload's inputs from `seed`. Returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed);

// The operator's on_window consumers of campaign-monitor: change detection and a
// what-if forecast on every window, the forecast's cells on `forecast_threads` threads.
// One per pass.
struct MonitorConsumers {
  qnet::ChangeMonitor monitor;
  qnet::WindowForecaster forecaster;
};
std::unique_ptr<MonitorConsumers> MakeConsumers(const Workload& workload,
                                                std::size_t forecast_threads);

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
