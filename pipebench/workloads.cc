#include "workloads.h"

#include <limits>
#include <sstream>
#include <streambuf>

#include "qnet/model/builders.h"
#include "qnet/scenario/scenario_spec.h"
#include "qnet/sim/simulator.h"
#include "qnet/sim/workload.h"
#include "qnet/stream/live_stream.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/support/rng.h"
#include "qnet/trace/csv.h"

namespace pipebench {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Read-only streambuf over a string the caller keeps alive: replays re-read the same
// CSV text every pass without copying it.
class StringViewBuf : public std::streambuf {
 public:
  explicit StringViewBuf(const std::string& text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

class CsvTextStream final : public qnet::TraceStream {
 public:
  CsvTextStream(const std::string& log_csv, const std::string& obs_csv)
      : log_buf_(log_csv),
        obs_buf_(obs_csv),
        log_is_(&log_buf_),
        obs_is_(&obs_buf_),
        csv_(log_is_, -1, &obs_is_) {}

  bool Next(qnet::TaskRecord& out) override { return csv_.Next(out); }
  int NumQueues() const override { return csv_.NumQueues(); }

 private:
  StringViewBuf log_buf_;
  StringViewBuf obs_buf_;
  std::istream log_is_;
  std::istream obs_is_;
  qnet::CsvReplayStream csv_;
};

// Three-tier {1, 2, 4} web service (Sutton & Jordan's Section 5.1 topology) at
// `arrival_rate`, with per-server rate `service_rate`, simulated for `tasks` tasks and
// observed on a `fraction` of tasks.
void SimulateThreeTier(Workload& w, double arrival_rate, double service_rate,
                       std::size_t tasks, double fraction, std::uint64_t seed) {
  qnet::ThreeTierConfig config;
  config.tier_sizes = {1, 2, 4};
  config.arrival_rate = arrival_rate;
  config.service_rate = service_rate;
  const qnet::QueueingNetwork net = qnet::MakeThreeTierNetwork(config);
  qnet::Rng rng(seed);
  w.log = qnet::SimulateWorkload(net, qnet::PoissonArrivals(arrival_rate, tasks), rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = fraction;
  w.obs = scheme.Apply(w.log, rng);
  w.arrival_rate = arrival_rate;
  w.init_rates.assign(static_cast<std::size_t>(net.NumQueues()), 1.0);
  w.init_rates[0] = arrival_rate;
  w.truth = [service_rate](int, double, double) { return service_rate; };
}

// stem-replay: the paper's estimator. Full windowed StEM over an in-memory replay,
// ~100 tasks per window; the sampler dominates.
std::unique_ptr<Workload> MakeStemReplay(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "stem-replay";
  w->offered_rate = 20000.0;  // 5 ms of wall time per window
  w->full_passes = 9;
  w->paced_passes = 2;
  w->traced_passes = 3;
  SimulateThreeTier(*w, 10.0, 15.0, 20000, 0.25, seed);
  qnet::StreamingEstimatorOptions& s = w->options.stream;
  s.window.window_duration = 10.0;
  // StEM needs events on every queue of a window, and a short trailing window can leave
  // one of the four tier-3 servers empty (an 11-task tail did at the default 8, and the
  // fit aborts the stream). A remainder under 50 tasks merges into the last window.
  s.window.min_tasks_per_window = 50;
  s.stem.iterations = 20;
  s.stem.burn_in = 5;
  s.stem.wait_sweeps = 5;
  s.fast_path = qnet::FastPathMode::kOff;
  w->fit_seed = qnet::MixSeed(seed, 1);
  return w;
}

// csv-replay: a high-rate trace (~400 tasks per window) recorded as CSV text and replayed
// through CsvReplayStream into the plain driver with sampler-free fits; parsing
// dominates. Traced runs also replay the trace from memory through a two-lane fleet,
// where routing, lane queues, assembly and merging are the work (the shard layer).
std::unique_ptr<Workload> MakeCsvReplay(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "csv-replay";
  w->offered_rate = 100000.0;  // 4 ms of wall time per window
  w->full_passes = 8;
  w->paced_passes = 4;
  w->traced_passes = 3;
  SimulateThreeTier(*w, 40.0, 60.0, 48000, 0.25, seed);
  std::ostringstream log_os;
  qnet::WriteEventLog(log_os, w->log);
  w->log_csv = log_os.str();
  std::ostringstream obs_os;
  qnet::WriteObservation(obs_os, w->obs);
  w->obs_csv = obs_os.str();
  w->fleet_probe = true;
  w->options.lanes = 2;
  w->options.cross_lane_bias_correction = true;
  qnet::StreamingEstimatorOptions& s = w->options.stream;
  s.window.window_duration = 10.0;
  s.fast_path = qnet::FastPathMode::kMeanFieldOnly;
  w->fit_seed = qnet::MixSeed(seed, 1);
  return w;
}

// campaign-monitor: the operator's monitoring loop (examples/streaming_monitor.cc) over
// a live tandem simulation with a scripted arrival burst and a stage slowdown; change
// detection and a what-if forecast ride on_window.
std::unique_ptr<Workload> MakeCampaignMonitor(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "campaign-monitor";
  w->offered_rate = 10000.0;  // 12 ms of wall time per window
  w->full_passes = 12;
  w->paced_passes = 1;
  w->traced_passes = 2;

  constexpr double kWindow = 30.0;  // ~120 tasks per window at rate 4
  constexpr double kBurstStart = 2400.0;
  constexpr double kBurstEnd = 2700.0;
  constexpr double kSlowdownStart = 4200.0;
  constexpr double kSlowdown = 2.0;
  auto c = std::make_unique<qnet::Campaign>();
  c->name = "pipebench";
  c->description = "2.5x arrival burst, then a persistent 2x slowdown of stage 2";
  c->arrival_rate = 4.0;
  c->service_rates = {16.0, 12.0};
  c->horizon = 6000.0;
  c->quiet_until = kBurstStart;
  c->faults.AddArrivalScale(kBurstStart, kBurstEnd, 2.5);
  c->faults.AddSlowdown(2, kSlowdownStart, 1.0e12, kSlowdown);
  c->events.push_back({qnet::AlertKind::kRateShift, kBurstStart, 0, "burst onset"});
  c->events.push_back({qnet::AlertKind::kRateShift, kBurstEnd, 0, "burst recovery"});
  c->events.push_back(
      {qnet::AlertKind::kServiceDrift, kSlowdownStart, 2, "stage 2 slowdown"});
  const std::vector<double> rates = c->service_rates;
  w->truth = [rates, kSlowdownStart, kBurstStart, kBurstEnd](int q, double t0, double t1) {
    for (const double change : {kBurstStart, kBurstEnd, kSlowdownStart}) {
      if (t0 < change && change < t1) {
        return kNaN;  // straddles a change point
      }
    }
    const double mu = rates[static_cast<std::size_t>(q) - 1];
    return q == 2 && t0 >= kSlowdownStart ? mu / kSlowdown : mu;
  };
  w->arrival_rate = c->arrival_rate;
  w->init_rates.assign(static_cast<std::size_t>(c->NumQueues()), 1.0);
  w->init_rates[0] = c->arrival_rate;
  w->network = std::make_unique<qnet::QueueingNetwork>(c->MakeNetwork());
  w->campaign = std::move(c);
  w->sim_seed = seed;

  // The plain driver rather than a K=1 fleet (which reproduces its estimates bit for
  // bit): the fleet's hand-off to its lane thread makes window latency track host
  // wake-up jitter, which spread the K=1 fleet's p90 over 40% between runs.
  qnet::StreamingEstimatorOptions& s = w->options.stream;
  s.window.window_duration = kWindow;
  s.stem.iterations = 60;
  s.stem.burn_in = 20;
  s.stem.wait_sweeps = 20;
  s.stem.convergence_tol = 0.05;
  s.fast_path = qnet::FastPathMode::kWarmStart;
  s.window_local_arrival_rate = true;
  w->fit_seed = qnet::MixSeed(seed, 1);
  return w;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "stem-replay") return MakeStemReplay(seed);
  if (name == "csv-replay") return MakeCsvReplay(seed);
  if (name == "campaign-monitor") return MakeCampaignMonitor(seed);
  return nullptr;
}

std::unique_ptr<qnet::TraceStream> Workload::MakeStream() const {
  if (campaign != nullptr) {
    qnet::LiveSimOptions sim = campaign->SimOptions();
    sim.observed_fraction = 0.4;
    return std::make_unique<qnet::LiveSimStream>(*network, sim, sim_seed);
  }
  if (!log_csv.empty()) {
    return std::make_unique<CsvTextStream>(log_csv, obs_csv);
  }
  return MakeMemoryStream();
}

std::unique_ptr<qnet::TraceStream> Workload::MakeMemoryStream() const {
  return std::make_unique<qnet::LogReplayStream>(log, obs);
}

std::unique_ptr<MonitorConsumers> MakeConsumers(const Workload& workload,
                                                std::size_t forecast_threads) {
  if (workload.campaign == nullptr) {
    return nullptr;
  }
  // A 4-cell load grid evaluated per window, as examples/streaming_monitor.cc runs the
  // continuous what-if forecast.
  qnet::ScenarioAxis load;
  load.kind = qnet::AxisKind::kArrivalScale;
  load.name = "load";
  load.values = {1.0, 1.5, 2.0, 3.0};
  qnet::ScenarioEngineOptions forecast;
  forecast.max_draws = 1;
  forecast.tasks_per_draw = 400;
  forecast.threads = forecast_threads;
  return std::unique_ptr<MonitorConsumers>(new MonitorConsumers{
      qnet::ChangeMonitor(workload.campaign->NumQueues()),
      qnet::WindowForecaster(workload.campaign->MakeNetwork(), qnet::ScenarioGrid({load}),
                             forecast, workload.fit_seed)});
}

}  // namespace pipebench
