// Seeded byte-mutation corpora over valid CSV text, shared by the readers' robustness
// tests and the differential tests against the reference parse path
// (support/reference_csv.h), so both run over exactly the same mutated inputs.

#ifndef QNET_TESTS_SUPPORT_CSV_CORPORA_H_
#define QNET_TESTS_SUPPORT_CSV_CORPORA_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qnet/model/builders.h"
#include "qnet/obs/observation.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/support/rng.h"
#include "qnet/trace/csv.h"
#include "qnet/trace/window_csv.h"

namespace qnet_testing {

// Mostly CSV-shaped bytes (digits, separators, exponents) for the event-log corpus.
inline constexpr std::string_view kEventLogMutationAlphabet = "0123456789.,-+eE\n #";
// The window-estimate corpus adds the letters of "nan" and "inf".
inline constexpr std::string_view kWindowCsvMutationAlphabet = "0123456789.,-+eE\n #ainf";
// The observation corpus: event ids, 0/1 flags and separators.
inline constexpr std::string_view kObservationMutationAlphabet = "0123456789,-\n #";

// Overwrites one byte of `text`: three times in four a byte of `alphabet`, otherwise any
// byte.
inline void MutateOneByte(std::string& text, qnet::Rng& rng, std::string_view alphabet) {
  const std::uint64_t at = rng.NextU64() % text.size();
  const std::uint64_t pick = rng.NextU64();
  text[at] = pick % 4 == 0 ? static_cast<char>(pick >> 8)
                           : alphabet[(pick >> 8) % alphabet.size()];
}

// The log under the event-log and observation corpora: a 24-task two-stage tandem,
// simulated from `rng` (which then drives the mutations).
inline qnet::EventLog CorpusLog(qnet::Rng& rng) {
  const qnet::QueueingNetwork net = qnet::MakeTandemNetwork(2.0, {4.0, 3.0});
  return qnet::SimulateWorkload(net, qnet::PoissonArrivals(2.0, 24), rng);
}

// The event-log corpus base: CorpusLog as written by WriteEventLog.
inline std::string EventLogCorpusText(qnet::Rng& rng) {
  std::ostringstream written;
  qnet::WriteEventLog(written, CorpusLog(rng));
  return written.str();
}

// The observation corpus base: CorpusLog with half its tasks observed, and that
// observation as written by WriteObservation. ReadObservation checks rows against `log`.
struct ObservationCorpus {
  qnet::EventLog log;
  std::string text;
};
inline ObservationCorpus ObservationCorpusBase(qnet::Rng& rng) {
  qnet::EventLog log = CorpusLog(rng);
  qnet::TaskSamplingScheme scheme;
  scheme.fraction = 0.5;
  std::ostringstream written;
  qnet::WriteObservation(written, scheme.Apply(log, rng));
  return ObservationCorpus{std::move(log), written.str()};
}

// The window-estimate corpus base: 8 three-queue estimates drawn from `rng`, covering
// merged tails, degraded fits, alert masks and rows with and without mean waits.
inline std::string WindowEstimateCorpusText(qnet::Rng& rng) {
  constexpr int kQueues = 3;
  std::vector<qnet::WindowEstimate> estimates(8);
  double t = 0.0;
  for (std::size_t w = 0; w < estimates.size(); ++w) {
    qnet::WindowEstimate& estimate = estimates[w];
    estimate.t0 = t;
    t += 10.0 + rng.Uniform();
    estimate.t1 = t;
    estimate.tasks = 90 + rng.NextU64() % 20;
    estimate.merged_tail_tasks = w + 1 == estimates.size() ? 17 : 0;
    estimate.window_local_arrival_rate = w % 2 == 0;
    estimate.degraded = w % 3 == 0;
    estimate.fit_iterations = estimate.degraded ? 0 : 20;
    estimate.alerts = w == 4 ? 0x5u : 0u;
    for (int q = 0; q < kQueues; ++q) {
      estimate.rates.push_back(5.0 + 10.0 * rng.Uniform());
      if (w % 2 == 1) {
        estimate.mean_wait.push_back(0.1 * rng.Uniform());
      }
    }
  }
  std::ostringstream written;
  qnet::WriteWindowEstimates(written, estimates, kQueues);
  return written.str();
}

}  // namespace qnet_testing

#endif  // QNET_TESTS_SUPPORT_CSV_CORPORA_H_
