// CSV round-tripping of per-window estimate sequences (WindowEstimate) — the merged
// output stream of StreamingEstimator and the sharded streaming fleet. Lets a monitor
// persist its rate trajectory (and a downstream process replay it) bit-exactly: doubles
// are written with 17 significant digits and parsed back to the same bits.
//
// Format:
//   # queues=Q
//   # windows=N
//   t0,t1,tasks,merged_tail_tasks,window_local_lambda,degraded,fit_iterations,alerts,
//       rate_q0..rate_q{Q-1}[,wait_q0..]
// The mean-wait columns are present only for estimates that carry them (wait_sweeps > 0
// or a mean-field fit); presence is per row, signaled by the column count. `alerts` is
// the change monitor's AlertKind bitmask (WindowEstimate::alerts; 0 when no monitor
// annotated the sequence). Rows written before the alerts column existed (7 + Q or
// 7 + 2Q fields instead of 8 + Q / 8 + 2Q) still parse, with alerts = 0 — the counts
// are unambiguous for the Q >= 2 the format requires.

#ifndef QNET_TRACE_WINDOW_CSV_H_
#define QNET_TRACE_WINDOW_CSV_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "qnet/stream/streaming_estimator.h"

namespace qnet {

void WriteWindowEstimates(std::ostream& os, const std::vector<WindowEstimate>& estimates,
                          int num_queues);
void WriteWindowEstimatesFile(const std::string& path,
                              const std::vector<WindowEstimate>& estimates, int num_queues);

// Inverse of WriteWindowEstimates; throws qnet::Error on malformed input, including
// values no estimator emits: non-finite or reversed window bounds (t1 < t0), negative task
// counts, and rates that are not finite and positive.
std::vector<WindowEstimate> ReadWindowEstimates(std::istream& is);

}  // namespace qnet

#endif  // QNET_TRACE_WINDOW_CSV_H_
