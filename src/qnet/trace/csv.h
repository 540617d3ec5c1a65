// CSV serialization for event logs, observations, and result series, so experiments can be
// archived and re-plotted outside the binaries.
//
// Event-log format: a `# queues=N` header line recording the network size, a column
// header, then one row per event in (task, route-order):
//     # queues=N
//     task,state,queue,arrival,departure,initial
// Observation format, one row per event id:
//     event,arrival_observed,departure_observed

#ifndef QNET_TRACE_CSV_H_
#define QNET_TRACE_CSV_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/obs/observation.h"

namespace qnet {

void WriteEventLog(std::ostream& os, const EventLog& log);
void WriteEventLogFile(const std::string& path, const EventLog& log);

// Reads a log written by WriteEventLog, taking the network size from the `# queues=N`
// header (CHECK-fails on headerless legacy files). A log that fails
// EventLog::IsFeasible (broken task continuity, negative service, FIFO or arrival order
// violated) is rejected with an Error that carries IsFeasible's reason.
EventLog ReadEventLog(std::istream& is);
EventLog ReadEventLogFile(const std::string& path);
// Back-compat overloads for headerless files: num_queues supplies the network size (and
// is checked against the header when one is present).
EventLog ReadEventLog(std::istream& is, int num_queues);
EventLog ReadEventLogFile(const std::string& path, int num_queues);

// Splits one CSV line into `fields` (reused across calls — no per-call vector). The one
// splitter shared by the batch readers here and the incremental CsvReplayStream, so the
// two cannot diverge on format details.
void SplitCsvLine(const std::string& line, std::vector<std::string>& fields);

// Checked numeric field parsers: corrupt values raise Error (like every other corrupt-
// input path) instead of leaking std::invalid_argument/std::out_of_range from stoi/stod.
// `line` is quoted in the diagnostic. Shared by the batch readers and CsvReplayStream.
int ParseCsvInt(const std::string& field, const std::string& line);
long ParseCsvLong(const std::string& field, const std::string& line);
double ParseCsvDouble(const std::string& field, const std::string& line);
// Unsigned 64-bit (e.g. RNG seeds). Rejects negative input explicitly — std::stoull
// would silently wrap it.
std::uint64_t ParseCsvU64(const std::string& field, const std::string& line);

// Consumes one '# key=value' metadata header line and returns the text after '='.
// `what` names the file kind in diagnostics (e.g. "scenario report"). The one header
// parser shared by every '#'-headed CSV in trace/, so the format cannot drift.
std::string ReadCsvMetaLine(std::istream& is, const std::string& key,
                            const std::string& what);

// Shared header step for event-log readers (ReadEventLog, CsvReplayStream): consumes the
// optional '# queues=N' line plus the column-header line from `is`, reconciles N with the
// caller-supplied num_queues (-1 = must come from the header, nonnegative = required to
// match any header present), and returns the resolved queue count. Throws Error on
// malformed headers.
int ReadEventLogHeader(std::istream& is, int num_queues);

void WriteObservation(std::ostream& os, const Observation& obs);
Observation ReadObservation(std::istream& is, const EventLog& log);

// Generic numeric series: a header row then one row per record.
void WriteSeries(std::ostream& os, const std::vector<std::string>& header,
                 const std::vector<std::vector<double>>& rows);
void WriteSeriesFile(const std::string& path, const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& rows);

}  // namespace qnet

#endif  // QNET_TRACE_CSV_H_
