// CSV serialization for event logs, observations, and result series, so experiments can be
// archived and re-plotted outside the binaries.
//
// Event-log format: a `# queues=N` header line recording the network size, a column
// header, then one row per event in (task, route-order):
//     # queues=N
//     task,state,queue,arrival,departure,initial
// Observation format, one row per event id:
//     event,arrival_observed,departure_observed
//
// One reader for every CSV in the repository. ReadEventLog, ReadObservation,
// CsvReplayStream, ReadWindowEstimates and ReadScenarioReport all read their data rows
// through CsvRowReader, split them with SplitCsvRow and parse fields with the
// ParseCsv* functions below, so the readers share one format definition:
//   - Rows end at '\n'. Empty rows are skipped; a last row without '\n' is read. A '\r'
//     stays part of the row, so CRLF files are rejected by the field checks.
//   - Fields are split on ',' with no quoting; a field is the text between separators.
//   - Numbers are std::from_chars in full: the whole field must be consumed. Integers are
//     decimal with an optional leading '-'. Doubles are decimal or scientific
//     ("1.5", ".5", "5.", "-2.5e-3"), or "inf", "infinity", "nan" (any case, optional
//     '-'). Not accepted: a leading '+' or whitespace, hexadecimal ("0x1p3"), and values
//     outside the type's range (an overflowing double, or one that underflows to zero).
//     Subnormal doubles ("1e-320") are accepted, so everything WriteEventLog writes with
//     17 significant digits reads back to the same bits.
// Header lines ('#' metadata and the column header) are read with std::getline before a
// CsvRowReader takes over the stream.

#ifndef QNET_TRACE_CSV_H_
#define QNET_TRACE_CSV_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/obs/observation.h"

namespace qnet {

// Buffered row reader over an istream's stream buffer. It reads blocks with sgetn into
// one reused buffer and yields each row as a view into it, so a warm reader allocates
// nothing per row; the buffer grows only for a row longer than itself. Construction
// reads nothing. Once Next has been called, the reader owns the stream: nothing else may
// read `is`, since the reader has already consumed bytes past the row it returned.
class CsvRowReader {
 public:
  explicit CsvRowReader(std::istream& is);

  // Stores the next non-empty row (without its '\n') in `row` and returns true; false
  // at end of stream. The view, and every field split from it, stays valid until the
  // next call.
  bool Next(std::string_view& row);

 private:
  // Moves the unread tail to the front (growing the buffer when the tail fills it) and
  // appends one block; sets exhausted_ when the stream has no more bytes.
  void Refill();

  std::streambuf* source_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  // first unread byte
  std::size_t end_ = 0;    // one past the last buffered byte
  bool exhausted_ = false;
};

// Splits one row into `fields` (views into `row`; the vector is reused across calls). A
// row with k separators has k + 1 fields, so a trailing separator yields an empty field.
void SplitCsvRow(std::string_view row, std::vector<std::string_view>& fields,
                 char separator = ',');

// Checked numeric field parsers (format above): a malformed or out-of-range field raises
// Error naming the field and quoting `row`.
int ParseCsvInt(std::string_view field, std::string_view row);
long ParseCsvLong(std::string_view field, std::string_view row);
double ParseCsvDouble(std::string_view field, std::string_view row);
// Unsigned 64-bit (e.g. RNG seeds); a negative value is malformed, not wrapped.
std::uint64_t ParseCsvU64(std::string_view field, std::string_view row);

// One event-log data row, parsed and format-checked: six fields, initial flag 0 or 1.
// The row format of both ReadEventLog and CsvReplayStream.
struct EventLogRow {
  int task = 0;
  int state = 0;
  int queue = 0;
  double arrival = 0.0;
  double departure = 0.0;
  bool initial = false;
};
EventLogRow ParseEventLogRow(std::string_view row, std::vector<std::string_view>& fields);

// One observation data row: an event id and two 0/1 flags. The row format of both
// ReadObservation and CsvReplayStream.
struct ObservationRow {
  long event = 0;
  bool arrival_observed = false;
  bool departure_observed = false;
};
ObservationRow ParseObservationRow(std::string_view row,
                                   std::vector<std::string_view>& fields);

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

// Consumes one '# key=value' metadata header line and returns the text after '='.
// `what` names the file kind in diagnostics (e.g. "scenario report"). The one header
// parser shared by every '#'-headed CSV in trace/, so the format cannot drift.
std::string ReadCsvMetaLine(std::istream& is, const std::string& key,
                            const std::string& what);

// The largest network a '# queues=N' header may declare. Readers size per-queue storage
// from N before any row is read, so a hostile header must be rejected first. The cap is
// far above any network the builders, examples or workloads make (the largest, the
// perf_scaling three-tier network, has 49 queues), and per-queue storage at the cap is a
// few MB.
inline constexpr int kMaxEventLogQueues = 1 << 16;

// Shared header step for event-log readers (ReadEventLog, CsvReplayStream): consumes the
// optional '# queues=N' line plus the column-header line from `is`, reconciles N with the
// caller-supplied num_queues (-1 = must come from the header, nonnegative = required to
// match any header present), and returns the resolved queue count. Throws Error on
// malformed headers and on N above kMaxEventLogQueues.
int ReadEventLogHeader(std::istream& is, int num_queues);

// Consumes the observation column-header line; throws Error if it is missing.
void ReadObservationHeader(std::istream& is);

void WriteObservation(std::ostream& os, const Observation& obs);
Observation ReadObservation(std::istream& is, const EventLog& log);

// Generic numeric series: a header row then one row per record.
void WriteSeries(std::ostream& os, const std::vector<std::string>& header,
                 const std::vector<std::vector<double>>& rows);
void WriteSeriesFile(const std::string& path, const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& rows);

}  // namespace qnet

#endif  // QNET_TRACE_CSV_H_
