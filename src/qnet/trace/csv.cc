#include "qnet/trace/csv.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <system_error>

#include "qnet/support/check.h"

namespace qnet {

namespace {

// Block size of CsvRowReader reads: large enough that refills are rare against the
// per-row parse cost, small enough to stay in L2.
constexpr std::size_t kCsvBlockBytes = std::size_t{1} << 16;

template <typename T>
T ParseCsvNumber(std::string_view field, std::string_view row) {
  T value{};
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  QNET_CHECK(ec == std::errc() && ptr == end, "bad numeric field '", field,
             "' in row: ", row);
  return value;
}

bool IsFlag(std::string_view field) { return field == "0" || field == "1"; }

}  // namespace

CsvRowReader::CsvRowReader(std::istream& is) : source_(is.rdbuf()) {}

bool CsvRowReader::Next(std::string_view& row) {
  while (true) {
    const char* const data = buffer_.data();
    const auto* newline =
        begin_ < end_
            ? static_cast<const char*>(std::memchr(data + begin_, '\n', end_ - begin_))
            : nullptr;
    if (newline != nullptr) {
      row = std::string_view(data + begin_, static_cast<std::size_t>(newline - data) - begin_);
      begin_ = static_cast<std::size_t>(newline - data) + 1;
      if (row.empty()) {
        continue;
      }
      return true;
    }
    if (exhausted_) {
      if (begin_ == end_) {
        return false;
      }
      row = std::string_view(data + begin_, end_ - begin_);  // last row, no '\n'
      begin_ = end_;
      return true;
    }
    Refill();
  }
}

void CsvRowReader::Refill() {
  const std::size_t tail = end_ - begin_;
  if (buffer_.empty()) {
    buffer_.resize(kCsvBlockBytes);
  } else if (tail == buffer_.size()) {
    buffer_.resize(2 * buffer_.size());  // one row fills the whole buffer
  }
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, tail);
    begin_ = 0;
    end_ = tail;
  }
  const std::streamsize got = source_->sgetn(
      buffer_.data() + end_, static_cast<std::streamsize>(buffer_.size() - end_));
  if (got <= 0) {
    exhausted_ = true;
    return;
  }
  end_ += static_cast<std::size_t>(got);
}

void SplitCsvRow(std::string_view row, std::vector<std::string_view>& fields,
                 char separator) {
  fields.clear();
  while (true) {
    const std::size_t at = row.find(separator);
    if (at == std::string_view::npos) {
      fields.push_back(row);
      return;
    }
    fields.push_back(row.substr(0, at));
    row.remove_prefix(at + 1);
  }
}

int ParseCsvInt(std::string_view field, std::string_view row) {
  return ParseCsvNumber<int>(field, row);
}

long ParseCsvLong(std::string_view field, std::string_view row) {
  return ParseCsvNumber<long>(field, row);
}

double ParseCsvDouble(std::string_view field, std::string_view row) {
  return ParseCsvNumber<double>(field, row);
}

std::uint64_t ParseCsvU64(std::string_view field, std::string_view row) {
  return ParseCsvNumber<std::uint64_t>(field, row);
}

EventLogRow ParseEventLogRow(std::string_view row, std::vector<std::string_view>& fields) {
  SplitCsvRow(row, fields);
  QNET_CHECK(fields.size() == 6, "bad event-log row: ", row);
  QNET_CHECK(IsFlag(fields[5]), "bad initial flag in row: ", row);
  EventLogRow parsed;
  parsed.task = ParseCsvInt(fields[0], row);
  parsed.state = ParseCsvInt(fields[1], row);
  parsed.queue = ParseCsvInt(fields[2], row);
  parsed.arrival = ParseCsvDouble(fields[3], row);
  parsed.departure = ParseCsvDouble(fields[4], row);
  parsed.initial = fields[5] == "1";
  return parsed;
}

ObservationRow ParseObservationRow(std::string_view row,
                                   std::vector<std::string_view>& fields) {
  SplitCsvRow(row, fields);
  QNET_CHECK(fields.size() == 3, "bad observation row: ", row);
  QNET_CHECK(IsFlag(fields[1]) && IsFlag(fields[2]), "bad observation flags in row: ", row);
  ObservationRow parsed;
  parsed.event = ParseCsvLong(fields[0], row);
  parsed.arrival_observed = fields[1] == "1";
  parsed.departure_observed = fields[2] == "1";
  return parsed;
}

std::string ReadCsvMetaLine(std::istream& is, const std::string& key,
                            const std::string& what) {
  std::string line;
  QNET_CHECK(static_cast<bool>(std::getline(is, line)), "truncated ", what, ": missing ",
             key, " header");
  const std::string prefix = "# " + key + "=";
  QNET_CHECK(line.rfind(prefix, 0) == 0, "bad ", what, " header line: ", line,
             " (expected ", prefix, "...)");
  return line.substr(prefix.size());
}

void WriteEventLog(std::ostream& os, const EventLog& log) {
  os << "# queues=" << log.NumQueues() << '\n';
  os << "task,state,queue,arrival,departure,initial\n";
  os << std::setprecision(17);
  for (int task = 0; task < log.NumTasks(); ++task) {
    for (EventId e : log.TaskEvents(task)) {
      const Event& ev = log.At(e);
      os << ev.task << ',' << ev.state << ',' << ev.queue << ',' << ev.arrival << ','
         << ev.departure << ',' << (ev.initial ? 1 : 0) << '\n';
    }
  }
}

void WriteEventLogFile(const std::string& path, const EventLog& log) {
  std::ofstream os(path);
  QNET_CHECK(os.good(), "cannot open ", path, " for writing");
  WriteEventLog(os, log);
  QNET_CHECK(os.good(), "write failed for ", path);
}

int ReadEventLogHeader(std::istream& is, int num_queues) {
  std::string line;
  QNET_CHECK(static_cast<bool>(std::getline(is, line)), "empty event-log stream");
  static constexpr char kQueuesPrefix[] = "# queues=";
  if (line.rfind(kQueuesPrefix, 0) == 0) {
    const std::string value = line.substr(sizeof(kQueuesPrefix) - 1);
    bool digits = !value.empty() && value.size() <= 9;
    for (const char c : value) {
      digits = digits && c >= '0' && c <= '9';
    }
    QNET_CHECK(digits, "bad queues header: ", line);
    const int header_queues = ParseCsvInt(value, line);
    QNET_CHECK(header_queues > 0, "bad queues header: ", line);
    QNET_CHECK(header_queues <= kMaxEventLogQueues, "queues header above the limit of ",
               kMaxEventLogQueues, ": ", line);
    QNET_CHECK(num_queues < 0 || num_queues == header_queues,
               "num_queues mismatch: caller says ", num_queues, ", header says ",
               header_queues);
    num_queues = header_queues;
    QNET_CHECK(static_cast<bool>(std::getline(is, line)), "truncated event-log stream");
  }
  QNET_CHECK(num_queues > 0,
             "event-log stream has no '# queues=N' header; pass num_queues explicitly");
  QNET_CHECK(line.rfind("task,", 0) == 0, "missing event-log header");
  return num_queues;
}

EventLog ReadEventLog(std::istream& is, int num_queues) {
  num_queues = ReadEventLogHeader(is, num_queues);
  EventLog log(num_queues);
  CsvRowReader rows(is);
  std::string_view row;
  std::vector<std::string_view> fields;
  int current_task = -1;
  while (rows.Next(row)) {
    const EventLogRow event = ParseEventLogRow(row, fields);
    if (event.initial) {
      QNET_CHECK(event.task == current_task + 1, "tasks out of order at row: ", row);
      current_task = log.AddTask(event.departure);
      QNET_CHECK(current_task == event.task, "task renumbering mismatch");
    } else {
      log.AddVisit(event.task, event.state, event.queue, event.arrival, event.departure);
    }
  }
  log.BuildQueueLinks();
  std::string why;
  QNET_CHECK(log.IsFeasible(/*tol=*/1e-9, &why), "infeasible event log: ", why);
  return log;
}

EventLog ReadEventLogFile(const std::string& path, int num_queues) {
  std::ifstream is(path);
  QNET_CHECK(is.good(), "cannot open ", path);
  return ReadEventLog(is, num_queues);
}

EventLog ReadEventLog(std::istream& is) { return ReadEventLog(is, -1); }

EventLog ReadEventLogFile(const std::string& path) { return ReadEventLogFile(path, -1); }

void WriteObservation(std::ostream& os, const Observation& obs) {
  os << "event,arrival_observed,departure_observed\n";
  for (std::size_t e = 0; e < obs.arrival_observed.size(); ++e) {
    os << e << ',' << static_cast<int>(obs.arrival_observed[e]) << ','
       << static_cast<int>(obs.departure_observed[e]) << '\n';
  }
}

void ReadObservationHeader(std::istream& is) {
  std::string line;
  QNET_CHECK(static_cast<bool>(std::getline(is, line)), "empty observation stream");
  QNET_CHECK(line.rfind("event,", 0) == 0, "missing observation header");
}

Observation ReadObservation(std::istream& is, const EventLog& log) {
  ReadObservationHeader(is);
  Observation obs;
  obs.arrival_observed.assign(log.NumEvents(), 0);
  obs.departure_observed.assign(log.NumEvents(), 0);
  CsvRowReader rows(is);
  std::string_view row;
  std::vector<std::string_view> fields;
  while (rows.Next(row)) {
    const ObservationRow flags = ParseObservationRow(row, fields);
    const auto e = static_cast<std::size_t>(flags.event);
    QNET_CHECK(flags.event >= 0 && e < log.NumEvents(), "event id out of range: ", row);
    obs.arrival_observed[e] = flags.arrival_observed ? 1 : 0;
    obs.departure_observed[e] = flags.departure_observed ? 1 : 0;
  }
  obs.Validate(log);
  return obs;
}

void WriteSeries(std::ostream& os, const std::vector<std::string>& header,
                 const std::vector<std::vector<double>>& rows) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    os << header[i] << (i + 1 < header.size() ? "," : "");
  }
  os << '\n' << std::setprecision(12);
  for (const auto& row : rows) {
    QNET_CHECK(row.size() == header.size(), "row width != header width");
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << row[i] << (i + 1 < row.size() ? "," : "");
    }
    os << '\n';
  }
}

void WriteSeriesFile(const std::string& path, const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& rows) {
  std::ofstream os(path);
  QNET_CHECK(os.good(), "cannot open ", path, " for writing");
  WriteSeries(os, header, rows);
  QNET_CHECK(os.good(), "write failed for ", path);
}

}  // namespace qnet
