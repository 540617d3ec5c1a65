#include "qnet/trace/csv.h"

#include <fstream>
#include <iomanip>
#include <istream>

#include "qnet/support/check.h"

namespace qnet {

void SplitCsvLine(const std::string& line, std::vector<std::string>& fields) {
  fields.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

namespace {

template <typename Parse>
auto ParseCsvNumber(const std::string& field, const std::string& line, Parse parse) {
  try {
    std::size_t pos = 0;
    const auto value = parse(field, &pos);
    QNET_CHECK(pos == field.size(), "bad numeric field '", field, "' in row: ", line);
    return value;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    internal::CheckFail("numeric CSV field", __FILE__, __LINE__,
                        internal::BuildMessage("bad numeric field '", field,
                                               "' in row: ", line));
  }
}

}  // namespace

int ParseCsvInt(const std::string& field, const std::string& line) {
  return ParseCsvNumber(field, line,
                        [](const std::string& s, std::size_t* pos) { return std::stoi(s, pos); });
}

long ParseCsvLong(const std::string& field, const std::string& line) {
  return ParseCsvNumber(field, line,
                        [](const std::string& s, std::size_t* pos) { return std::stol(s, pos); });
}

double ParseCsvDouble(const std::string& field, const std::string& line) {
  return ParseCsvNumber(field, line,
                        [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); });
}

std::uint64_t ParseCsvU64(const std::string& field, const std::string& line) {
  QNET_CHECK(field.empty() || field[0] != '-', "bad numeric field '", field,
             "' in row: ", line);
  return ParseCsvNumber(field, line, [](const std::string& s, std::size_t* pos) {
    return std::stoull(s, pos);
  });
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
    const int header_queues = std::stoi(value);
    QNET_CHECK(header_queues > 0, "bad queues header: ", line);
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
  std::string line;
  std::vector<std::string> fields;
  EventLog log(num_queues);
  int current_task = -1;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    SplitCsvLine(line, fields);
    QNET_CHECK(fields.size() == 6, "bad event-log row: ", line);
    QNET_CHECK(fields[5] == "0" || fields[5] == "1", "bad initial flag in row: ", line);
    const int task = ParseCsvInt(fields[0], line);
    const int state = ParseCsvInt(fields[1], line);
    const int queue = ParseCsvInt(fields[2], line);
    const double arrival = ParseCsvDouble(fields[3], line);
    const double departure = ParseCsvDouble(fields[4], line);
    const bool initial = fields[5] == "1";
    if (initial) {
      QNET_CHECK(task == current_task + 1, "tasks out of order at row: ", line);
      current_task = log.AddTask(departure);
      QNET_CHECK(current_task == task, "task renumbering mismatch");
    } else {
      log.AddVisit(task, state, queue, arrival, departure);
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

Observation ReadObservation(std::istream& is, const EventLog& log) {
  std::string line;
  QNET_CHECK(static_cast<bool>(std::getline(is, line)), "empty observation stream");
  QNET_CHECK(line.rfind("event,", 0) == 0, "missing observation header");
  Observation obs;
  obs.arrival_observed.assign(log.NumEvents(), 0);
  obs.departure_observed.assign(log.NumEvents(), 0);
  std::vector<std::string> fields;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    SplitCsvLine(line, fields);
    QNET_CHECK(fields.size() == 3, "bad observation row: ", line);
    QNET_CHECK((fields[1] == "0" || fields[1] == "1") &&
                   (fields[2] == "0" || fields[2] == "1"),
               "bad observation flags in row: ", line);
    const long event = ParseCsvLong(fields[0], line);
    const auto e = static_cast<std::size_t>(event);
    QNET_CHECK(event >= 0 && e < log.NumEvents(), "event id out of range: ", line);
    obs.arrival_observed[e] = fields[1] == "1" ? 1 : 0;
    obs.departure_observed[e] = fields[2] == "1" ? 1 : 0;
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
