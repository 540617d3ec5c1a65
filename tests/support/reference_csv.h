// Test oracle: the earlier CSV parse path, kept to pin the production reader against it.
// Rows come from std::getline, fields from a std::string splitter (one substr each), and
// numbers from std::stoi / std::stol / std::stod / std::stoull. ReadEventLog and
// ReadWindowEstimates here are that path's readers, row checks unchanged; their header
// steps are the library's (headers are still read with getline).
//
// Known differences from the production reader (trace/csv.h), pinned by
// CsvDifferential.* in test_trace_csv:
//   - a leading '+' or whitespace: accepted here (stod/stoi skip them), rejected there;
//   - hexadecimal doubles ("0x1p3"): accepted here, rejected there;
//   - subnormal doubles ("1e-320"): rejected here (stod reports ERANGE), accepted there,
//     so a WriteEventLog output holding a subnormal now reads back;
//   - a NaN payload ("nan(123)"): kept here, dropped there (both read a NaN).

#ifndef QNET_TESTS_SUPPORT_REFERENCE_CSV_H_
#define QNET_TESTS_SUPPORT_REFERENCE_CSV_H_

#include <cmath>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/stream/streaming_estimator.h"
#include "qnet/support/check.h"
#include "qnet/trace/csv.h"

namespace qnet_testing::reference {

inline void SplitCsvLine(const std::string& line, std::vector<std::string>& fields) {
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

template <typename Parse>
auto ParseCsvNumber(const std::string& field, const std::string& line, Parse parse) {
  try {
    std::size_t pos = 0;
    const auto value = parse(field, &pos);
    QNET_CHECK(pos == field.size(), "bad numeric field '", field, "' in row: ", line);
    return value;
  } catch (const qnet::Error&) {
    throw;
  } catch (const std::exception&) {
    qnet::internal::CheckFail("numeric CSV field", __FILE__, __LINE__,
                              qnet::internal::BuildMessage("bad numeric field '", field,
                                                           "' in row: ", line));
  }
}

inline int ParseCsvInt(const std::string& field, const std::string& line) {
  return ParseCsvNumber(field, line,
                        [](const std::string& s, std::size_t* pos) { return std::stoi(s, pos); });
}

inline long ParseCsvLong(const std::string& field, const std::string& line) {
  return ParseCsvNumber(field, line,
                        [](const std::string& s, std::size_t* pos) { return std::stol(s, pos); });
}

inline double ParseCsvDouble(const std::string& field, const std::string& line) {
  return ParseCsvNumber(field, line,
                        [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); });
}

inline std::uint64_t ParseCsvU64(const std::string& field, const std::string& line) {
  QNET_CHECK(field.empty() || field[0] != '-', "bad numeric field '", field,
             "' in row: ", line);
  return ParseCsvNumber(field, line, [](const std::string& s, std::size_t* pos) {
    return std::stoull(s, pos);
  });
}

inline qnet::EventLog ReadEventLog(std::istream& is) {
  const int num_queues = qnet::ReadEventLogHeader(is, -1);
  std::string line;
  std::vector<std::string> fields;
  qnet::EventLog log(num_queues);
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

inline std::vector<qnet::WindowEstimate> ReadWindowEstimates(std::istream& is) {
  const int num_queues = ParseCsvInt(
      qnet::ReadCsvMetaLine(is, "queues", "window-estimate CSV"), "queues header");
  QNET_CHECK(num_queues >= 2, "window-estimate CSV has ", num_queues, " queues");
  const long windows = ParseCsvLong(
      qnet::ReadCsvMetaLine(is, "windows", "window-estimate CSV"), "windows header");
  QNET_CHECK(windows >= 0, "negative window count");

  std::vector<qnet::WindowEstimate> estimates;
  const std::size_t queues = static_cast<std::size_t>(num_queues);
  std::string line;
  std::vector<std::string> fields;
  while (static_cast<long>(estimates.size()) < windows) {
    QNET_CHECK(static_cast<bool>(std::getline(is, line)),
               "truncated window-estimate CSV: expected ", windows, " rows, got ",
               estimates.size());
    if (line.empty()) {
      continue;
    }
    SplitCsvLine(line, fields);
    const bool has_alerts =
        fields.size() == 8 + queues || fields.size() == 8 + 2 * queues;
    QNET_CHECK(has_alerts || fields.size() == 7 + queues ||
                   fields.size() == 7 + 2 * queues,
               "bad window-estimate row (", fields.size(), " fields): ", line);
    const std::size_t meta_fields = has_alerts ? 8 : 7;
    qnet::WindowEstimate estimate;
    estimate.t0 = ParseCsvDouble(fields[0], line);
    estimate.t1 = ParseCsvDouble(fields[1], line);
    QNET_CHECK(std::isfinite(estimate.t0) && std::isfinite(estimate.t1) &&
                   estimate.t0 <= estimate.t1,
               "bad window bounds: ", line);
    const long tasks = ParseCsvLong(fields[2], line);
    const long merged_tail_tasks = ParseCsvLong(fields[3], line);
    QNET_CHECK(tasks >= 0 && merged_tail_tasks >= 0, "negative task count: ", line);
    estimate.tasks = static_cast<std::size_t>(tasks);
    estimate.merged_tail_tasks = static_cast<std::size_t>(merged_tail_tasks);
    estimate.window_local_arrival_rate = ParseCsvInt(fields[4], line) != 0;
    estimate.degraded = ParseCsvInt(fields[5], line) != 0;
    const long fit_iterations = ParseCsvLong(fields[6], line);
    QNET_CHECK(fit_iterations >= 0, "negative fit_iterations: ", line);
    estimate.fit_iterations = static_cast<std::size_t>(fit_iterations);
    if (has_alerts) {
      const long alerts = ParseCsvLong(fields[7], line);
      QNET_CHECK(alerts >= 0 && alerts <= 0xffffffffL, "bad alerts mask: ", line);
      estimate.alerts = static_cast<std::uint32_t>(alerts);
    }
    estimate.rates.resize(queues);
    for (std::size_t q = 0; q < queues; ++q) {
      estimate.rates[q] = ParseCsvDouble(fields[meta_fields + q], line);
      QNET_CHECK(std::isfinite(estimate.rates[q]) && estimate.rates[q] > 0.0,
                 "rate must be finite and positive: ", line);
    }
    if (fields.size() == meta_fields + 2 * queues) {
      estimate.mean_wait.resize(queues);
      for (std::size_t q = 0; q < queues; ++q) {
        estimate.mean_wait[q] = ParseCsvDouble(fields[meta_fields + queues + q], line);
      }
    }
    estimates.push_back(std::move(estimate));
  }
  return estimates;
}

}  // namespace qnet_testing::reference

#endif  // QNET_TESTS_SUPPORT_REFERENCE_CSV_H_
