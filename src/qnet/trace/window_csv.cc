#include "qnet/trace/window_csv.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "qnet/support/check.h"
#include "qnet/trace/csv.h"

namespace qnet {

void WriteWindowEstimates(std::ostream& os, const std::vector<WindowEstimate>& estimates,
                          int num_queues) {
  QNET_CHECK(num_queues >= 2, "window-estimate CSV needs at least 2 queues");
  os << "# queues=" << num_queues << '\n';
  os << "# windows=" << estimates.size() << '\n';
  // 17 significant digits round-trip doubles bit-exactly; restore the caller's
  // precision afterwards.
  const std::streamsize caller_precision = os.precision(17);
  for (const WindowEstimate& estimate : estimates) {
    QNET_CHECK(estimate.rates.size() == static_cast<std::size_t>(num_queues),
               "estimate rate vector does not match num_queues");
    QNET_CHECK(estimate.mean_wait.empty() ||
                   estimate.mean_wait.size() == static_cast<std::size_t>(num_queues),
               "estimate mean_wait vector does not match num_queues");
    os << estimate.t0 << ',' << estimate.t1 << ',' << estimate.tasks << ','
       << estimate.merged_tail_tasks << ','
       << (estimate.window_local_arrival_rate ? 1 : 0) << ','
       << (estimate.degraded ? 1 : 0) << ',' << estimate.fit_iterations << ','
       << estimate.alerts;
    for (const double rate : estimate.rates) {
      os << ',' << rate;
    }
    for (const double wait : estimate.mean_wait) {
      os << ',' << wait;
    }
    os << '\n';
  }
  os.precision(caller_precision);
}

void WriteWindowEstimatesFile(const std::string& path,
                              const std::vector<WindowEstimate>& estimates,
                              int num_queues) {
  std::ofstream os(path);
  QNET_CHECK(os.good(), "cannot open ", path, " for writing");
  WriteWindowEstimates(os, estimates, num_queues);
}

std::vector<WindowEstimate> ReadWindowEstimates(std::istream& is) {
  const int num_queues =
      ParseCsvInt(ReadCsvMetaLine(is, "queues", "window-estimate CSV"), "queues header");
  QNET_CHECK(num_queues >= 2, "window-estimate CSV has ", num_queues, " queues");
  const long windows = ParseCsvLong(
      ReadCsvMetaLine(is, "windows", "window-estimate CSV"), "windows header");
  QNET_CHECK(windows >= 0, "negative window count");

  // The header's count is not trusted for a reservation: rows are appended as they parse,
  // so a hostile count fails as a truncated file, not as an allocation.
  std::vector<WindowEstimate> estimates;
  const std::size_t queues = static_cast<std::size_t>(num_queues);
  CsvRowReader rows(is);
  std::string_view line;
  std::vector<std::string_view> fields;
  while (static_cast<long>(estimates.size()) < windows) {
    QNET_CHECK(rows.Next(line), "truncated window-estimate CSV: expected ", windows,
               " rows, got ", estimates.size());
    SplitCsvRow(line, fields);
    // Rows carry 7 (legacy, pre-alerts) or 8 leading metadata fields, then Q rates and
    // optionally Q waits. For Q >= 2 the four counts are pairwise distinct, so the
    // column count identifies both the format generation and the wait presence.
    const bool has_alerts =
        fields.size() == 8 + queues || fields.size() == 8 + 2 * queues;
    QNET_CHECK(has_alerts || fields.size() == 7 + queues ||
                   fields.size() == 7 + 2 * queues,
               "bad window-estimate row (", fields.size(), " fields): ", line);
    const std::size_t meta_fields = has_alerts ? 8 : 7;
    WindowEstimate estimate;
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

}  // namespace qnet
