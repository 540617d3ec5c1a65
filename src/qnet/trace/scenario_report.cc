#include "qnet/trace/scenario_report.h"

#include <fstream>
#include <ostream>
#include <string_view>
#include <vector>

#include "qnet/support/check.h"
#include "qnet/trace/csv.h"

namespace qnet {

namespace {

void WriteBand(std::ostream& os, const MetricBand& band) {
  os << ',' << band.mean << ',' << band.lo << ',' << band.hi;
}

MetricBand ReadBand(const std::vector<std::string_view>& fields, std::size_t& at,
                    std::string_view line) {
  MetricBand band;
  band.mean = ParseCsvDouble(fields[at++], line);
  band.lo = ParseCsvDouble(fields[at++], line);
  band.hi = ParseCsvDouble(fields[at++], line);
  return band;
}

}  // namespace

void WriteScenarioReport(std::ostream& os, const ScenarioReport& report) {
  QNET_CHECK(report.num_queues >= 2, "report has no real queues");
  os << "# queues=" << report.num_queues << '\n';
  os << "# axes=";
  for (std::size_t a = 0; a < report.axis_names.size(); ++a) {
    os << (a > 0 ? "," : "") << report.axis_names[a];
  }
  os << '\n';
  os << "# cells=" << report.cells.size() << '\n';
  os << "# draws=" << report.draws << '\n';
  os << "# tasks_per_draw=" << report.tasks_per_draw << '\n';
  os << "# seed=" << report.seed << '\n';

  os << "cell";
  for (const std::string& name : report.axis_names) {
    os << ',' << name;
  }
  os << ",mean_resp,mean_resp_lo,mean_resp_hi,tail_resp,tail_resp_lo,tail_resp_hi"
     << ",bottleneck,ranking,analytic_valid,analytic_stable,analytic_mean_resp";
  for (int q = 1; q < report.num_queues; ++q) {
    os << ",util_q" << q << ",util_q" << q << "_lo,util_q" << q << "_hi"
       << ",qlen_q" << q << ",qlen_q" << q << "_lo,qlen_q" << q << "_hi";
  }
  os << '\n';
  // 17 significant digits round-trip doubles bit-exactly; restore the caller's
  // precision afterwards so writing a report has no side effect on their stream.
  const std::streamsize caller_precision = os.precision(17);

  for (const CellResult& cell : report.cells) {
    QNET_CHECK(cell.axis_values.size() == report.axis_names.size(),
               "cell axis values do not match the axis names");
    os << cell.cell;
    for (const double v : cell.axis_values) {
      os << ',' << v;
    }
    WriteBand(os, cell.mean_response);
    WriteBand(os, cell.tail_response);
    os << ',' << cell.bottleneck_queue << ',';
    for (std::size_t r = 0; r < cell.bottleneck_ranking.size(); ++r) {
      os << (r > 0 ? ";" : "") << cell.bottleneck_ranking[r];
    }
    os << ',' << (cell.analytic_valid ? 1 : 0) << ',' << (cell.analytic_stable ? 1 : 0)
       << ',' << cell.analytic_mean_response;
    for (int q = 1; q < report.num_queues; ++q) {
      WriteBand(os, cell.utilization[static_cast<std::size_t>(q)]);
      WriteBand(os, cell.queue_length[static_cast<std::size_t>(q)]);
    }
    os << '\n';
  }
  os.precision(caller_precision);
}

void WriteScenarioReportFile(const std::string& path, const ScenarioReport& report) {
  std::ofstream os(path);
  QNET_CHECK(os.good(), "cannot open ", path, " for writing");
  WriteScenarioReport(os, report);
  QNET_CHECK(os.good(), "write failed for ", path);
}

ScenarioReport ReadScenarioReport(std::istream& is) {
  ScenarioReport report;
  report.num_queues = ParseCsvInt(ReadCsvMetaLine(is, "queues", "scenario report"), "# queues");
  QNET_CHECK(report.num_queues >= 2, "bad queue count in scenario report");
  std::vector<std::string_view> fields;
  const std::string axes = ReadCsvMetaLine(is, "axes", "scenario report");
  if (!axes.empty()) {
    SplitCsvRow(axes, fields);
    report.axis_names.assign(fields.begin(), fields.end());
  }
  const std::size_t num_cells =
      static_cast<std::size_t>(ParseCsvLong(ReadCsvMetaLine(is, "cells", "scenario report"), "# cells"));
  report.draws =
      static_cast<std::size_t>(ParseCsvLong(ReadCsvMetaLine(is, "draws", "scenario report"), "# draws"));
  report.tasks_per_draw = static_cast<std::size_t>(
      ParseCsvLong(ReadCsvMetaLine(is, "tasks_per_draw", "scenario report"), "# tasks_per_draw"));
  report.seed = ParseCsvU64(ReadCsvMetaLine(is, "seed", "scenario report"), "# seed");

  std::string header;
  QNET_CHECK(static_cast<bool>(std::getline(is, header)), "missing scenario-report header");
  QNET_CHECK(header.rfind("cell,", 0) == 0 || header == "cell",
             "missing scenario-report column header, got: ", header);

  const std::size_t num_axes = report.axis_names.size();
  const auto real_queues = static_cast<std::size_t>(report.num_queues - 1);
  const std::size_t expected_fields = 1 + num_axes + 6 + 5 + 6 * real_queues;
  std::vector<std::string_view> ranking_fields;
  CsvRowReader rows(is);
  std::string_view line;
  while (rows.Next(line)) {
    SplitCsvRow(line, fields);
    QNET_CHECK(fields.size() == expected_fields, "bad scenario-report row (want ",
               expected_fields, " fields, got ", fields.size(), "): ", line);
    CellResult cell;
    std::size_t at = 0;
    cell.cell = static_cast<std::size_t>(ParseCsvLong(fields[at++], line));
    QNET_CHECK(cell.cell == report.cells.size(), "cells out of order at row: ", line);
    cell.axis_values.reserve(num_axes);
    for (std::size_t a = 0; a < num_axes; ++a) {
      cell.axis_values.push_back(ParseCsvDouble(fields[at++], line));
    }
    cell.mean_response = ReadBand(fields, at, line);
    cell.tail_response = ReadBand(fields, at, line);
    cell.bottleneck_queue = ParseCsvInt(fields[at++], line);
    const std::string_view ranking = fields[at++];
    QNET_CHECK(!ranking.empty(), "empty bottleneck ranking in row: ", line);
    SplitCsvRow(ranking, ranking_fields, ';');
    QNET_CHECK(ranking_fields.size() == real_queues, "ranking length mismatch in row: ",
               line);
    for (const std::string_view r : ranking_fields) {
      cell.bottleneck_ranking.push_back(ParseCsvInt(r, line));
    }
    QNET_CHECK(fields[at] == "0" || fields[at] == "1", "bad analytic_valid flag: ", line);
    cell.analytic_valid = fields[at++] == "1";
    QNET_CHECK(fields[at] == "0" || fields[at] == "1", "bad analytic_stable flag: ", line);
    cell.analytic_stable = fields[at++] == "1";
    cell.analytic_mean_response = ParseCsvDouble(fields[at++], line);
    cell.utilization.resize(static_cast<std::size_t>(report.num_queues));
    cell.queue_length.resize(static_cast<std::size_t>(report.num_queues));
    for (int q = 1; q < report.num_queues; ++q) {
      cell.utilization[static_cast<std::size_t>(q)] = ReadBand(fields, at, line);
      cell.queue_length[static_cast<std::size_t>(q)] = ReadBand(fields, at, line);
    }
    report.cells.push_back(std::move(cell));
  }
  QNET_CHECK(report.cells.size() == num_cells, "scenario report declares ", num_cells,
             " cells but has ", report.cells.size());
  return report;
}

ScenarioReport ReadScenarioReportFile(const std::string& path) {
  std::ifstream is(path);
  QNET_CHECK(is.good(), "cannot open ", path);
  return ReadScenarioReport(is);
}

}  // namespace qnet
