#include "qnet/stream/replay_stream.h"

#include <cmath>

#include "qnet/support/check.h"

namespace qnet {

LogReplayStream::LogReplayStream(const EventLog& log, const Observation& obs)
    : log_(&log), obs_(&obs) {}

bool LogReplayStream::Next(TaskRecord& out) {
  if (next_task_ >= log_->NumTasks()) {
    return false;
  }
  FillTaskRecord(*log_, *obs_, next_task_, out);
  ++next_task_;
  return true;
}

CsvReplayStream::CsvReplayStream(std::istream& log_is, int num_queues, std::istream* obs_is)
    : log_is_(&log_is), obs_is_(obs_is), num_queues_(num_queues) {
  Init();
}

CsvReplayStream::CsvReplayStream(const std::string& log_path, int num_queues)
    : owned_log_(std::make_unique<std::ifstream>(log_path)),
      log_is_(owned_log_.get()),
      obs_is_(nullptr),
      num_queues_(num_queues) {
  QNET_CHECK(owned_log_->good(), "cannot open ", log_path);
  Init();
}

CsvReplayStream::CsvReplayStream(const std::string& log_path, const std::string& obs_path,
                                 int num_queues)
    : owned_log_(std::make_unique<std::ifstream>(log_path)),
      owned_obs_(std::make_unique<std::ifstream>(obs_path)),
      log_is_(owned_log_.get()),
      obs_is_(owned_obs_.get()),
      num_queues_(num_queues) {
  QNET_CHECK(owned_log_->good(), "cannot open ", log_path);
  QNET_CHECK(owned_obs_->good(), "cannot open ", obs_path);
  Init();
}

void CsvReplayStream::Init() {
  num_queues_ = ReadEventLogHeader(*log_is_, num_queues_);
  log_rows_.emplace(*log_is_);
  if (obs_is_ != nullptr) {
    ReadObservationHeader(*obs_is_);
    obs_rows_.emplace(*obs_is_);
  }
}

bool CsvReplayStream::NextLogRow() {
  if (!log_rows_->Next(line_)) {
    return false;
  }
  row_ = ParseEventLogRow(line_, fields_);
  return true;
}

std::pair<bool, bool> CsvReplayStream::NextObsFlags() {
  const long event = next_event_id_++;
  if (!obs_rows_) {
    return {true, true};
  }
  std::string_view obs_line;
  QNET_CHECK(obs_rows_->Next(obs_line), "observation stream ended before the log (event ",
             event, ")");
  const ObservationRow flags = ParseObservationRow(obs_line, fields_);
  QNET_CHECK(flags.event == event, "observation rows out of lockstep with log at event ",
             event);
  return {flags.arrival_observed, flags.departure_observed};
}

bool CsvReplayStream::Next(TaskRecord& out) {
  if (!have_buffered_row_ && !NextLogRow()) {
    return false;
  }
  have_buffered_row_ = false;
  QNET_CHECK(row_.initial, "expected an initial row, got: ", line_);
  QNET_CHECK(row_.task == next_task_, "tasks out of order at row: ", line_);
  QNET_CHECK(std::isfinite(row_.departure), "non-finite entry time in row: ", line_);
  out.Clear();
  out.entry_time = row_.departure;
  NextObsFlags();  // keep the observation stream in lockstep (initial-event row)
  double previous_departure = out.entry_time;
  while (NextLogRow()) {
    if (row_.initial) {
      have_buffered_row_ = true;
      break;
    }
    QNET_CHECK(row_.task == next_task_, "visit row of another task (expected task ",
               next_task_, "): ", line_);
    QNET_CHECK(row_.queue >= 1 && row_.queue < num_queues_, "queue id outside [1, ",
               num_queues_, ") in row: ", line_);
    QNET_CHECK(std::isfinite(row_.arrival) && std::isfinite(row_.departure),
               "non-finite visit time in row: ", line_);
    QNET_CHECK(row_.departure >= row_.arrival, "departure before arrival in row: ", line_);
    // The tolerance and the comparison are EventLog::AddVisit's continuity check.
    QNET_CHECK(std::abs(row_.arrival - previous_departure) < 1e-9,
               out.visits.empty() ? "first visit does not arrive at the entry time"
                                  : "visit does not arrive when its predecessor departs",
               " in row: ", line_);
    previous_departure = row_.departure;
    TaskVisit visit;
    visit.state = row_.state;
    visit.queue = row_.queue;
    visit.arrival = row_.arrival;
    visit.departure = row_.departure;
    const auto [arrival_observed, departure_observed] = NextObsFlags();
    visit.arrival_observed = arrival_observed;
    visit.departure_observed = departure_observed;
    out.visits.push_back(visit);
  }
  QNET_CHECK(!out.visits.empty(), "task ", next_task_, " has no visits");
  ++next_task_;
  return true;
}

}  // namespace qnet
