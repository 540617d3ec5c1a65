// Test oracle: the batch window extractor. Builds the sub-log of a whole EventLog that
// holds exactly the given tasks (renumbered contiguously) plus the restriction of its
// Observation, through the same WindowLogBuilder the streaming assembler uses — the
// reference the stream suite's batch-windowing checks compare against.

#ifndef QNET_TESTS_SUPPORT_EXTRACT_TASK_WINDOW_H_
#define QNET_TESTS_SUPPORT_EXTRACT_TASK_WINDOW_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "qnet/model/event.h"
#include "qnet/obs/observation.h"
#include "qnet/stream/task_record.h"
#include "qnet/stream/window_assembler.h"
#include "qnet/support/check.h"

namespace qnet_testing {

inline std::pair<qnet::EventLog, qnet::Observation> ExtractTaskWindow(
    const qnet::EventLog& truth, const qnet::Observation& obs,
    const std::vector<int>& tasks) {
  QNET_CHECK(!tasks.empty(), "empty task window");
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    QNET_CHECK(tasks[i - 1] < tasks[i], "window tasks must be sorted and unique");
  }
  qnet::WindowLogBuilder builder(truth.NumQueues());
  qnet::TaskRecord record;
  for (const int task : tasks) {
    qnet::FillTaskRecord(truth, obs, task, record);
    builder.Add(record);
  }
  return builder.Finish();
}

}  // namespace qnet_testing

#endif  // QNET_TESTS_SUPPORT_EXTRACT_TASK_WINDOW_H_
