// CSV round-trip tests for event logs, observations, and series output.

#include "qnet/trace/csv.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "support/csv_corpora.h"
#include "support/reference_csv.h"
#include "qnet/model/builders.h"
#include "qnet/sim/simulator.h"
#include "qnet/stream/replay_stream.h"
#include "qnet/support/check.h"
#include "qnet/support/rng.h"
#include "qnet/trace/table.h"
#include "qnet/trace/window_csv.h"

namespace qnet {
namespace {

TEST(Csv, EventLogRoundTripsExactly) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(3);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 40), rng);
  std::stringstream buffer;
  WriteEventLog(buffer, log);
  const EventLog restored = ReadEventLog(buffer, net.NumQueues());
  ASSERT_EQ(restored.NumEvents(), log.NumEvents());
  ASSERT_EQ(restored.NumTasks(), log.NumTasks());
  for (int k = 0; k < log.NumTasks(); ++k) {
    const auto& original = log.TaskEvents(k);
    const auto& copy = restored.TaskEvents(k);
    ASSERT_EQ(original.size(), copy.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      EXPECT_DOUBLE_EQ(restored.Arrival(copy[i]), log.Arrival(original[i]));
      EXPECT_DOUBLE_EQ(restored.Departure(copy[i]), log.Departure(original[i]));
      EXPECT_EQ(restored.At(copy[i]).queue, log.At(original[i]).queue);
      EXPECT_EQ(restored.At(copy[i]).state, log.At(original[i]).state);
    }
  }
  std::string why;
  EXPECT_TRUE(restored.IsFeasible(1e-9, &why)) << why;
}

TEST(Csv, ObservationRoundTrips) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0});
  Rng rng(5);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 30), rng);
  TaskSamplingScheme scheme;
  scheme.fraction = 0.4;
  const Observation obs = scheme.Apply(log, rng);
  std::stringstream buffer;
  WriteObservation(buffer, obs);
  const Observation restored = ReadObservation(buffer, log);
  EXPECT_EQ(restored.arrival_observed, obs.arrival_observed);
  EXPECT_EQ(restored.departure_observed, obs.departure_observed);
}

TEST(Csv, QueuesHeaderMakesNumQueuesSelfDescribing) {
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(11);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 20), rng);
  std::stringstream buffer;
  WriteEventLog(buffer, log);
  EXPECT_EQ(buffer.str().rfind("# queues=3\n", 0), 0u);

  // No out-of-band num_queues needed any more.
  const EventLog restored = ReadEventLog(buffer);
  EXPECT_EQ(restored.NumQueues(), log.NumQueues());
  EXPECT_EQ(restored.NumEvents(), log.NumEvents());

  // An explicit count is still accepted but must agree with the header.
  std::stringstream again(buffer.str());
  EXPECT_EQ(ReadEventLog(again, net.NumQueues()).NumQueues(), net.NumQueues());
  std::stringstream mismatched(buffer.str());
  EXPECT_THROW(ReadEventLog(mismatched, net.NumQueues() + 2), Error);
}

TEST(Csv, HeaderlessFilesStillReadWithExplicitNumQueues) {
  const QueueingNetwork net = MakeSingleQueueNetwork(1.0, 2.0);
  Rng rng(13);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 8), rng);
  std::stringstream buffer;
  WriteEventLog(buffer, log);
  // Strip the '# queues=N' line to simulate a pre-header legacy file.
  const std::string text = buffer.str();
  const std::string headerless = text.substr(text.find('\n') + 1);

  std::stringstream legacy(headerless);
  const EventLog restored = ReadEventLog(legacy, net.NumQueues());
  EXPECT_EQ(restored.NumEvents(), log.NumEvents());

  // Without the header the self-describing overload cannot work.
  std::stringstream legacy2(headerless);
  EXPECT_THROW(ReadEventLog(legacy2), Error);
}

TEST(Csv, RejectsCorruptStreams) {
  std::stringstream empty;
  EXPECT_THROW(ReadEventLog(empty, 2), Error);
  std::stringstream bad_header("nonsense\n1,2,3\n");
  EXPECT_THROW(ReadEventLog(bad_header, 2), Error);
  // Malformed '# queues=' values raise Error too, not a raw std::stoi exception.
  std::stringstream non_numeric("# queues=abc\ntask,state,queue,arrival,departure,initial\n");
  EXPECT_THROW(ReadEventLog(non_numeric), Error);
  std::stringstream empty_value("# queues=\ntask,state,queue,arrival,departure,initial\n");
  EXPECT_THROW(ReadEventLog(empty_value), Error);
  std::stringstream zero("# queues=0\ntask,state,queue,arrival,departure,initial\n");
  EXPECT_THROW(ReadEventLog(zero), Error);
  std::stringstream truncated("# queues=3\n");
  EXPECT_THROW(ReadEventLog(truncated), Error);
  // A trailing comma (lost initial flag) must not be absorbed as an empty flag field.
  std::stringstream trailing_comma(
      "# queues=2\ntask,state,queue,arrival,departure,initial\n0,-1,0,0,1.5,\n");
  EXPECT_THROW(ReadEventLog(trailing_comma), Error);
  // Corrupt numeric fields raise Error, not std::invalid_argument.
  std::stringstream junk_number(
      "# queues=2\ntask,state,queue,arrival,departure,initial\n0,-1,0,0,oops,1\n");
  EXPECT_THROW(ReadEventLog(junk_number), Error);
}

// A one-task log (one visit, to queue 1) under a '# queues=N' header.
std::string LogWithQueuesHeader(long queues) {
  return "# queues=" + std::to_string(queues) +
         "\ntask,state,queue,arrival,departure,initial\n0,-1,0,0,1,1\n0,0,1,1,2,0\n";
}

TEST(Csv, QueuesHeaderAtTheCapReadsAndAboveItIsRejectedByBothReaders) {
  std::istringstream log_at_cap(LogWithQueuesHeader(kMaxEventLogQueues));
  EXPECT_EQ(ReadEventLog(log_at_cap).NumQueues(), kMaxEventLogQueues);
  std::istringstream stream_at_cap(LogWithQueuesHeader(kMaxEventLogQueues));
  CsvReplayStream stream(stream_at_cap);
  EXPECT_EQ(stream.NumQueues(), kMaxEventLogQueues);
  TaskRecord record;
  EXPECT_TRUE(stream.Next(record));
  EXPECT_FALSE(stream.Next(record));

  std::istringstream log_above(LogWithQueuesHeader(kMaxEventLogQueues + 1L));
  EXPECT_THROW(ReadEventLog(log_above), Error);
  std::istringstream stream_above(LogWithQueuesHeader(kMaxEventLogQueues + 1L));
  EXPECT_THROW(CsvReplayStream{stream_above}, Error);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QNET_SANITIZER_RUNTIME 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QNET_SANITIZER_RUNTIME 1
#endif
#endif

// Reads `text` through both header-taking readers under a 1 GiB address-space limit and
// exits 0 iff each raised qnet::Error. A reader that sizes storage from the header first
// hits the limit (std::bad_alloc, exit 1) inside this process instead of allocating
// gigabytes on the host.
[[noreturn]] void ReadEachHeaderReaderUnderAnAddressSpaceLimit(const std::string& text) {
  constexpr rlim_t kLimit = rlim_t{1} << 30;
  const rlimit limit{kLimit, kLimit};
  if (setrlimit(RLIMIT_AS, &limit) != 0) {
    std::_Exit(2);
  }
  int errors = 0;
  try {
    std::istringstream is(text);
    (void)ReadEventLog(is);
  } catch (const Error&) {
    ++errors;
  } catch (...) {
  }
  try {
    std::istringstream is(text);
    CsvReplayStream stream(is);
    TaskRecord record;
    while (stream.Next(record)) {
    }
  } catch (const Error&) {
    ++errors;
  } catch (...) {
  }
  std::_Exit(errors == 2 ? 0 : 1);
}

TEST(CsvDeathTest, HostileQueuesHeaderIsRejectedBeforeAnythingIsAllocated) {
#ifdef QNET_SANITIZER_RUNTIME
  GTEST_SKIP() << "sanitizer runtimes reserve more address space than the child's limit";
#else
  EXPECT_EXIT(ReadEachHeaderReaderUnderAnAddressSpaceLimit(LogWithQueuesHeader(999999999)),
              ::testing::ExitedWithCode(0), "");
#endif
}

TEST(Csv, RejectsPhysicallyImpossibleLogsWithTheFeasibilityReason) {
  // Well-formed rows, impossible physics: task 1 would leave the FIFO queue before task 0
  // (service starts at 5, when task 0 departs, but task 1 departs at 3).
  std::stringstream overtaking(
      "# queues=2\ntask,state,queue,arrival,departure,initial\n"
      "0,-1,0,0,1,1\n0,0,1,1,5,0\n1,-1,0,0,2,1\n1,0,1,2,3,0\n");
  try {
    ReadEventLog(overtaking);
    FAIL() << "an infeasible log was accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("infeasible event log: negative service time"),
              std::string::npos)
        << error.what();
  }
  // Task continuity: a visit must arrive when its predecessor departs.
  std::stringstream broken_continuity(
      "# queues=2\ntask,state,queue,arrival,departure,initial\n"
      "0,-1,0,0,1.5,1\n0,0,1,1.7,2.0,0\n");
  EXPECT_THROW(ReadEventLog(broken_continuity), Error);
}

TEST(Csv, ByteMutationsNeverCrashAndNeverYieldAnInfeasibleLog) {
  // Seeded mutation corpus over a valid log: every single-byte mutation either raises
  // qnet::Error or parses to a feasible log. Any other exception fails the test.
  Rng rng(29);
  const std::string valid = qnet_testing::EventLogCorpusText(rng);
  constexpr int kMutations = 20000;
  int accepted = 0;
  int rejected = 0;
  int infeasible_accepted = 0;
  std::string mutated;
  for (int i = 0; i < kMutations; ++i) {
    mutated = valid;
    qnet_testing::MutateOneByte(mutated, rng, qnet_testing::kEventLogMutationAlphabet);
    std::istringstream is(mutated);
    try {
      const EventLog parsed = ReadEventLog(is);
      ++accepted;
      infeasible_accepted += parsed.IsFeasible() ? 0 : 1;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(infeasible_accepted, 0) << "of " << accepted << " accepted mutations";
  EXPECT_EQ(accepted + rejected, kMutations);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Csv, ObservationByteMutationsRaiseOnlyErrorsAndYieldOnlyValidObservations) {
  // Seeded mutation corpus over a valid observation: every single-byte mutation either
  // raises qnet::Error or parses to an observation that passes Validate against its log.
  // Any other exception fails the test.
  Rng rng(37);
  const qnet_testing::ObservationCorpus corpus = qnet_testing::ObservationCorpusBase(rng);
  constexpr int kMutations = 20000;
  int accepted = 0;
  int rejected = 0;
  int invalid_accepted = 0;
  std::string mutated;
  for (int i = 0; i < kMutations; ++i) {
    mutated = corpus.text;
    qnet_testing::MutateOneByte(mutated, rng, qnet_testing::kObservationMutationAlphabet);
    std::istringstream is(mutated);
    try {
      const Observation parsed = ReadObservation(is, corpus.log);
      ++accepted;
      try {
        parsed.Validate(corpus.log);
      } catch (const Error&) {
        ++invalid_accepted;
      }
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(invalid_accepted, 0) << "of " << accepted << " accepted mutations";
  EXPECT_EQ(accepted + rejected, kMutations);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Csv, ObservationRejectsMalformedFlags) {
  const QueueingNetwork net = MakeSingleQueueNetwork(1.0, 2.0);
  Rng rng(7);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 3), rng);
  std::stringstream trailing("event,arrival_observed,departure_observed\n0,1,\n");
  EXPECT_THROW(ReadObservation(trailing, log), Error);
  std::stringstream junk("event,arrival_observed,departure_observed\n0,yes,1\n");
  EXPECT_THROW(ReadObservation(junk, log), Error);
}

TEST(Csv, SeriesWriterFormatsRows) {
  std::stringstream buffer;
  WriteSeries(buffer, {"x", "y"}, {{1.0, 2.0}, {3.0, 4.5}});
  const std::string text = buffer.str();
  EXPECT_NE(text.find("x,y"), std::string::npos);
  EXPECT_NE(text.find("3,4.5"), std::string::npos);
  EXPECT_THROW(WriteSeries(buffer, {"x"}, {{1.0, 2.0}}), Error);
}

TEST(Csv, FileRoundTrip) {
  const QueueingNetwork net = MakeSingleQueueNetwork(1.0, 2.0);
  Rng rng(7);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(1.0, 10), rng);
  const std::string path = ::testing::TempDir() + "/qnet_log.csv";
  WriteEventLogFile(path, log);
  const EventLog restored = ReadEventLogFile(path, net.NumQueues());
  EXPECT_EQ(restored.NumEvents(), log.NumEvents());
  EXPECT_THROW(ReadEventLogFile("/nonexistent/dir/file.csv", 2), Error);
}

// --- The one row reader: refill boundaries, long rows, blank lines, CRLF -------------------

// Read-only streambuf over a string that hands out at most `chunk` bytes per read, so a
// CsvRowReader refills mid-row at every possible offset.
class TrickleBuf : public std::streambuf {
 public:
  TrickleBuf(std::string text, std::size_t chunk) : text_(std::move(text)), chunk_(chunk) {}

 protected:
  int_type underflow() override {
    if (gptr() != egptr()) {
      return traits_type::to_int_type(*gptr());
    }
    if (at_ == text_.size()) {
      return traits_type::eof();
    }
    char* begin = text_.data() + at_;
    const std::size_t n = std::min(chunk_, text_.size() - at_);
    at_ += n;
    setg(begin, begin, begin + n);
    return traits_type::to_int_type(*gptr());
  }
  std::streamsize xsgetn(char* out, std::streamsize n) override {
    if (gptr() == egptr() && underflow() == traits_type::eof()) {
      return 0;
    }
    const std::streamsize k = std::min<std::streamsize>(n, egptr() - gptr());
    std::memcpy(out, gptr(), static_cast<std::size_t>(k));
    gbump(static_cast<int>(k));
    return k;
  }

 private:
  std::string text_;
  std::size_t chunk_;
  std::size_t at_ = 0;
};

std::vector<std::string> ReaderRows(std::istream& is) {
  CsvRowReader reader(is);
  std::vector<std::string> rows;
  std::string_view row;
  while (reader.Next(row)) {
    rows.emplace_back(row);
  }
  return rows;
}

std::vector<std::string> ReaderRows(const std::string& text, std::size_t chunk) {
  TrickleBuf buf(text, chunk);
  std::istream is(&buf);
  return ReaderRows(is);
}

// What the getline-based readers saw: every non-empty line.
std::vector<std::string> GetlineRows(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) {
      rows.push_back(line);
    }
  }
  return rows;
}

TEST(CsvRowReader, RowsMatchGetlineAcrossEveryRefillBoundary) {
  // Blank lines (leading, inner, trailing), a long row, and no final newline.
  const std::string text =
      "\na,b\n\n12345678901234567890,0.30000000000000004\nlast,row\n\n\nx\ny,z";
  const std::vector<std::string> expected = GetlineRows(text);
  ASSERT_EQ(expected.size(), 5u);
  EXPECT_EQ(expected.back(), "y,z");
  for (const std::size_t chunk : {1, 2, 3, 5, 7, 64}) {
    EXPECT_EQ(ReaderRows(text, chunk), expected) << "chunk " << chunk;
  }
  std::istringstream whole(text);
  EXPECT_EQ(ReaderRows(whole), expected);
  std::istringstream blank("\n\n\n");
  EXPECT_TRUE(ReaderRows(blank).empty());
  std::istringstream empty("");
  EXPECT_TRUE(ReaderRows(empty).empty());
}

TEST(CsvRowReader, RowLongerThanTheBufferIsReadWhole) {
  // Several times the reader's block size, so the buffer has to grow mid-row.
  const std::string long_row(300000, '7');
  const std::string text = "a\n" + long_row + "\nb\n" + long_row;
  const std::vector<std::string> expected = {"a", long_row, "b", long_row};
  std::istringstream whole(text);
  EXPECT_EQ(ReaderRows(whole), expected);
  EXPECT_EQ(ReaderRows(text, 4093), expected);
}

TEST(CsvRowReader, ContinuesWhereGetlineHeadersStopped) {
  std::istringstream is("# key=value\nheader\nrow,1\nrow,2\n");
  EXPECT_EQ(ReadCsvMetaLine(is, "key", "test CSV"), "value");
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(is, header)));
  EXPECT_EQ(header, "header");
  EXPECT_EQ(ReaderRows(is), (std::vector<std::string>{"row,1", "row,2"}));
}

TEST(CsvRowReader, KeepsCarriageReturnsSoCrlfFilesAreRejected) {
  EXPECT_EQ(ReaderRows("a\r\nb\r\n", 3), (std::vector<std::string>{"a\r", "b\r"}));

  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0});
  Rng rng(3);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 5), rng);
  const auto crlf = [](const std::string& text) {
    std::string out;
    for (const char c : text) {
      out += c == '\n' ? std::string("\r\n") : std::string(1, c);
    }
    return out;
  };
  std::ostringstream log_os;
  WriteEventLog(log_os, log);
  // Keep the header lines LF-only so the rejection comes from the data rows.
  std::string log_text = log_os.str();
  const std::size_t rows_at = log_text.find("task,");
  const std::size_t body_at = log_text.find('\n', rows_at) + 1;
  std::istringstream log_crlf(log_text.substr(0, body_at) + crlf(log_text.substr(body_at)));
  EXPECT_THROW(ReadEventLog(log_crlf), Error);

  std::ostringstream obs_os;
  WriteObservation(obs_os, Observation::FullyObserved(log));
  const std::string obs_text = obs_os.str();
  const std::size_t obs_body = obs_text.find('\n') + 1;
  std::istringstream obs_crlf(obs_text.substr(0, obs_body) + crlf(obs_text.substr(obs_body)));
  EXPECT_THROW(ReadObservation(obs_crlf, log), Error);
}

TEST(Csv, LargeLogRoundTripsThroughShortReadsAndLongRows) {
  // Well past the reader's block size, read through refills at awkward offsets.
  const QueueingNetwork net = MakeTandemNetwork(2.0, {4.0, 3.0});
  Rng rng(17);
  const EventLog log = SimulateWorkload(net, PoissonArrivals(2.0, 1500), rng);
  std::ostringstream written;
  WriteEventLog(written, log);
  const std::string text = written.str();
  ASSERT_GT(text.size(), std::size_t{1} << 17);

  const auto expect_same = [&](const EventLog& restored) {
    ASSERT_EQ(restored.NumEvents(), log.NumEvents());
    for (EventId e = 0; static_cast<std::size_t>(e) < log.NumEvents(); ++e) {
      EXPECT_EQ(restored.At(e).arrival, log.At(e).arrival);
      EXPECT_EQ(restored.At(e).departure, log.At(e).departure);
      EXPECT_EQ(restored.At(e).queue, log.At(e).queue);
    }
  };
  for (const std::size_t chunk : {997, 4093, 65537}) {
    TrickleBuf buf(text, chunk);
    std::istream is(&buf);
    expect_same(ReadEventLog(is));
  }

  // A row longer than the buffer: the first initial row's arrival field "0" written out
  // as a 200,000-digit decimal zero.
  std::string long_row_text = text;
  const std::size_t first_row = long_row_text.find('\n', long_row_text.find("task,")) + 1;
  std::size_t arrival_at = first_row;
  for (int comma = 0; comma < 3; ++comma) {
    arrival_at = long_row_text.find(',', arrival_at) + 1;
  }
  ASSERT_EQ(long_row_text.compare(arrival_at, 2, "0,"), 0);
  long_row_text.replace(arrival_at, 1, "0." + std::string(200000, '0'));
  std::istringstream long_row(long_row_text);
  expect_same(ReadEventLog(long_row));
  std::istringstream long_row_reference(long_row_text);
  expect_same(qnet_testing::reference::ReadEventLog(long_row_reference));
}

// --- Differential: the production reader against the earlier parse path ------------------

namespace reference = qnet_testing::reference;

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool SameLog(const EventLog& a, const EventLog& b) {
  if (a.NumQueues() != b.NumQueues() || a.NumTasks() != b.NumTasks() ||
      a.NumEvents() != b.NumEvents()) {
    return false;
  }
  for (EventId e = 0; static_cast<std::size_t>(e) < a.NumEvents(); ++e) {
    const Event& x = a.At(e);
    const Event& y = b.At(e);
    if (x.task != y.task || x.state != y.state || x.queue != y.queue ||
        x.initial != y.initial || Bits(x.arrival) != Bits(y.arrival) ||
        Bits(x.departure) != Bits(y.departure) || x.pi != y.pi || x.tau != y.tau ||
        x.rho != y.rho || x.nu != y.nu) {
      return false;
    }
  }
  return true;
}

bool SameBitsVector(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i])) {
      return false;
    }
  }
  return true;
}

bool SameEstimates(const std::vector<WindowEstimate>& a, const std::vector<WindowEstimate>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t w = 0; w < a.size(); ++w) {
    const WindowEstimate& x = a[w];
    const WindowEstimate& y = b[w];
    if (Bits(x.t0) != Bits(y.t0) || Bits(x.t1) != Bits(y.t1) || x.tasks != y.tasks ||
        x.merged_tail_tasks != y.merged_tail_tasks ||
        x.window_local_arrival_rate != y.window_local_arrival_rate ||
        x.degraded != y.degraded || x.fit_iterations != y.fit_iterations ||
        x.alerts != y.alerts || !SameBitsVector(x.rates, y.rates) ||
        !SameBitsVector(x.mean_wait, y.mean_wait)) {
      return false;
    }
  }
  return true;
}

// The fields the two paths read differently by design (see support/reference_csv.h).
enum KnownDifference { kNoKnownDifference, kSignOrBlank, kHexadecimal, kNanPayload, kSubnormal };

// The first known-difference field of `text`, if any.
KnownDifference FindKnownDifference(std::string_view text) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find_first_of(",\n=", start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    const std::string_view field = text.substr(start, end - start);
    start = end + 1;
    if (field.empty()) {
      continue;
    }
    if (field[0] == '+' || std::isspace(static_cast<unsigned char>(field[0]))) {
      return kSignOrBlank;
    }
    const std::string_view unsigned_part = field[0] == '-' ? field.substr(1) : field;
    if (unsigned_part.size() >= 2 && unsigned_part[0] == '0' &&
        (unsigned_part[1] == 'x' || unsigned_part[1] == 'X')) {
      return kHexadecimal;
    }
    if (field.find('(') != std::string_view::npos) {
      return kNanPayload;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(field.data(), field.data() + field.size(), value);
    if (ec == std::errc() && ptr == field.data() + field.size() &&
        std::fpclassify(value) == FP_SUBNORMAL) {
      return kSubnormal;
    }
  }
  return kNoKnownDifference;
}

struct DifferentialCounts {
  int both_rejected = 0;
  int both_accepted = 0;
  // Disagreements, by the known difference found in the text (kNoKnownDifference:
  // unexplained, a failure).
  std::array<int, 5> disagreements{};
};

// Runs `read` (production) and `read_reference` over one text and compares.
template <typename Read, typename ReadReference, typename Same>
void Compare(const std::string& text, Read read, ReadReference read_reference, Same same,
             DifferentialCounts& counts) {
  std::istringstream is(text);
  std::istringstream reference_is(text);
  std::optional<decltype(read(is))> production;
  std::optional<decltype(read(is))> oracle;
  try {
    production = read(is);
  } catch (const Error&) {
  }
  try {
    oracle = read_reference(reference_is);
  } catch (const Error&) {
  }
  if (!production && !oracle) {
    ++counts.both_rejected;
  } else if (production && oracle && same(*production, *oracle)) {
    ++counts.both_accepted;
  } else {
    const KnownDifference kind = FindKnownDifference(text);
    ++counts.disagreements[kind];
    EXPECT_NE(kind, kNoKnownDifference)
        << "readers disagree (production " << (production ? "accepts" : "rejects")
        << ", reference " << (oracle ? "accepts" : "rejects") << ") on:\n"
        << text;
  }
}

TEST(CsvDifferential, EventLogMutationCorpusMatchesTheReferencePath) {
  // The corpus of Csv.ByteMutationsNeverCrashAndNeverYieldAnInfeasibleLog.
  Rng rng(29);
  const std::string valid = qnet_testing::EventLogCorpusText(rng);
  DifferentialCounts counts;
  std::string mutated;
  for (int i = 0; i < 20000; ++i) {
    mutated = valid;
    qnet_testing::MutateOneByte(mutated, rng, qnet_testing::kEventLogMutationAlphabet);
    Compare(
        mutated, [](std::istream& is) { return ReadEventLog(is); },
        [](std::istream& is) { return reference::ReadEventLog(is); }, SameLog, counts);
  }
  EXPECT_GT(counts.both_accepted, 0);
  EXPECT_GT(counts.both_rejected, 0);
  // Pinned: the seeded corpus's disagreements by kind — 7 fields with a leading '+' or
  // blank, which only the reference path reads.
  EXPECT_EQ(counts.disagreements, (std::array<int, 5>{0, 7, 0, 0, 0}));
}

TEST(CsvDifferential, WindowEstimateMutationCorpusMatchesTheReferencePath) {
  // The corpus of WindowCsv.ByteMutationsNeverCrashAndNeverYieldAnImpossibleEstimate.
  Rng rng(31);
  const std::string valid = qnet_testing::WindowEstimateCorpusText(rng);
  DifferentialCounts counts;
  std::string mutated;
  for (int i = 0; i < 20000; ++i) {
    mutated = valid;
    qnet_testing::MutateOneByte(mutated, rng, qnet_testing::kWindowCsvMutationAlphabet);
    Compare(
        mutated, [](std::istream& is) { return ReadWindowEstimates(is); },
        [](std::istream& is) { return reference::ReadWindowEstimates(is); }, SameEstimates,
        counts);
  }
  EXPECT_GT(counts.both_accepted, 0);
  EXPECT_GT(counts.both_rejected, 0);
  // Pinned: the seeded corpus's disagreements by kind — 71 fields with a leading '+' or
  // blank and one hexadecimal field, which only the reference path reads.
  EXPECT_EQ(counts.disagreements, (std::array<int, 5>{0, 71, 1, 0, 0}));
}

// One hand-written field: whether each path accepts it, and whether accepted values
// share their bits.
struct FieldCase {
  std::string text;
  bool accepted;
  bool reference_accepted;
  bool same_bits = true;
};

template <typename Parse, typename ParseReference, typename Bits>
void CheckFieldCorpus(const std::vector<FieldCase>& cases, Parse parse,
                      ParseReference parse_reference, Bits bits) {
  for (const FieldCase& c : cases) {
    std::optional<std::uint64_t> production;
    std::optional<std::uint64_t> oracle;
    try {
      production = bits(parse(c.text, "row"));
    } catch (const Error&) {
    }
    try {
      oracle = bits(parse_reference(c.text, "row"));
    } catch (const Error&) {
    }
    EXPECT_EQ(production.has_value(), c.accepted) << "'" << c.text << "'";
    EXPECT_EQ(oracle.has_value(), c.reference_accepted) << "'" << c.text << "'";
    if (production && oracle) {
      EXPECT_EQ(*production == *oracle, c.same_bits) << "'" << c.text << "'";
    }
  }
}

TEST(CsvDifferential, FieldCorpusPinsEveryKnownDifference) {
  const std::vector<FieldCase> doubles = {
      // Agreed: both accept with the same bits.
      {"0", true, true}, {"1.5", true, true}, {"-2.5e-3", true, true}, {".5", true, true},
      {"5.", true, true}, {"1e+5", true, true}, {"1E5", true, true}, {"-0", true, true},
      {"00012", true, true}, {"0.30000000000000004", true, true},
      {"1.7976931348623157e308", true, true}, {"2.2250738585072014e-308", true, true},
      {"inf", true, true}, {"-inf", true, true}, {"INF", true, true},
      {"Infinity", true, true}, {"nan", true, true}, {"-nan", true, true},
      {"NaN", true, true},
      // Agreed: both reject.
      {"", false, false}, {"-", false, false}, {".", false, false}, {"e5", false, false},
      {"1e", false, false}, {"1.5x", false, false}, {"1 ", false, false},
      {"1e400", false, false}, {"-1e400", false, false}, {"1e-400", false, false},
      {"1.7976931348623159e308", false, false}, {"infinit", false, false},
      {"nanx", false, false},
      // Known differences.
      {"+1", false, true},         // leading '+'
      {" 1", false, true},         // leading whitespace
      {"\t1", false, true},
      {"0x10", false, true},       // hexadecimal
      {"0x1p3", false, true},
      {"1e-320", true, false},     // subnormal: stod reported ERANGE
      {"4.9e-324", true, false},
      {"2.2250738585072009e-308", true, false},
      {"nan(123)", true, true, false},  // payload dropped
  };
  CheckFieldCorpus(
      doubles, [](const std::string& f, const std::string& r) { return ParseCsvDouble(f, r); },
      [](const std::string& f, const std::string& r) { return reference::ParseCsvDouble(f, r); },
      [](double x) { return Bits(x); });

  const std::vector<FieldCase> ints = {
      {"0", true, true}, {"-1", true, true}, {"2147483647", true, true},
      {"-2147483648", true, true}, {"007", true, true},
      {"2147483648", false, false}, {"-2147483649", false, false}, {"1.0", false, false},
      {"0x1", false, false}, {"1e3", false, false}, {"", false, false}, {"-", false, false},
      {"+1", false, true}, {" 1", false, true},
  };
  const auto int_bits = [](auto x) { return static_cast<std::uint64_t>(x); };
  CheckFieldCorpus(
      ints, [](const std::string& f, const std::string& r) { return ParseCsvInt(f, r); },
      [](const std::string& f, const std::string& r) { return reference::ParseCsvInt(f, r); },
      int_bits);

  const std::vector<FieldCase> longs = {
      {"2147483648", true, true}, {"-9223372036854775808", true, true},
      {"9223372036854775808", false, false}, {"+1", false, true}, {"\n1", false, true},
  };
  CheckFieldCorpus(
      longs, [](const std::string& f, const std::string& r) { return ParseCsvLong(f, r); },
      [](const std::string& f, const std::string& r) { return reference::ParseCsvLong(f, r); },
      int_bits);

  const std::vector<FieldCase> u64s = {
      {"0", true, true}, {"18446744073709551615", true, true},
      {"18446744073709551616", false, false}, {"-1", false, false}, {"", false, false},
      {"+1", false, true},
      // strtoull skips the blank, then negates and wraps: the old path read 2^64 - 1.
      {" -1", false, true},
  };
  CheckFieldCorpus(
      u64s, [](const std::string& f, const std::string& r) { return ParseCsvU64(f, r); },
      [](const std::string& f, const std::string& r) { return reference::ParseCsvU64(f, r); },
      int_bits);
}

TEST(CsvDifferential, SubnormalTimesNowRoundTrip) {
  // WriteEventLog writes a subnormal entry time with 17 digits; the earlier path could not
  // read its own output back.
  EventLog log(2);
  const int task = log.AddTask(1e-320);
  log.AddVisit(task, 0, 1, 1e-320, 0.5);
  log.BuildQueueLinks();
  std::ostringstream written;
  WriteEventLog(written, log);
  std::istringstream is(written.str());
  const EventLog restored = ReadEventLog(is);
  EXPECT_TRUE(SameLog(restored, log));
  std::istringstream reference_is(written.str());
  EXPECT_THROW(reference::ReadEventLog(reference_is), Error);
}

TEST(Table, AlignsAndFormats) {
  TablePrinter table({"name", "value"});
  table.AddRow(std::vector<std::string>{"alpha", "1.0"});
  table.AddRow(std::vector<double>{2.0, 3.14159}, 2);
  std::stringstream buffer;
  table.Print(buffer);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
  const std::vector<std::string> too_many = {"too", "many", "cells"};
  EXPECT_THROW(table.AddRow(too_many), Error);
  EXPECT_EQ(FormatDouble(1.23456, 3), "1.235");
}

}  // namespace
}  // namespace qnet
