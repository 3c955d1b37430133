// util::log thread-safety and formatting (ISSUE 3 satellite): concurrent
// loggers must never interleave mid-line, the optional timestamp prefix and
// JSON format must render exactly as documented, and both default to off so
// historical output stays stable.
#include <gtest/gtest.h>

#include <iostream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/log.hpp"

namespace {

using namespace dropback;

/// Redirects std::clog (the info/debug sink) into a buffer for the test.
class ClogCapture {
 public:
  ClogCapture() : old_(std::clog.rdbuf(buffer_.rdbuf())) {}
  ~ClogCapture() { std::clog.rdbuf(old_); }
  std::string str() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};

class UtilLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::set_log_level(util::LogLevel::kDebug);
    util::set_log_format(util::LogFormat::kText);
    util::set_log_timestamps(false);
  }
  void TearDown() override {
    util::set_log_level(util::LogLevel::kInfo);
    util::set_log_format(util::LogFormat::kText);
    util::set_log_timestamps(false);
  }
};

TEST_F(UtilLogTest, DefaultTextFormatIsUnchanged) {
  EXPECT_EQ(util::format_log_line(util::LogLevel::kInfo, "hello"),
            "[dropback INFO ] hello");
  EXPECT_EQ(util::format_log_line(util::LogLevel::kError, "bad"),
            "[dropback ERROR] bad");
}

TEST_F(UtilLogTest, TimestampPrefixMatchesUtcPattern) {
  util::set_log_timestamps(true);
  const std::string line =
      util::format_log_line(util::LogLevel::kWarn, "slow");
  const std::regex pattern(
      R"(\[dropback \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z WARN \] slow)");
  EXPECT_TRUE(std::regex_match(line, pattern)) << line;
}

TEST_F(UtilLogTest, JsonFormatIsOneFlatParseableRecord) {
  util::set_log_format(util::LogFormat::kJson);
  const std::string line =
      util::format_log_line(util::LogLevel::kInfo, "loss=0.5 \"quoted\"");
  const auto rec = util::parse_flat_object(line);
  EXPECT_EQ(rec.at("level").string, "info");
  EXPECT_EQ(rec.at("msg").string, "loss=0.5 \"quoted\"");
  // ts is a full UTC second stamp.
  const std::regex ts(R"(\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z)");
  EXPECT_TRUE(std::regex_match(rec.at("ts").string, ts));
}

TEST_F(UtilLogTest, LevelFilterStillApplies) {
  ClogCapture capture;
  util::set_log_level(util::LogLevel::kWarn);
  util::log_info() << "dropped";
  EXPECT_EQ(capture.str(), "");
}

// The regression test for the satellite: N threads log M lines each through
// the shared sink; every captured line must be intact (prefix + payload +
// newline with nothing spliced in), which fails without the emit mutex.
TEST_F(UtilLogTest, ConcurrentLoggersNeverInterleaveMidLine) {
  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  ClogCapture capture;
  std::vector<std::thread> loggers;
  loggers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    loggers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        util::log_info() << "thread=" << t << " line=" << i
                         << " padding-padding-padding-padding";
      }
    });
  }
  for (auto& th : loggers) th.join();

  const std::string out = capture.str();
  const std::regex line_pattern(
      R"(\[dropback INFO \] thread=\d+ line=\d+ padding-padding-padding-padding)");
  int lines = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t end = out.find('\n', pos);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string line = out.substr(pos, end - pos);
    pos = end + 1;
    EXPECT_TRUE(std::regex_match(line, line_pattern))
        << "interleaved or torn line: " << line;
    ++lines;
  }
  EXPECT_EQ(lines, kThreads * kLines);
}

TEST_F(UtilLogTest, ConcurrentJsonLoggersStayParseable) {
  util::set_log_format(util::LogFormat::kJson);
  constexpr int kThreads = 4;
  constexpr int kLines = 100;
  ClogCapture capture;
  std::vector<std::thread> loggers;
  loggers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    loggers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        util::log_info() << "t" << t << ":" << i;
      }
    });
  }
  for (auto& th : loggers) th.join();

  const std::string out = capture.str();
  int lines = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t end = out.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    // Every line parses — a torn write would throw here.
    const auto rec = util::parse_flat_object(out.substr(pos, end - pos));
    EXPECT_EQ(rec.at("level").string, "info");
    pos = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, kThreads * kLines);
}

TEST_F(UtilLogTest, ParseLogLevelAcceptsEveryDocumentedName) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("info"), util::LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("warn"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), util::LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), util::LogLevel::kOff);
}

TEST_F(UtilLogTest, ParseLogLevelRejectsUnknownNames) {
  // A typoed --log-level must fail loudly, not silently mean "info".
  for (const char* bad : {"", "INFO", "Debug", "verbose", "warning", "4"}) {
    EXPECT_THROW(util::parse_log_level(bad), std::invalid_argument)
        << "name: \"" << bad << "\"";
  }
  try {
    util::parse_log_level("nonsense");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The DROPBACK_CHECK message names the offender and the valid set.
    EXPECT_NE(std::string(e.what()).find("nonsense"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("debug|info|warn|error|off"),
              std::string::npos);
  }
}

}  // namespace
