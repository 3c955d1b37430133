#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/container.hpp"
#include "util/crc32.hpp"
#include "util/csv.hpp"
#include "util/fault_injection.hpp"
#include "util/flags.hpp"
#include "util/io_error.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace dropback::util {
namespace {

TEST(CheckMacro, ThrowsWithMessage) {
  try {
    DROPBACK_CHECK(1 == 2, << "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
  }
}

TEST(CheckMacro, PassesSilently) {
  EXPECT_NO_THROW(DROPBACK_CHECK(true, << "never shown"));
}

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--name", "foo", "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.get_string("name", ""), "foo");
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("missing", 7), 7);
}

TEST(Flags, PositionalArgumentsCollected) {
  const char* argv[] = {"prog", "input.bin", "--k=3", "output.bin"};
  Flags flags(4, const_cast<char**>(argv));
  ASSERT_EQ(flags.positional().size(), 2U);
  EXPECT_EQ(flags.positional()[0], "input.bin");
  EXPECT_EQ(flags.positional()[1], "output.bin");
}

TEST(Flags, EnvFallbackWithPrefix) {
  ::setenv("DROPBACK_TEST_KNOB", "123", 1);
  Flags flags;
  EXPECT_EQ(flags.get_int("test-knob", 0), 123);
  ::unsetenv("DROPBACK_TEST_KNOB");
  EXPECT_EQ(flags.get_int("test-knob", 5), 5);
}

TEST(Flags, CliBeatsEnv) {
  ::setenv("DROPBACK_K", "10", 1);
  const char* argv[] = {"prog", "--k=20"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("k", 0), 20);
  ::unsetenv("DROPBACK_K");
}

TEST(Flags, BadNumberThrows) {
  const char* argv[] = {"prog", "--k=abc"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_THROW(flags.get_int("k", 0), std::runtime_error);
  EXPECT_THROW(flags.get_double("k", 0), std::runtime_error);
}

TEST(Flags, BoolForms) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
}

TEST(Csv, WritesHeaderRowsAndEscapes) {
  const std::string path = ::testing::TempDir() + "/util_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"a", "b,with,commas", "c"});
    csv.row(std::vector<std::string>{"1", "say \"hi\"", "line\nbreak"});
    csv.row(std::vector<double>{1.5, 2.25, -3.0});
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("a,\"b,with,commas\",c"), std::string::npos);
  EXPECT_NE(content.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(content.find("1.5,2.25,-3"), std::string::npos);
}

TEST(Csv, FormatRoundTripsDoubles) {
  EXPECT_EQ(CsvWriter::format(0.5), "0.5");
  EXPECT_EQ(CsvWriter::format(std::nan("")), "nan");
}

TEST(Csv, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"),
               std::runtime_error);
}

TEST(TableTest, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"a-much-longer-name", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
  EXPECT_EQ(table.rows(), 2U);
}

TEST(TableTest, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.add_row({"only-one"});
  EXPECT_NO_THROW({ const auto s = table.render(); (void)s; });
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::pct(0.0142), "1.42%");
  EXPECT_EQ(Table::pct(0.905, 1), "90.5%");
  EXPECT_EQ(Table::times(5.333, 2), "5.33x");
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
  EXPECT_EQ(Table::count(1500000), "1.5M");
  EXPECT_EQ(Table::count(50000), "50k");
  EXPECT_EQ(Table::count(123), "123");
}

TEST(Log, LevelsParse) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  // Unknown names used to silently mean kInfo; they must throw instead
  // (full rejection coverage lives in util_log_test.cpp).
  EXPECT_THROW(parse_log_level("nonsense"), std::invalid_argument);
}

TEST(Log, SetAndGetLevel) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Suppressed message should not crash.
  log_info() << "this is below the level and discarded";
  set_log_level(old);
}

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926U);
  EXPECT_EQ(crc32("", 0), 0U);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43U);
}

TEST(Crc32, ChainingMatchesConcatenation) {
  const std::string a = "hello, ";
  const std::string b = "world";
  const std::string ab = a + b;
  EXPECT_EQ(crc32(b.data(), b.size(), crc32(a.data(), a.size())),
            crc32(ab.data(), ab.size()));
}

TEST(Crc32, SingleBitFlipChangesChecksum) {
  std::string bytes(64, '\x5A');
  const std::uint32_t clean = crc32(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(bytes[i] ^ 0x01);
    EXPECT_NE(crc32(bytes.data(), bytes.size()), clean) << "byte " << i;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x01);
  }
}

TEST(Container, RoundTripsMultipleSections) {
  ContainerWriter writer("TEST");
  writer.add_section("alpha") << "payload one";
  writer.add_section("beta").write("\x00\x01\x02", 3);
  writer.add_section("empty");
  std::ostringstream out(std::ios::binary);
  writer.write_to(out);

  std::istringstream in(out.str(), std::ios::binary);
  const ContainerReader reader = ContainerReader::read_from(in, "TEST");
  ASSERT_EQ(reader.num_sections(), 3U);
  EXPECT_EQ(reader.section_name(0), "alpha");
  EXPECT_EQ(reader.section_bytes(0), "payload one");
  EXPECT_EQ(reader.section_bytes(1), std::string("\x00\x01\x02", 3));
  EXPECT_EQ(reader.section_bytes(2), "");
  EXPECT_NO_THROW(reader.expect_sections({"alpha", "beta", "empty"}));
  EXPECT_THROW(reader.expect_sections({"alpha", "empty", "beta"}), IoError);
  EXPECT_THROW(reader.expect_sections({"alpha", "beta"}), IoError);
  EXPECT_THROW(reader.section_stream("gamma"), IoError);
  // The reader consumed exactly its own bytes.
  EXPECT_EQ(in.tellg(), static_cast<std::streamoff>(out.str().size()));
}

TEST(Container, RejectsWrongKindAndTruncation) {
  ContainerWriter writer("AAAA");
  writer.add_section("s") << "data";
  std::ostringstream out(std::ios::binary);
  writer.write_to(out);
  const std::string bytes = out.str();
  {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(ContainerReader::read_from(in, "BBBB"), IoError);
  }
  // Truncation at every length short of the full container fails cleanly.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(ContainerReader::read_from(in, "AAAA"), IoError)
        << "length " << len;
  }
}

TEST(Container, PreChecksumMagicIsRejected) {
  // A flat pre-container layout (never shipped) is rejected as bad magic.
  std::istringstream in(std::string("DBSW") + std::string(16, '\0'),
                        std::ios::binary);
  try {
    ContainerReader::read_from(in, "DBSW");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(FaultInjection, ShortWriteStopsAtOffset) {
  std::ostringstream sink(std::ios::binary);
  FaultyStreambuf faulty(sink.rdbuf(), {FaultKind::kShortWrite, 5});
  std::ostream out(&faulty);
  out.write("0123456789", 10);
  EXPECT_EQ(sink.str(), "01234");
  EXPECT_EQ(faulty.bytes_written(), 5);
}

TEST(FaultInjection, CrashThrowsAtOffset) {
  std::ostringstream sink(std::ios::binary);
  FaultyStreambuf faulty(sink.rdbuf(), {FaultKind::kCrash, 3});
  // Drive the streambuf directly: std::ostream::write would swallow the
  // exception into badbit, which is its own documented behavior, not ours.
  EXPECT_THROW(faulty.sputn("0123456789", 10), SimulatedCrash);
  EXPECT_EQ(sink.str(), "012");
}

TEST(FaultInjection, FlipCorruptsExactlyOneByte) {
  std::ostringstream sink(std::ios::binary);
  FaultyStreambuf faulty(sink.rdbuf(), {FaultKind::kFlipByte, 2});
  std::ostream out(&faulty);
  out.write("abcd", 4);
  out.flush();
  const std::string got = sink.str();
  ASSERT_EQ(got.size(), 4U);
  EXPECT_EQ(got[0], 'a');
  EXPECT_EQ(got[1], 'b');
  EXPECT_EQ(got[2], static_cast<char>('c' ^ 0xFF));
  EXPECT_EQ(got[3], 'd');
}

TEST(FaultInjection, NoFaultPassesThrough) {
  std::ostringstream sink(std::ios::binary);
  FaultyStreambuf faulty(sink.rdbuf(), {});
  std::ostream out(&faulty);
  out.write("abcd", 4);
  EXPECT_EQ(sink.str(), "abcd");
  EXPECT_EQ(faulty.bytes_written(), 4);
}

TEST(AtomicFile, WritesAndReadsBack) {
  const std::string path = ::testing::TempDir() + "/atomic_roundtrip.bin";
  std::remove(path.c_str());
  atomic_write_file(path, [](std::ostream& out) { out << "hello"; });
  EXPECT_EQ(read_file(path), "hello");
  // Overwrite is atomic too: either the old or the new content, never a mix.
  atomic_write_file(path, [](std::ostream& out) { out << "goodbye"; });
  EXPECT_EQ(read_file(path), "goodbye");
  std::remove(path.c_str());
  EXPECT_FALSE(file_exists(path));
  EXPECT_THROW(read_file(path), IoError);
}

}  // namespace
}  // namespace dropback::util
