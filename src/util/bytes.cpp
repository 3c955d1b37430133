#include "util/bytes.hpp"

#include <istream>
#include <ostream>

#include "util/check.hpp"
#include "util/io_error.hpp"

namespace dropback::util {

ByteWriter::ByteWriter(std::ostream& out, std::string context)
    : out_(out), context_(std::move(context)) {}

void ByteWriter::raw(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
}

void ByteWriter::check_length(std::size_t size, std::uint64_t max) const {
  DROPBACK_CHECK(size <= max, << context_ << ": string of " << size
                              << " bytes exceeds its length prefix");
}

void ByteWriter::finish() const {
  if (!out_) throw IoError(context_ + ": write failed");
}

ByteReader::ByteReader(std::istream& in, std::string context)
    : in_(in), context_(std::move(context)) {
  // Measured on the buffer, so state bits left by an earlier peek do not
  // matter.
  std::streambuf& buf = *in.rdbuf();
  const std::streampos here = buf.pubseekoff(0, std::ios::cur, std::ios::in);
  const std::streampos end =
      here == std::streampos(-1)
          ? here
          : buf.pubseekoff(0, std::ios::end, std::ios::in);
  if (end == std::streampos(-1) || buf.pubseekpos(here, std::ios::in) != here) {
    fail("input cannot seek, so its size is unknown");
  }
  remaining_ = static_cast<std::uint64_t>(end - here);
}

void ByteReader::raw(void* dst, std::size_t size) {
  if (size > remaining_) {
    fail("truncated (need " + std::to_string(size) + " bytes at offset " +
         std::to_string(offset_) + ", " + std::to_string(remaining_) +
         " left)");
  }
  const auto got = in_.rdbuf()->sgetn(static_cast<char*>(dst),
                                      static_cast<std::streamsize>(size));
  if (got != static_cast<std::streamsize>(size)) {
    fail("read failed at offset " + std::to_string(offset_));
  }
  remaining_ -= size;
  offset_ += size;
}

bool ByteReader::boolean() {
  const auto byte = pod<std::uint8_t>();
  if (byte > 1) {
    fail("flag byte " + std::to_string(byte) + " at offset " +
         std::to_string(offset_ - 1) + " is neither 0 nor 1");
  }
  return byte == 1;
}

std::string ByteReader::string(std::uint64_t size) {
  std::string s(count(size, 1, "string"), '\0');
  raw(s.data(), s.size());
  return s;
}

void ByteReader::expect_magic(std::string_view magic) {
  if (string(magic.size()) != magic) fail("bad magic");
}

void ByteReader::expect_end() const {
  if (remaining_ != 0) {
    fail(std::to_string(remaining_) + " trailing bytes at offset " +
         std::to_string(offset_));
  }
}

std::uint64_t ByteReader::count(std::uint64_t n, std::uint64_t bytes_per_item,
                                std::string_view what) const {
  if (bytes_per_item != 0 && n > remaining_ / bytes_per_item) {
    fail(std::string(what) + " of " + std::to_string(n) + " x " +
         std::to_string(bytes_per_item) + " bytes claimed at offset " +
         std::to_string(offset_) + ", " + std::to_string(remaining_) +
         " left");
  }
  return n;
}

void ByteReader::fail(const std::string& what) const {
  throw IoError(context_ + ": " + what);
}

}  // namespace dropback::util
