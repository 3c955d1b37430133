// The one byte codec behind every persisted DBK format: the container
// envelope, DBT1 tensors, the DBSW/DBQS stores and the optimizer, loader and
// trainer state are all encoded by ByteWriter and decoded by ByteReader as
// fixed-width little-endian PODs, raw spans and length-prefixed strings.
//
// ByteReader knows how many bytes its input still holds (every source is a
// container section in memory or a seekable file), which gives the one
// allocation rule for untrusted input: a count read from the input sizes an
// allocation only through count(n, bytes_per_item), which fails unless the
// input still holds n * bytes_per_item bytes. Every failure raises
// util::IoError prefixed with the context ("DataLoader state: truncated ...").
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace dropback::util {

static_assert(std::endian::native == std::endian::little,
              "DBK formats are little-endian and stored in host order");

class ByteWriter {
 public:
  ByteWriter(std::ostream& out, std::string context);

  template <typename T>
  void pod(T value) {
    static_assert(std::is_arithmetic_v<T>, "pod() writes numbers only");
    raw(&value, sizeof(T));
  }
  void raw(const void* data, std::size_t size);
  void raw(std::string_view bytes) { raw(bytes.data(), bytes.size()); }
  /// The length as a `Len`, then the bytes.
  template <typename Len = std::uint16_t>
  void str(std::string_view s) {
    check_length(s.size(), std::numeric_limits<Len>::max());
    pod(static_cast<Len>(s.size()));
    raw(s);
  }

  /// Throws IoError("<context>: write failed") if the stream went bad.
  void finish() const;

 private:
  void check_length(std::size_t size, std::uint64_t max) const;

  std::ostream& out_;
  std::string context_;
};

class ByteReader {
 public:
  /// Reads `in` from its current position to its end; throws IoError if
  /// the stream cannot seek, since its size is then unknown.
  ByteReader(std::istream& in, std::string context);

  template <typename T>
  T pod() {
    static_assert(std::is_arithmetic_v<T>, "pod() reads numbers only");
    T value{};
    raw(&value, sizeof(T));
    return value;
  }
  /// A u8 that must be 0 or 1, the only values an encoder writes.
  bool boolean();
  void raw(void* dst, std::size_t size);
  /// A `Len` length prefix, then that many bytes.
  template <typename Len = std::uint16_t>
  std::string str() { return string(pod<Len>()); }
  std::string string(std::uint64_t size);

  void expect_magic(std::string_view magic);
  /// Fails unless the input is consumed: trailing bytes are corruption.
  void expect_end() const;
  /// Returns `n` if the input still holds n * bytes_per_item bytes; fails
  /// naming `what` otherwise.
  std::uint64_t count(std::uint64_t n, std::uint64_t bytes_per_item,
                      std::string_view what) const;

  std::uint64_t remaining() const { return remaining_; }
  /// Bytes consumed since construction.
  std::uint64_t offset() const { return offset_; }

  /// Throws IoError("<context>: <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::istream& in_;
  std::string context_;
  std::uint64_t remaining_ = 0;
  std::uint64_t offset_ = 0;
};

}  // namespace dropback::util
