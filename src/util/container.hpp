// Versioned, CRC32-checksummed binary container — the shared envelope for
// every persisted artifact: dense checkpoints ("DBCP"), compressed sparse
// stores ("DBSW"), and full training snapshots ("DBTS").
//
// Layout (native little-endian, fixed-width fields):
//
//   offset size field
//   0      4    container magic "DBK1"
//   4      4    payload kind fourcc (e.g. "DBCP")
//   8      4    u32 format version (currently 1)
//   12     4    u32 section count
//   16     4    u32 CRC-32 of the 16 header bytes above
//   then section_count sections, each:
//          2    u16 name length, followed by the name bytes
//          8    u64 payload size
//          4    u32 CRC-32 of the payload bytes
//               payload bytes
//
// A flipped byte anywhere is caught by the header or a section CRC; a
// truncated or over-long input is caught by the size fields (the container
// must end its input). Both sides go through util/bytes, so a size field
// sizes an allocation only if the input holds that many bytes. Every failure
// raises util::IoError naming the section and byte offset, so a caller can
// report exactly what is corrupt and fall back to the previous checkpoint.
#pragma once

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace dropback::util {

inline constexpr std::string_view kContainerMagic = "DBK1";
inline constexpr std::uint32_t kContainerVersion = 1;

/// Accumulates named sections in memory, then emits the checksummed
/// container in one pass. Section payloads are written through the stream
/// returned by add_section (sizes and CRCs are computed at write_to time).
class ContainerWriter {
 public:
  /// `kind` must be exactly 4 characters.
  explicit ContainerWriter(const std::string& kind);

  /// Opens a new section; returns the stream its payload is written to.
  /// The section is finalized when write_to runs.
  std::ostream& add_section(const std::string& name);

  /// Emits header + all sections. Throws IoError if `out` fails.
  void write_to(std::ostream& out) const;

  /// Serialized size of the fixed header (magic+kind+version+count+crc).
  static std::int64_t header_bytes() { return 20; }
  /// Per-section overhead beyond the payload (name_len+name+size+crc).
  static std::int64_t section_overhead_bytes(std::size_t name_len) {
    return 2 + static_cast<std::int64_t>(name_len) + 8 + 4;
  }

 private:
  struct Section {
    std::string name;
    std::ostringstream payload{std::ios::binary};
  };

  std::string kind_;
  std::deque<Section> sections_;  // deque: add_section hands out references
};

/// Parses and validates a container, holding all section payloads in memory.
class ContainerReader {
 public:
  /// Reads and validates one container of payload `kind` from `in`, which
  /// must end where the container does.
  static ContainerReader read_from(std::istream& in, const std::string& kind);

  std::size_t num_sections() const { return sections_.size(); }
  const std::string& section_name(std::size_t i) const;
  const std::string& section_bytes(std::size_t i) const;
  /// File offset at which section i's payload begins (for error reporting).
  std::int64_t section_offset(std::size_t i) const;
  /// Stream over a copy of section i's payload.
  std::istringstream section_stream(std::size_t i) const;

  /// Throws IoError unless the sections are exactly `names`, in order: a
  /// fixed-layout payload must not carry extra, missing or moved sections.
  void expect_sections(std::initializer_list<std::string_view> names) const;
  /// Payload stream of the first section with this name; throws IoError if
  /// no such section exists.
  std::istringstream section_stream(const std::string& name) const;

 private:
  struct Section {
    std::string name;
    std::string bytes;
    std::int64_t offset = 0;
  };

  std::vector<Section> sections_;
};

}  // namespace dropback::util
