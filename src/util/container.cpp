#include "util/container.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/io_error.hpp"

namespace dropback::util {

namespace {

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in, const char* what) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw IoError(std::string("container: truncated reading ") + what);
  return v;
}

}  // namespace

ContainerWriter::ContainerWriter(const std::string& kind) : kind_(kind) {
  DROPBACK_CHECK(kind.size() == 4, << "container kind '" << kind
                                   << "' must be 4 characters");
}

std::ostream& ContainerWriter::add_section(const std::string& name) {
  DROPBACK_CHECK(name.size() <= std::numeric_limits<std::uint16_t>::max(),
                 << "section name too long: " << name.size());
  sections_.emplace_back();
  sections_.back().name = name;
  return sections_.back().payload;
}

void ContainerWriter::write_to(std::ostream& out) const {
  char header[16];
  std::memcpy(header, kContainerMagic, 4);
  std::memcpy(header + 4, kind_.data(), 4);
  const std::uint32_t version = kContainerVersion;
  std::memcpy(header + 8, &version, 4);
  const auto count = static_cast<std::uint32_t>(sections_.size());
  std::memcpy(header + 12, &count, 4);
  out.write(header, sizeof(header));
  write_pod<std::uint32_t>(out, crc32(header, sizeof(header)));
  for (const Section& section : sections_) {
    const std::string payload = section.payload.str();
    write_pod<std::uint16_t>(out,
                             static_cast<std::uint16_t>(section.name.size()));
    out.write(section.name.data(),
              static_cast<std::streamsize>(section.name.size()));
    write_pod<std::uint64_t>(out, payload.size());
    write_pod<std::uint32_t>(out, crc32(payload.data(), payload.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  if (!out) throw IoError("container: write failed");
}

ContainerReader ContainerReader::read_from(std::istream& in,
                                           const std::string& kind) {
  DROPBACK_CHECK(kind.size() == 4, << "container kind '" << kind
                                   << "' must be 4 characters");
  char header[16];
  in.read(header, 4);
  if (!in) throw IoError("container: truncated reading magic");
  if (std::memcmp(header, kContainerMagic, 4) != 0) {
    throw IoError("container: bad magic");
  }
  in.read(header + 4, sizeof(header) - 4);
  if (!in) throw IoError("container: truncated reading header");
  const auto stored_crc = read_pod<std::uint32_t>(in, "header checksum");
  const std::uint32_t actual_crc = crc32(header, sizeof(header));
  if (stored_crc != actual_crc) {
    throw IoError("container: header checksum mismatch (corrupt header)");
  }
  if (std::memcmp(header + 4, kind.data(), 4) != 0) {
    throw IoError("container: payload kind '" + std::string(header + 4, 4) +
                  "', expected '" + kind + "'");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header + 8, 4);
  if (version != kContainerVersion) {
    throw IoError("container: unsupported format version " +
                  std::to_string(version) + " (this build reads version " +
                  std::to_string(kContainerVersion) + ")");
  }
  std::uint32_t count = 0;
  std::memcpy(&count, header + 12, 4);

  ContainerReader reader;
  std::int64_t offset = ContainerWriter::header_bytes();
  // The count is checksummed but still file-controlled: reserve a bounded
  // head start, and let the sections that really follow grow the vector.
  reader.sections_.reserve(std::min<std::uint32_t>(count, 256));
  for (std::uint32_t s = 0; s < count; ++s) {
    Section section;
    const auto name_len = read_pod<std::uint16_t>(in, "section name length");
    section.name.resize(name_len);
    in.read(section.name.data(), name_len);
    if (!in) throw IoError("container: truncated reading section name");
    const auto size = read_pod<std::uint64_t>(in, "section size");
    const auto payload_crc = read_pod<std::uint32_t>(in, "section checksum");
    offset += 2 + name_len + 8 + 4;
    section.offset = offset;
    // The size field itself is not checksummed, so a flipped bit here could
    // request an absurd allocation. Reading in bounded chunks means a lying
    // size field hits "truncated payload" after at most one chunk of memory,
    // instead of committing (or aborting on, under ASan) a huge allocation.
    constexpr std::uint64_t kReadChunk = 16ULL << 20;
    std::uint64_t got = 0;
    while (got < size) {
      const auto take = static_cast<std::size_t>(
          std::min<std::uint64_t>(size - got, kReadChunk));
      try {
        section.bytes.resize(section.bytes.size() + take);
      } catch (const std::exception&) {
        throw IoError("container: section '" + section.name + "' at offset " +
                      std::to_string(offset) + ": implausible payload size " +
                      std::to_string(size));
      }
      in.read(section.bytes.data() + got, static_cast<std::streamsize>(take));
      if (!in) {
        throw IoError(
            "container: section '" + section.name + "' at offset " +
            std::to_string(offset) + ": truncated payload (need " +
            std::to_string(size) + " bytes, have " +
            std::to_string(got + static_cast<std::uint64_t>(in.gcount())) +
            ")");
      }
      got += take;
    }
    const std::uint32_t actual =
        crc32(section.bytes.data(), section.bytes.size());
    if (actual != payload_crc) {
      throw IoError("container: section '" + section.name + "' at offset " +
                    std::to_string(offset) +
                    ": checksum mismatch (corrupt payload)");
    }
    offset += static_cast<std::int64_t>(size);
    reader.sections_.push_back(std::move(section));
  }
  return reader;
}

const std::string& ContainerReader::section_name(std::size_t i) const {
  DROPBACK_CHECK(i < sections_.size(), << "section " << i << " of "
                                       << sections_.size());
  return sections_[i].name;
}

const std::string& ContainerReader::section_bytes(std::size_t i) const {
  DROPBACK_CHECK(i < sections_.size(), << "section " << i << " of "
                                       << sections_.size());
  return sections_[i].bytes;
}

std::int64_t ContainerReader::section_offset(std::size_t i) const {
  DROPBACK_CHECK(i < sections_.size(), << "section " << i << " of "
                                       << sections_.size());
  return sections_[i].offset;
}

std::istringstream ContainerReader::section_stream(std::size_t i) const {
  return std::istringstream(section_bytes(i), std::ios::binary);
}

bool ContainerReader::has_section(const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return true;
  }
  return false;
}

std::istringstream ContainerReader::section_stream(
    const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) {
      return std::istringstream(section.bytes, std::ios::binary);
    }
  }
  throw IoError("container: missing section '" + name + "'");
}

}  // namespace dropback::util
