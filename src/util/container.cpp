#include "util/container.hpp"

#include <limits>

#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/io_error.hpp"

namespace dropback::util {

namespace {

/// The 16 checksummed header bytes: magic, kind, version, section count.
std::string encode_header(std::string_view kind, std::uint32_t version,
                          std::uint32_t count) {
  std::ostringstream out(std::ios::binary);
  ByteWriter w(out, "container");
  w.raw(kContainerMagic);
  w.raw(kind);
  w.pod(version);
  w.pod(count);
  return out.str();
}

std::uint32_t crc_of(const std::string& bytes) {
  return crc32(bytes.data(), bytes.size());
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
  ByteWriter w(out, "container");
  const std::string header = encode_header(
      kind_, kContainerVersion, static_cast<std::uint32_t>(sections_.size()));
  w.raw(header);
  w.pod(crc_of(header));
  for (const Section& section : sections_) {
    const std::string payload = section.payload.str();
    w.str(section.name);
    w.pod<std::uint64_t>(payload.size());
    w.pod(crc_of(payload));
    w.raw(payload);
  }
  w.finish();
}

ContainerReader ContainerReader::read_from(std::istream& in,
                                           const std::string& kind) {
  DROPBACK_CHECK(kind.size() == 4, << "container kind '" << kind
                                   << "' must be 4 characters");
  ByteReader r(in, "container");
  r.expect_magic(kContainerMagic);
  const std::string file_kind = r.string(4);
  const auto version = r.pod<std::uint32_t>();
  const auto count = r.pod<std::uint32_t>();
  if (r.pod<std::uint32_t>() !=
      crc_of(encode_header(file_kind, version, count))) {
    r.fail("header checksum mismatch (corrupt header)");
  }
  if (file_kind != kind) {
    r.fail("payload kind '" + file_kind + "', expected '" + kind + "'");
  }
  if (version != kContainerVersion) {
    r.fail("unsupported format version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kContainerVersion) +
           ")");
  }

  ContainerReader reader;
  reader.sections_.reserve(
      r.count(count, ContainerWriter::section_overhead_bytes(0), "sections"));
  for (std::uint32_t s = 0; s < count; ++s) {
    Section section;
    section.name = r.str();
    const auto size = r.pod<std::uint64_t>();
    const auto payload_crc = r.pod<std::uint32_t>();
    section.offset = static_cast<std::int64_t>(r.offset());
    const std::string where = "section '" + section.name + "' at offset " +
                              std::to_string(section.offset);
    section.bytes.resize(r.count(size, 1, where + " payload"));
    r.raw(section.bytes.data(), section.bytes.size());
    if (crc_of(section.bytes) != payload_crc) {
      r.fail(where + ": checksum mismatch (corrupt payload)");
    }
    reader.sections_.push_back(std::move(section));
  }
  r.expect_end();
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

void ContainerReader::expect_sections(
    std::initializer_list<std::string_view> names) const {
  std::string want;
  bool match = names.size() == sections_.size();
  std::size_t i = 0;
  for (std::string_view name : names) {
    want += (want.empty() ? "'" : ", '") + std::string(name) + "'";
    match = match && sections_[i++].name == name;
  }
  if (!match) throw IoError("container: sections are not [" + want + "]");
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
