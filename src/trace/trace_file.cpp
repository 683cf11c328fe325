#include "trace/trace_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

// x86-64 GCC and Clang can compile the SSE4.2 CRC path; the CPU is asked at
// run time whether it may run it.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PREDCTRL_SSE42_CRC32C 1
#include <nmmintrin.h>
#endif

#include "util/check.hpp"

namespace predctrl {

// The format ships in-memory layouts verbatim, so pin them down once here:
// a drifting struct layout must fail the build, not corrupt files.
static_assert(std::endian::native == std::endian::little,
              "predctrl-trace-v1 I/O requires a little-endian host");
static_assert(sizeof(CausalEdge) == 16 && alignof(CausalEdge) == 4,
              "CausalEdge must be two {i32, i32} StateIds");
static_assert(std::is_trivially_copyable_v<CausalEdge>);
static_assert(sizeof(size_t) == 8, "CSR offsets adopt on-disk u64 arrays directly");

const char* TraceFileError::kind_name(Kind kind) {
  switch (kind) {
    case Kind::kIo: return "io";
    case Kind::kBadMagic: return "bad_magic";
    case Kind::kEndianMismatch: return "endian_mismatch";
    case Kind::kBadVersion: return "bad_version";
    case Kind::kTruncated: return "truncated";
    case Kind::kBadHeader: return "bad_header";
    case Kind::kBadSectionTable: return "bad_section_table";
    case Kind::kBadCrc: return "bad_crc";
    case Kind::kBadShape: return "bad_shape";
  }
  return "unknown";
}

namespace tracefile {

void put_u32(uint8_t* out, uint32_t v) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}

void put_u64(uint8_t* out, uint64_t v) {
  put_u32(out, static_cast<uint32_t>(v));
  put_u32(out + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t get_u32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) | (static_cast<uint32_t>(in[3]) << 24);
}

uint64_t get_u64(const uint8_t* in) {
  return static_cast<uint64_t>(get_u32(in)) | (static_cast<uint64_t>(get_u32(in + 4)) << 32);
}

uint32_t crc32c_portable(const void* data, size_t size, uint32_t seed) {
  // Reflected CRC-32C (Castagnoli); table built once on first use.
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0x82F63B78u : 0u);
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

#ifdef PREDCTRL_SSE42_CRC32C
namespace {

// The SSE4.2 `crc32` instruction implements the same reflected Castagnoli
// polynomial, eight bytes per step, so it returns exactly what the table
// loop returns.
__attribute__((target("sse4.2"))) uint32_t crc32c_sse42(const void* data, size_t size,
                                                         uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; size > 0; ++p, --size) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool cpu_has_sse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

}  // namespace
#endif

uint32_t crc32c(const void* data, size_t size, uint32_t seed) {
#ifdef PREDCTRL_SSE42_CRC32C
  static const bool hardware = cpu_has_sse42();
  if (hardware) return crc32c_sse42(data, size, seed);
#endif
  return crc32c_portable(data, size, seed);
}

std::array<uint8_t, kHeaderBytes> encode_header(const TraceHeader& header) {
  std::array<uint8_t, kHeaderBytes> out{};
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  put_u32(out.data() + 8, kEndianTag);
  put_u32(out.data() + 12, header.version);
  put_u32(out.data() + 16, static_cast<uint32_t>(kHeaderBytes));
  put_u32(out.data() + 20, header.section_count);
  put_u32(out.data() + 24, header.flags);
  put_u32(out.data() + 28, static_cast<uint32_t>(header.num_processes));
  put_u64(out.data() + 32, static_cast<uint64_t>(header.total_states));
  put_u64(out.data() + 40, static_cast<uint64_t>(header.num_edges));
  put_u64(out.data() + 48, header.file_bytes);
  // Bytes 56..63 are reserved and stay zero.
  return out;
}

TraceHeader decode_header(const uint8_t* data, size_t size) {
  if (size < kHeaderBytes + kFooterBytes)
    throw TraceFileError(TraceFileError::Kind::kTruncated,
                         "trace file smaller than header + footer (" +
                             std::to_string(size) + " bytes)");
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
    throw TraceFileError(TraceFileError::Kind::kBadMagic,
                         "not a predctrl-trace file (bad leading magic)");
  const uint32_t endian = get_u32(data + 8);
  if (endian == 0x04030201u)
    throw TraceFileError(TraceFileError::Kind::kEndianMismatch,
                         "trace file was written on a big-endian host");
  if (endian != kEndianTag)
    throw TraceFileError(TraceFileError::Kind::kBadHeader, "corrupt endianness tag");
  TraceHeader h;
  h.version = get_u32(data + 12);
  if (h.version != kVersion)
    throw TraceFileError(TraceFileError::Kind::kBadVersion,
                         "unsupported trace format version " + std::to_string(h.version) +
                             " (reader supports " + std::to_string(kVersion) + ")");
  if (get_u32(data + 16) != kHeaderBytes)
    throw TraceFileError(TraceFileError::Kind::kBadHeader, "unexpected header size field");
  h.section_count = get_u32(data + 20);
  h.flags = get_u32(data + 24);
  h.num_processes = static_cast<int32_t>(get_u32(data + 28));
  h.total_states = static_cast<int64_t>(get_u64(data + 32));
  h.num_edges = static_cast<int64_t>(get_u64(data + 40));
  h.file_bytes = get_u64(data + 48);
  if (h.num_processes < 1 || h.total_states < h.num_processes || h.num_edges < 0 ||
      (h.flags & ~(kFlagIntervals | kFlagPredicate)) != 0)
    throw TraceFileError(TraceFileError::Kind::kBadHeader,
                         "inconsistent header geometry fields");
  if (h.file_bytes != size)
    throw TraceFileError(TraceFileError::Kind::kTruncated,
                         "file is " + std::to_string(size) + " bytes but the header claims " +
                             std::to_string(h.file_bytes));
  return h;
}

std::array<uint8_t, kSectionEntryBytes> encode_section_entry(const SectionEntry& entry) {
  std::array<uint8_t, kSectionEntryBytes> out{};
  put_u32(out.data(), entry.id);
  put_u32(out.data() + 4, entry.crc);
  put_u64(out.data() + 8, entry.offset);
  put_u64(out.data() + 16, entry.bytes);
  // Bytes 24..31 are reserved and stay zero.
  return out;
}

SectionEntry decode_section_entry(const uint8_t* data) {
  SectionEntry e;
  e.id = get_u32(data);
  e.crc = get_u32(data + 4);
  e.offset = get_u64(data + 8);
  e.bytes = get_u64(data + 16);
  return e;
}

}  // namespace tracefile

namespace {

using tracefile::SectionEntry;
using tracefile::SectionId;
using Kind = TraceFileError::Kind;

constexpr size_t align_up(size_t v) {
  return (v + tracefile::kSectionAlign - 1) & ~(tracefile::kSectionAlign - 1);
}

struct PendingSection {
  SectionId id;
  const void* data;
  uint64_t bytes;
};

}  // namespace

void save_trace(const std::string& path, const Deposet& deposet,
                const TraceSaveOptions& options) {
  PREDCTRL_CHECK(deposet.num_processes() >= 1, "cannot save an empty deposet");
  const int32_t n = deposet.num_processes();
  const int64_t total_states = deposet.total_states();
  const CsrEdgeIndex& index = deposet.edge_index();

  // Optional payloads are re-packed into the on-disk shapes up front.
  std::vector<uint64_t> interval_offsets;
  std::vector<int32_t> interval_bounds;
  if (options.intervals != nullptr) {
    const FalseIntervalSets& sets = *options.intervals;
    PREDCTRL_CHECK(static_cast<int32_t>(sets.size()) == n,
                   "interval sets do not match the deposet");
    interval_offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (size_t p = 0; p < sets.size(); ++p)
      interval_offsets[p + 1] = interval_offsets[p] + sets[p].size();
    interval_bounds.reserve(2 * interval_offsets.back());
    for (size_t p = 0; p < sets.size(); ++p) {
      const int32_t len = deposet.length(static_cast<ProcessId>(p));
      for (const FalseInterval& iv : sets[p]) {
        PREDCTRL_CHECK(iv.process == static_cast<ProcessId>(p) && iv.lo >= 0 &&
                           iv.lo <= iv.hi && iv.hi < len,
                       "interval out of range for the deposet");
        interval_bounds.push_back(iv.lo);
        interval_bounds.push_back(iv.hi);
      }
    }
  }
  std::vector<uint8_t> predicate_bytes;
  if (options.predicate != nullptr) {
    const PredicateTable& table = *options.predicate;
    PREDCTRL_CHECK(static_cast<int32_t>(table.size()) == n,
                   "predicate table does not match the deposet");
    predicate_bytes.reserve(static_cast<size_t>(total_states));
    for (size_t p = 0; p < table.size(); ++p) {
      PREDCTRL_CHECK(static_cast<int32_t>(table[p].size()) ==
                         deposet.length(static_cast<ProcessId>(p)),
                     "predicate row does not match the process length");
      for (bool b : table[p]) predicate_bytes.push_back(b ? 1 : 0);
    }
  }

  const std::span<const MessageEdge> messages = deposet.messages();
  const std::span<const int32_t> slab = deposet.clocks().slab();
  std::vector<PendingSection> sections = {
      {SectionId::kLengths, deposet.lengths().data(),
       static_cast<uint64_t>(n) * sizeof(int32_t)},
      {SectionId::kMessages, messages.data(), messages.size_bytes()},
      {SectionId::kOutEdges, index.out_edges().data(), index.out_edges().size_bytes()},
      {SectionId::kOutOffsets, index.out_offsets().data(), index.out_offsets().size_bytes()},
      {SectionId::kInEdges, index.in_edges().data(), index.in_edges().size_bytes()},
      {SectionId::kInOffsets, index.in_offsets().data(), index.in_offsets().size_bytes()},
      {SectionId::kClocks, slab.data(), slab.size_bytes()},
  };
  uint32_t flags = 0;
  if (options.intervals != nullptr) {
    flags |= tracefile::kFlagIntervals;
    sections.push_back({SectionId::kIntervalOffsets, interval_offsets.data(),
                        interval_offsets.size() * sizeof(uint64_t)});
    sections.push_back({SectionId::kIntervalBounds, interval_bounds.data(),
                        interval_bounds.size() * sizeof(int32_t)});
  }
  if (options.predicate != nullptr) {
    flags |= tracefile::kFlagPredicate;
    sections.push_back({SectionId::kPredicate, predicate_bytes.data(),
                        predicate_bytes.size()});
  }

  // Lay the sections out (each starts 64-aligned) and build the section
  // table with payload CRCs.
  std::vector<SectionEntry> entries;
  entries.reserve(sections.size());
  uint64_t offset = align_up(tracefile::kHeaderBytes +
                             sections.size() * tracefile::kSectionEntryBytes);
  for (const PendingSection& s : sections) {
    SectionEntry e;
    e.id = static_cast<uint32_t>(s.id);
    e.crc = s.bytes > 0 ? tracefile::crc32c(s.data, s.bytes) : tracefile::crc32c("", 0);
    e.offset = offset;
    e.bytes = s.bytes;
    entries.push_back(e);
    offset = align_up(offset + s.bytes);
  }

  tracefile::TraceHeader header;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.flags = flags;
  header.num_processes = n;
  header.total_states = total_states;
  header.num_edges = deposet.edge_index().num_edges();
  header.file_bytes = offset + tracefile::kFooterBytes;

  // Meta region (header + section table) -- written and CRC'd as one blob.
  std::vector<uint8_t> meta;
  const auto header_bytes = tracefile::encode_header(header);
  meta.insert(meta.end(), header_bytes.begin(), header_bytes.end());
  for (const SectionEntry& e : entries) {
    const auto entry_bytes = tracefile::encode_section_entry(e);
    meta.insert(meta.end(), entry_bytes.begin(), entry_bytes.end());
  }
  const uint32_t meta_crc = tracefile::crc32c(meta.data(), meta.size());

  // Crash-safe publication: build the complete file as a sibling temp,
  // force it to stable storage (fdatasync), then rename(2) over `path`.
  // The rename is the commit point -- a reader racing a crash sees either
  // the whole old file or the whole new one, never a torn tail.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    throw TraceFileError(Kind::kIo, "cannot open '" + tmp + "' for writing: " +
                                        std::strerror(errno));
  auto fail = [&](const std::string& what) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw TraceFileError(Kind::kIo, what + " '" + tmp + "' failed: " + std::strerror(saved));
  };
  uint64_t written = 0;
  auto write_bytes = [&](const void* data, uint64_t bytes) {
    const auto* p = static_cast<const uint8_t*>(data);
    while (bytes > 0) {
      const ssize_t got = ::write(fd, p, bytes);
      if (got < 0) {
        if (errno == EINTR) continue;
        fail("write to");
      }
      p += got;
      bytes -= static_cast<uint64_t>(got);
      written += static_cast<uint64_t>(got);
    }
  };
  auto pad_to = [&](uint64_t target) {
    static const char zeros[tracefile::kSectionAlign] = {};
    while (written < target)
      write_bytes(zeros, std::min<uint64_t>(target - written, sizeof(zeros)));
  };

  write_bytes(meta.data(), meta.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    pad_to(entries[i].offset);
    write_bytes(sections[i].data, sections[i].bytes);
  }
  pad_to(offset);
  uint8_t footer[tracefile::kFooterBytes] = {};
  tracefile::put_u32(footer, meta_crc);
  std::memcpy(footer + 8, tracefile::kFooterMagic, sizeof(tracefile::kFooterMagic));
  write_bytes(footer, sizeof(footer));
  if (::fdatasync(fd) != 0) fail("fdatasync of");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw TraceFileError(Kind::kIo, "close of '" + tmp + "' failed: " + std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    throw TraceFileError(Kind::kIo, "rename '" + tmp + "' -> '" + path +
                                        "' failed: " + std::strerror(saved));
  }
  // Make the rename itself durable (best-effort: the data already is).
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
}

namespace {

// Fixed element size per section id, for the table-stage shape check.
uint64_t expected_section_bytes(SectionId id, const tracefile::TraceHeader& h) {
  const auto n = static_cast<uint64_t>(h.num_processes);
  const auto states = static_cast<uint64_t>(h.total_states);
  const auto edges = static_cast<uint64_t>(h.num_edges);
  switch (id) {
    case SectionId::kLengths: return n * sizeof(int32_t);
    case SectionId::kMessages:
    case SectionId::kOutEdges:
    case SectionId::kInEdges: return edges * sizeof(CausalEdge);
    case SectionId::kOutOffsets:
    case SectionId::kInOffsets: return (states + 1) * sizeof(uint64_t);
    case SectionId::kClocks: return states * n * sizeof(int32_t);
    case SectionId::kIntervalOffsets: return (n + 1) * sizeof(uint64_t);
    case SectionId::kIntervalBounds: return 0;  // data-dependent; checked at adoption
    case SectionId::kPredicate: return states;
  }
  return 0;
}

}  // namespace

MappedTrace MappedTrace::open(const std::string& path, const TraceReadOptions& options) {
  if (!options.salvage) return open_strict(path, options);
  try {
    return open_strict(path, options);  // intact file: salvaged stays false
  } catch (const TraceFileError& e) {
    // Tears manifest as truncation, trailing-magic loss, CRC mismatch, or a
    // table/shape that no longer fits the file. Anything structural -- I/O,
    // foreign endianness, unsupported version -- is not a tear and still
    // throws; open_salvaged re-checks the leading header the same way.
    if (e.kind() == Kind::kIo || e.kind() == Kind::kEndianMismatch ||
        e.kind() == Kind::kBadVersion)
      throw;
    return open_salvaged(path, e);
  }
}

MappedTrace MappedTrace::open_strict(const std::string& path, const TraceReadOptions& options) {
  MappedTrace t;
  try {
    t.file_ = util::MappedFile::open(path);
  } catch (const std::runtime_error& e) {
    throw TraceFileError(Kind::kIo, e.what());
  }
  const uint8_t* data = t.file_.data();
  const size_t size = t.file_.size();

  t.header_ = tracefile::decode_header(data, size);
  const tracefile::TraceHeader& h = t.header_;

  const size_t table_end =
      tracefile::kHeaderBytes + static_cast<size_t>(h.section_count) * tracefile::kSectionEntryBytes;
  if (table_end + tracefile::kFooterBytes > size)
    throw TraceFileError(Kind::kTruncated, "section table extends past end of file");

  // Footer first: its meta CRC vouches for every offset the table holds.
  const uint8_t* footer = data + size - tracefile::kFooterBytes;
  if (std::memcmp(footer + 8, tracefile::kFooterMagic, sizeof(tracefile::kFooterMagic)) != 0)
    throw TraceFileError(Kind::kBadMagic, "bad trailing magic (file truncated or overwritten?)");
  const uint32_t stored_meta_crc = tracefile::get_u32(footer);
  if (tracefile::crc32c(data, table_end) != stored_meta_crc)
    throw TraceFileError(Kind::kBadCrc, "header/section-table CRC-32C mismatch");

  // Required section sequence, extended by the optional ids the flags claim.
  std::vector<SectionId> expected = {
      SectionId::kLengths,  SectionId::kMessages,   SectionId::kOutEdges,
      SectionId::kOutOffsets, SectionId::kInEdges,  SectionId::kInOffsets,
      SectionId::kClocks,
  };
  if (h.flags & tracefile::kFlagIntervals) {
    expected.push_back(SectionId::kIntervalOffsets);
    expected.push_back(SectionId::kIntervalBounds);
  }
  if (h.flags & tracefile::kFlagPredicate) expected.push_back(SectionId::kPredicate);
  if (h.section_count != expected.size())
    throw TraceFileError(Kind::kBadSectionTable,
                         "expected " + std::to_string(expected.size()) + " sections, found " +
                             std::to_string(h.section_count));

  std::vector<SectionEntry> entries;
  entries.reserve(expected.size());
  uint64_t prev_end = table_end;
  for (size_t i = 0; i < expected.size(); ++i) {
    SectionEntry e = tracefile::decode_section_entry(
        data + tracefile::kHeaderBytes + i * tracefile::kSectionEntryBytes);
    if (e.id != static_cast<uint32_t>(expected[i]))
      throw TraceFileError(Kind::kBadSectionTable,
                           "section " + std::to_string(i) + " has id " + std::to_string(e.id) +
                               ", expected " + std::to_string(static_cast<uint32_t>(expected[i])));
    if (e.offset % tracefile::kSectionAlign != 0 || e.offset < prev_end ||
        e.bytes > size - tracefile::kFooterBytes ||
        e.offset > size - tracefile::kFooterBytes - e.bytes)
      throw TraceFileError(Kind::kBadSectionTable,
                           "section " + std::to_string(e.id) + " is misaligned or out of bounds");
    const uint64_t want = expected_section_bytes(expected[i], h);
    const bool variable = expected[i] == SectionId::kIntervalBounds;
    if ((!variable && e.bytes != want) ||
        (variable && e.bytes % (2 * sizeof(int32_t)) != 0))
      throw TraceFileError(Kind::kBadShape,
                           "section " + std::to_string(e.id) + " holds " +
                               std::to_string(e.bytes) + " bytes, geometry requires " +
                               std::to_string(want));
    if (options.verify_section_crcs &&
        tracefile::crc32c(data + e.offset, e.bytes) != e.crc)
      throw TraceFileError(Kind::kBadCrc,
                           "section " + std::to_string(e.id) + " payload CRC-32C mismatch");
    prev_end = e.offset + e.bytes;
    entries.push_back(e);
  }

  auto payload = [&](size_t i) { return data + entries[i].offset; };

  // Adoption: pointer assignment plus O(n) shape checks in the containers.
  std::vector<int32_t> lengths(
      reinterpret_cast<const int32_t*>(payload(0)),
      reinterpret_cast<const int32_t*>(payload(0)) + h.num_processes);
  int64_t states_sum = 0;
  for (int32_t len : lengths) {
    if (len < 1)
      throw TraceFileError(Kind::kBadShape, "a process length is < 1");
    states_sum += len;
  }
  if (states_sum != h.total_states)
    throw TraceFileError(Kind::kBadShape,
                         "process lengths sum to " + std::to_string(states_sum) +
                             ", header claims " + std::to_string(h.total_states));

  try {
    ClockMatrix clocks =
        ClockMatrix::adopt_mapped(lengths, reinterpret_cast<const int32_t*>(payload(6)));
    CsrEdgeIndex index = CsrEdgeIndex::adopt_mapped(
        lengths, reinterpret_cast<const CausalEdge*>(payload(2)),
        reinterpret_cast<const size_t*>(payload(3)),
        reinterpret_cast<const CausalEdge*>(payload(4)),
        reinterpret_cast<const size_t*>(payload(5)), h.num_edges);
    t.deposet_ = DeposetBuilder::adopt_mapped(
        std::move(lengths),
        {reinterpret_cast<const MessageEdge*>(payload(1)), static_cast<size_t>(h.num_edges)},
        std::move(index), std::move(clocks));

    if (h.flags & tracefile::kFlagIntervals) {
      const std::span<const size_t> offsets{
          reinterpret_cast<const size_t*>(payload(7)),
          static_cast<size_t>(h.num_processes) + 1};
      const std::span<const int32_t> bounds{
          reinterpret_cast<const int32_t*>(payload(8)),
          entries[8].bytes / sizeof(int32_t)};
      t.intervals_ = PackedIntervals::adopt_mapped(t.deposet_, offsets, bounds);
      t.has_intervals_ = true;
    }
    if (h.flags & tracefile::kFlagPredicate) {
      t.predicate_bytes_ = payload(entries.size() - 1);
      t.has_predicate_ = true;
    }
  } catch (const std::invalid_argument& e) {
    throw TraceFileError(Kind::kBadShape, e.what());
  }

  // The clock slab is probed point-wise by precedence queries; everything
  // else is consumed in order, where default readahead wins.
  t.file_.advise(entries[6].offset, entries[6].bytes, util::MappedFile::Advice::kRandom);
  return t;
}

MappedTrace MappedTrace::open_salvaged(const std::string& path, const TraceFileError& trigger) {
  MappedTrace t;
  t.salvage_.salvaged = true;
  t.salvage_.reason = trigger.what();
  try {
    t.file_ = util::MappedFile::open(path);
  } catch (const std::runtime_error& e) {
    throw TraceFileError(Kind::kIo, e.what());
  }
  const uint8_t* data = t.file_.data();
  const size_t size = t.file_.size();

  // Lenient header decode: the same leading-structure checks decode_header
  // makes, minus everything that involves the (possibly missing) tail --
  // the file-size claim and the footer. A failure here is structural
  // damage, not a tear, and stays fatal.
  if (size < tracefile::kHeaderBytes)
    throw TraceFileError(Kind::kTruncated,
                         "torn beyond recovery: file smaller than the fixed header");
  if (std::memcmp(data, tracefile::kMagic, sizeof(tracefile::kMagic)) != 0)
    throw TraceFileError(Kind::kBadMagic, "not a predctrl-trace file (bad leading magic)");
  const uint32_t endian = tracefile::get_u32(data + 8);
  if (endian == 0x04030201u)
    throw TraceFileError(Kind::kEndianMismatch,
                         "trace file was written on a big-endian host");
  if (endian != tracefile::kEndianTag)
    throw TraceFileError(Kind::kBadHeader, "corrupt endianness tag");
  tracefile::TraceHeader h;
  h.version = tracefile::get_u32(data + 12);
  if (h.version != tracefile::kVersion)
    throw TraceFileError(Kind::kBadVersion,
                         "unsupported trace format version " + std::to_string(h.version));
  if (tracefile::get_u32(data + 16) != tracefile::kHeaderBytes)
    throw TraceFileError(Kind::kBadHeader, "unexpected header size field");
  h.section_count = tracefile::get_u32(data + 20);
  h.flags = tracefile::get_u32(data + 24);
  h.num_processes = static_cast<int32_t>(tracefile::get_u32(data + 28));
  h.total_states = static_cast<int64_t>(tracefile::get_u64(data + 32));
  h.num_edges = static_cast<int64_t>(tracefile::get_u64(data + 40));
  h.file_bytes = tracefile::get_u64(data + 48);
  if (h.num_processes < 1 || h.total_states < h.num_processes || h.num_edges < 0 ||
      (h.flags & ~(tracefile::kFlagIntervals | tracefile::kFlagPredicate)) != 0)
    throw TraceFileError(Kind::kBadHeader, "inconsistent header geometry fields");
  t.header_ = h;

  std::vector<SectionId> expected = {
      SectionId::kLengths,  SectionId::kMessages,   SectionId::kOutEdges,
      SectionId::kOutOffsets, SectionId::kInEdges,  SectionId::kInOffsets,
      SectionId::kClocks,
  };
  if (h.flags & tracefile::kFlagIntervals) {
    expected.push_back(SectionId::kIntervalOffsets);
    expected.push_back(SectionId::kIntervalBounds);
  }
  if (h.flags & tracefile::kFlagPredicate) expected.push_back(SectionId::kPredicate);
  if (h.section_count != expected.size())
    throw TraceFileError(Kind::kBadSectionTable,
                         "section count disagrees with the header flags");
  t.salvage_.sections_total = static_cast<int64_t>(expected.size());

  // The section table is written before any payload, so a torn tail leaves
  // it intact; without the footer its meta CRC is unverifiable, but every
  // entry it points at must still pass its own payload CRC below, which is
  // what the recovery actually trusts.
  const size_t table_end = tracefile::kHeaderBytes +
                           expected.size() * tracefile::kSectionEntryBytes;
  if (table_end > size)
    throw TraceFileError(Kind::kTruncated, "torn beyond recovery: section table incomplete");

  // Prefix CRC walk: a section is recovered iff its table entry is sane,
  // its payload lies fully within the file, and the payload CRC verifies.
  // The first failure ends the recoverable prefix.
  std::vector<SectionEntry> entries;
  uint64_t prev_end = table_end;
  for (size_t i = 0; i < expected.size(); ++i) {
    SectionEntry e = tracefile::decode_section_entry(
        data + tracefile::kHeaderBytes + i * tracefile::kSectionEntryBytes);
    if (e.id != static_cast<uint32_t>(expected[i])) break;
    if (e.offset % tracefile::kSectionAlign != 0 || e.offset < prev_end ||
        e.bytes > size || e.offset > size - e.bytes)
      break;
    const uint64_t want = expected_section_bytes(expected[i], h);
    const bool variable = expected[i] == SectionId::kIntervalBounds;
    if ((!variable && e.bytes != want) || (variable && e.bytes % (2 * sizeof(int32_t)) != 0))
      break;
    if (tracefile::crc32c(data + e.offset, e.bytes) != e.crc) break;
    prev_end = e.offset + e.bytes;
    entries.push_back(e);
  }
  t.salvage_.sections_recovered = static_cast<int64_t>(entries.size());

  // Sections 0..5 (lengths .. in-offsets) are the least we can rebuild a
  // deposet from; the clock slab (6) is recomputable from them.
  if (entries.size() < 6)
    throw TraceFileError(Kind::kTruncated,
                         "torn beyond recovery: only " + std::to_string(entries.size()) +
                             " of " + std::to_string(expected.size()) +
                             " sections survived (need the 6 pre-clock sections); strict error: " +
                             t.salvage_.reason);

  auto payload = [&](size_t i) { return data + entries[i].offset; };

  std::vector<int32_t> lengths(
      reinterpret_cast<const int32_t*>(payload(0)),
      reinterpret_cast<const int32_t*>(payload(0)) + h.num_processes);
  int64_t states_sum = 0;
  for (int32_t len : lengths) {
    if (len < 1) throw TraceFileError(Kind::kBadShape, "a process length is < 1");
    states_sum += len;
  }
  if (states_sum != h.total_states)
    throw TraceFileError(Kind::kBadShape,
                         "recovered process lengths disagree with the header");

  try {
    if (entries.size() >= 7) {
      // Clock slab intact: adopt everything in place, exactly as a strict
      // open would.
      ClockMatrix clocks =
          ClockMatrix::adopt_mapped(lengths, reinterpret_cast<const int32_t*>(payload(6)));
      CsrEdgeIndex index = CsrEdgeIndex::adopt_mapped(
          lengths, reinterpret_cast<const CausalEdge*>(payload(2)),
          reinterpret_cast<const size_t*>(payload(3)),
          reinterpret_cast<const CausalEdge*>(payload(4)),
          reinterpret_cast<const size_t*>(payload(5)), h.num_edges);
      t.deposet_ = DeposetBuilder::adopt_mapped(
          std::move(lengths),
          {reinterpret_cast<const MessageEdge*>(payload(1)), static_cast<size_t>(h.num_edges)},
          std::move(index), std::move(clocks));
      t.file_.advise(entries[6].offset, entries[6].bytes, util::MappedFile::Advice::kRandom);
    } else {
      // The tear took the clock slab. Clocks are a pure function of
      // lengths + messages (compute_state_clocks is deterministic), so a
      // full rebuild reproduces the writer's slab byte-for-byte. The
      // result owns its memory; the mapping only backs this rebuild.
      DeposetBuilder builder(h.num_processes);
      for (int32_t p = 0; p < h.num_processes; ++p)
        builder.set_length(p, lengths[static_cast<size_t>(p)]);
      const auto* msgs = reinterpret_cast<const MessageEdge*>(payload(1));
      for (int64_t i = 0; i < h.num_edges; ++i) builder.add_message(msgs[i].from, msgs[i].to);
      t.deposet_ = builder.build();
      t.salvage_.clocks_recomputed = true;
    }

    if (h.flags & tracefile::kFlagIntervals) {
      if (entries.size() >= 9) {
        const std::span<const size_t> offsets{
            reinterpret_cast<const size_t*>(payload(7)),
            static_cast<size_t>(h.num_processes) + 1};
        const std::span<const int32_t> bounds{
            reinterpret_cast<const int32_t*>(payload(8)),
            entries[8].bytes / sizeof(int32_t)};
        t.intervals_ = PackedIntervals::adopt_mapped(t.deposet_, offsets, bounds);
        t.has_intervals_ = true;
      } else {
        t.salvage_.intervals_dropped = true;
      }
    }
    if (h.flags & tracefile::kFlagPredicate) {
      if (entries.size() == expected.size()) {
        t.predicate_bytes_ = payload(entries.size() - 1);
        t.has_predicate_ = true;
      } else {
        t.salvage_.predicate_dropped = true;
      }
    }
  } catch (const std::invalid_argument& e) {
    throw TraceFileError(Kind::kBadShape, e.what());
  }
  return t;
}

PredicateTable MappedTrace::predicate_table() const {
  PREDCTRL_CHECK(has_predicate_, "trace was saved without a predicate section");
  PredicateTable table(static_cast<size_t>(deposet_.num_processes()));
  const uint8_t* p = predicate_bytes_;
  for (size_t i = 0; i < table.size(); ++i) {
    const int32_t len = deposet_.length(static_cast<ProcessId>(i));
    table[i].reserve(static_cast<size_t>(len));
    for (int32_t k = 0; k < len; ++k) table[i].push_back(*p++ != 0);
  }
  return table;
}

}  // namespace predctrl
