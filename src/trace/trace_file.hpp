// The zero-parse trace tier: predctrl-trace-v1, a versioned mmap-able
// on-disk format for analyzed deposets. docs/FORMAT.md is the normative
// byte-level specification; this header is the API.
//
// The design goal is O(ms) reopen independent of trace size. A saved file
// holds every array an analysis session needs -- the per-process lengths,
// the sorted message list, both CSR edge groupings with their offset
// tables, and the complete vector-clock slab -- laid out exactly as the
// in-memory containers store them. `MappedTrace::open` therefore never
// parses or recomputes anything: it mmaps the file, validates the fixed-
// size header, section table, and footer (a few hundred bytes, CRC-32C
// guarded), and adopts the section payloads in place as read-only
// ClockMatrix / CsrEdgeIndex / Deposet views (their adopt_mapped
// constructors). The kernel pages section bytes in on first touch, so
// opening a gigabyte trace costs milliseconds and an analysis that visits
// a fraction of the file faults in only that fraction.
//
// Integrity model: the header + section table ("meta") CRC is always
// verified at open -- it is tiny, and it covers every offset the reader
// will trust. Section payload CRCs are stored per section but verified
// only on request (TraceReadOptions::verify_section_crcs), because a full
// read defeats demand paging. Content semantics (D1-D3, clock values)
// are the writer's contract: only built Deposets are ever saved.
//
// All multi-byte fields are little-endian. The format is 64-bit: offsets
// and counts are u64/i64, and section payloads reuse the in-memory
// layouts of CausalEdge (two {i32 process, i32 index} pairs) and the
// size_t CSR offset arrays, so adoption is pointer assignment. A header
// endianness tag and explicit version gate refuse foreign files with a
// structured error instead of garbage.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "predicates/intervals.hpp"
#include "trace/deposet.hpp"
#include "trace/random_trace.hpp"
#include "util/mmap_file.hpp"

namespace predctrl {

/// Structured failure of trace save/open. `kind()` maps 1:1 to the spec's
/// validation clauses (docs/FORMAT.md, "Validation"), so tests and tools
/// can dispatch on the exact rejection reason rather than parsing text.
class TraceFileError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,              ///< open/stat/mmap/write failed (errno in message)
    kBadMagic,        ///< leading or trailing magic mismatch
    kEndianMismatch,  ///< endianness tag is byte-swapped (big-endian writer)
    kBadVersion,      ///< version field is not a supported version
    kTruncated,       ///< file shorter than its structures claim
    kBadHeader,       ///< fixed header fields are inconsistent
    kBadSectionTable, ///< section ids/order/offsets/sizes are invalid
    kBadCrc,          ///< a CRC-32C check failed (meta always; sections on request)
    kBadShape,        ///< section payloads disagree with the header geometry
  };

  TraceFileError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  Kind kind() const { return kind_; }

  /// Stable lowercase name of the kind ("bad_crc", ...), for tool output.
  static const char* kind_name(Kind kind);

 private:
  Kind kind_;
};

namespace tracefile {

// ---- Format constants (normative values; see docs/FORMAT.md) ----

inline constexpr char kMagic[8] = {'P', 'C', 'T', 'R', 'A', 'C', 'E', '1'};
inline constexpr char kFooterMagic[8] = {'1', 'E', 'C', 'A', 'R', 'T', 'C', 'P'};
inline constexpr uint32_t kEndianTag = 0x01020304;
inline constexpr uint32_t kVersion = 1;
inline constexpr size_t kHeaderBytes = 64;
inline constexpr size_t kSectionEntryBytes = 32;
inline constexpr size_t kFooterBytes = 16;
inline constexpr size_t kSectionAlign = 64;

/// Header flag bits (presence of optional sections).
inline constexpr uint32_t kFlagIntervals = 1u << 0;
inline constexpr uint32_t kFlagPredicate = 1u << 1;

/// Section identifiers, in required file order.
enum class SectionId : uint32_t {
  kLengths = 1,          ///< i32[n]               per-process state counts
  kMessages = 2,         ///< CausalEdge[E]        sorted by (from, to)
  kOutEdges = 3,         ///< CausalEdge[E]        grouped by source flat state
  kOutOffsets = 4,       ///< u64[S+1]             CSR offsets into kOutEdges
  kInEdges = 5,          ///< CausalEdge[E]        grouped by target flat state
  kInOffsets = 6,        ///< u64[S+1]             CSR offsets into kInEdges
  kClocks = 7,           ///< i32[S*n]             vector-clock slab, row-major
  kIntervalOffsets = 8,  ///< u64[n+1]             per-process CSR (optional)
  kIntervalBounds = 9,   ///< i32[2*I]             (lo, hi) pairs (optional)
  kPredicate = 10,       ///< u8[S]                truth per flat state (optional)
};

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), the checksum of
/// every CRC field in the format. Uses the SSE4.2 `crc32` instruction when
/// the CPU has it (picked once, at first call) and crc32c_portable
/// otherwise; both return the same value. Chain calls by passing the
/// previous result as `seed`.
uint32_t crc32c(const void* data, size_t size, uint32_t seed = 0);

/// The byte-at-a-time table implementation of crc32c: the fallback on CPUs
/// without the instruction, and the reference the tests compare against.
uint32_t crc32c_portable(const void* data, size_t size, uint32_t seed = 0);

/// Decoded fixed header. encode/decode are the only header (de)serializers
/// -- both sides go through the same explicit little-endian codec, which
/// the endianness/alignment unit tests exercise directly.
struct TraceHeader {
  uint32_t version = kVersion;
  uint32_t section_count = 0;
  uint32_t flags = 0;
  int32_t num_processes = 0;
  int64_t total_states = 0;
  int64_t num_edges = 0;
  uint64_t file_bytes = 0;

  friend bool operator==(const TraceHeader&, const TraceHeader&) = default;
};

/// One decoded section-table entry.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t crc = 0;      ///< CRC-32C of the payload bytes
  uint64_t offset = 0;   ///< from file start; multiple of kSectionAlign
  uint64_t bytes = 0;    ///< payload size (padding excluded)

  friend bool operator==(const SectionEntry&, const SectionEntry&) = default;
};

/// Serializes `header` into the 64-byte on-disk layout (magic included).
std::array<uint8_t, kHeaderBytes> encode_header(const TraceHeader& header);

/// Parses and validates the fixed header from the first kHeaderBytes of a
/// file. Throws TraceFileError with the precise kind (kTruncated,
/// kBadMagic, kEndianMismatch, kBadVersion, kBadHeader).
TraceHeader decode_header(const uint8_t* data, size_t size);

std::array<uint8_t, kSectionEntryBytes> encode_section_entry(const SectionEntry& entry);
SectionEntry decode_section_entry(const uint8_t* data);

// Little-endian scalar codec shared by header, table, and footer. On the
// little-endian targets this compiles to a plain load/store; the byte-wise
// definition is the portable specification the unit tests pin down.
void put_u32(uint8_t* out, uint32_t v);
void put_u64(uint8_t* out, uint64_t v);
uint32_t get_u32(const uint8_t* in);
uint64_t get_u64(const uint8_t* in);

}  // namespace tracefile

/// Optional payloads to save alongside the deposet. Pointees must outlive
/// the save_trace call; shapes must match the deposet.
struct TraceSaveOptions {
  /// False intervals (predicates/intervals.hpp) to persist as the packed
  /// interval tables, enabling detection on reopen without a predicate
  /// re-scan.
  const FalseIntervalSets* intervals = nullptr;
  /// Per-state truth table to persist (1 byte per state).
  const PredicateTable* predicate = nullptr;
};

/// Writes `deposet` (plus any TraceSaveOptions payloads) to `path` in
/// predctrl-trace-v1 format, overwriting an existing file. The deposet must
/// be non-empty (>= 1 process). Throws TraceFileError(kIo) on filesystem
/// failure, std::invalid_argument if optional payload shapes mismatch.
///
/// Crash-safe: the bytes go to a sibling temp file, are forced to stable
/// storage with fdatasync, and replace `path` with one atomic rename(2). A
/// crash at any instant leaves either the complete old file or the complete
/// new file at `path` -- never a torn mixture (a leftover `.tmp.*` sibling
/// is the only possible debris). Torn files therefore only arise from
/// writers outside this function (cp mid-crash, filesystem damage, an
/// interrupted download); TraceReadOptions::salvage is the matching reader.
void save_trace(const std::string& path, const Deposet& deposet,
                const TraceSaveOptions& options = {});

/// What MappedTrace::open recovered from a torn file (salvage mode).
struct SalvageReport {
  /// True iff the file failed strict validation and a valid prefix was
  /// adopted instead. False for an intact file (the other fields are then
  /// vacuous: everything present, nothing dropped).
  bool salvaged = false;
  /// Leading sections whose payload CRC-32C verified, out of the count the
  /// header promised. Recovery is strictly prefix-shaped: a torn tail
  /// invalidates everything at and after the tear.
  int64_t sections_recovered = 0;
  int64_t sections_total = 0;
  /// The clock slab was at/after the tear and was recomputed from the
  /// recovered lengths + messages (deterministic, so byte-equal to what the
  /// writer stored).
  bool clocks_recomputed = false;
  /// The header promised these optional payloads but their sections were
  /// lost to the tear.
  bool intervals_dropped = false;
  bool predicate_dropped = false;
  /// The strict-validation failure that triggered salvage.
  std::string reason;
};

struct TraceReadOptions {
  /// Also verify every section payload CRC at open. This reads the whole
  /// file (defeating demand paging) -- integrity audits only.
  bool verify_section_crcs = false;
  /// Recover what a torn write left behind instead of rejecting it: adopt
  /// the longest prefix of CRC-valid sections as a (possibly partial)
  /// deposet. Needs at least the six pre-clock sections intact; when the
  /// clock slab itself is torn it is recomputed from lengths + messages.
  /// Structural damage (bad leading magic, foreign version, corrupt header)
  /// still throws -- salvage targets tears, not arbitrary corruption.
  /// Implies a full CRC walk of the recovered prefix.
  bool salvage = false;
};

/// An open predctrl-trace-v1 file: the mmap plus zero-copy container views
/// adopted from its sections. Move-only; every view (the deposet, the
/// packed intervals, and anything derived from them) is valid exactly as
/// long as this object is alive.
class MappedTrace {
 public:
  /// Maps and validates `path` (header, section table, footer, meta CRC --
  /// O(ms) regardless of file size) and adopts the payloads. Throws
  /// TraceFileError on any rejection; see TraceFileError::Kind for the
  /// clause map. The clock slab is advised MADV_RANDOM (point precedence
  /// probes), the message/edge sections keep default readahead.
  static MappedTrace open(const std::string& path, const TraceReadOptions& options = {});

  MappedTrace(MappedTrace&&) noexcept = default;
  MappedTrace& operator=(MappedTrace&&) noexcept = default;

  /// The adopted deposet (mapped() == true). Full analysis API -- clocks,
  /// precedence, CSR message views -- backed directly by file bytes.
  const Deposet& deposet() const { return deposet_; }

  bool has_intervals() const { return has_intervals_; }
  /// Packed false intervals rebuilt from the interval tables (present iff
  /// has_intervals()); spans point into the mapped clock slab.
  const PackedIntervals& intervals() const { return intervals_; }

  bool has_predicate() const { return has_predicate_; }
  /// Expands the per-state truth bytes into the canonical table shape.
  /// O(total_states); the only non-view accessor.
  PredicateTable predicate_table() const;

  /// Total bytes mmap'ed (the file size).
  size_t mapped_bytes() const { return file_.size(); }
  /// Bytes of the mapping currently resident (mincore) -- how much of the
  /// file the analyses performed so far have actually touched.
  size_t resident_bytes() const { return file_.resident_bytes(); }

  const tracefile::TraceHeader& header() const { return header_; }

  /// What salvage mode recovered; `salvaged` is false for an intact file
  /// (and always false when TraceReadOptions::salvage was off -- strict
  /// opens throw instead).
  const SalvageReport& salvage_report() const { return salvage_; }

 private:
  MappedTrace() = default;

  static MappedTrace open_strict(const std::string& path, const TraceReadOptions& options);
  static MappedTrace open_salvaged(const std::string& path, const TraceFileError& trigger);

  util::MappedFile file_;
  tracefile::TraceHeader header_;
  Deposet deposet_;
  PackedIntervals intervals_;
  const uint8_t* predicate_bytes_ = nullptr;
  bool has_intervals_ = false;
  bool has_predicate_ = false;
  SalvageReport salvage_;
};

}  // namespace predctrl
