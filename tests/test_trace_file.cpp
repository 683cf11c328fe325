// predctrl-trace-v1 round trips and rejection clauses (docs/FORMAT.md).
//
// Three layers:
//   * the little-endian scalar/header codec, pinned byte-by-byte (the
//     portable specification the raw-memcpy fast path must agree with);
//   * save -> open parity on 40 random traces: the mapped deposet must be
//     byte-identical to the built one (clock slab, edge groupings) and
//     every analysis (weak-conjunctive detection, race analysis, the
//     overlap search, packed-interval crossable) must return identical
//     results on both;
//   * corruption: each validation clause of the spec is violated in
//     isolation and must be rejected with exactly its TraceFileError kind.
#include "trace/trace_file.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "predicates/detection.hpp"
#include "predicates/intervals.hpp"
#include "trace/race.hpp"
#include "trace/random_trace.hpp"
#include "util/rng.hpp"

namespace predctrl {
namespace {

using tracefile::get_u32;
using tracefile::get_u64;
using tracefile::put_u32;
using tracefile::put_u64;
using Kind = TraceFileError::Kind;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "predctrl_" + name + ".pctrace";
}

// ctest runs each gtest case as its own invocation, possibly in parallel
// (-j), so fixtures that rewrite their file per test must not share a
// path across cases.
std::string per_test_temp_path(const std::string& prefix) {
  return temp_path(prefix + "_" +
                   testing::UnitTest::GetInstance()->current_test_info()->name());
}

// --------------------------------------------------------------- the codec

TEST(TraceCodec, ScalarsAreLittleEndian) {
  uint8_t buf[8] = {};
  put_u32(buf, 0x11223344u);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[1], 0x33);
  EXPECT_EQ(buf[2], 0x22);
  EXPECT_EQ(buf[3], 0x11);
  EXPECT_EQ(get_u32(buf), 0x11223344u);

  put_u64(buf, 0x0102030405060708ull);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(buf[i], 8 - i);
  EXPECT_EQ(get_u64(buf), 0x0102030405060708ull);
}

TEST(TraceCodec, Crc32cKnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix B.4 et al.).
  EXPECT_EQ(tracefile::crc32c("123456789", 9), 0xE3069283u);
  // Chaining across a split equals the one-shot CRC.
  const uint32_t part = tracefile::crc32c("12345", 5);
  EXPECT_EQ(tracefile::crc32c("6789", 4, part), 0xE3069283u);
}

TEST(TraceCodec, Crc32cMatchesPortableReference) {
  // crc32c may take the hardware path; it must agree with the table loop
  // at every length across the 8-byte step, at every alignment, and when
  // chained from a previous result.
  std::vector<uint8_t> buf(256 + 8);
  Rng rng(7);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.uniform(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(tracefile::crc32c(p, len), tracefile::crc32c_portable(p, len))
          << "offset " << offset << " length " << len;
      const uint32_t seed = tracefile::crc32c_portable(buf.data(), offset + len % 5);
      ASSERT_EQ(tracefile::crc32c(p, len, seed), tracefile::crc32c_portable(p, len, seed))
          << "offset " << offset << " length " << len << " seed " << seed;
      const size_t split = len / 3;
      EXPECT_EQ(tracefile::crc32c(p + split, len - split, tracefile::crc32c(p, split)),
                tracefile::crc32c_portable(p, len))
          << "offset " << offset << " length " << len << " split " << split;
    }
  }
  EXPECT_EQ(tracefile::crc32c_portable("123456789", 9), 0xE3069283u);
}

TEST(TraceCodec, HeaderRoundTripsAndPinsOffsets) {
  tracefile::TraceHeader h;
  h.section_count = 7;
  h.flags = tracefile::kFlagIntervals;
  h.num_processes = 3;
  h.total_states = 12;
  h.num_edges = 4;
  h.file_bytes = 4096;
  const auto bytes = tracefile::encode_header(h);

  // Field offsets are normative (docs/FORMAT.md, "Header").
  EXPECT_EQ(std::memcmp(bytes.data(), "PCTRACE1", 8), 0);
  EXPECT_EQ(get_u32(bytes.data() + 8), tracefile::kEndianTag);
  EXPECT_EQ(get_u32(bytes.data() + 12), tracefile::kVersion);
  EXPECT_EQ(get_u32(bytes.data() + 16), 64u);
  EXPECT_EQ(get_u32(bytes.data() + 20), 7u);
  EXPECT_EQ(get_u32(bytes.data() + 24), tracefile::kFlagIntervals);
  EXPECT_EQ(get_u32(bytes.data() + 28), 3u);
  EXPECT_EQ(get_u64(bytes.data() + 32), 12u);
  EXPECT_EQ(get_u64(bytes.data() + 40), 4u);
  EXPECT_EQ(get_u64(bytes.data() + 48), 4096u);
  EXPECT_EQ(get_u64(bytes.data() + 56), 0u);  // reserved

  EXPECT_EQ(tracefile::decode_header(bytes.data(), 4096), h);
}

TEST(TraceCodec, SectionEntryRoundTrips) {
  tracefile::SectionEntry e;
  e.id = 7;
  e.crc = 0xDEADBEEF;
  e.offset = 640;
  e.bytes = 1234;
  const auto bytes = tracefile::encode_section_entry(e);
  EXPECT_EQ(get_u32(bytes.data()), 7u);
  EXPECT_EQ(get_u32(bytes.data() + 4), 0xDEADBEEFu);
  EXPECT_EQ(get_u64(bytes.data() + 8), 640u);
  EXPECT_EQ(get_u64(bytes.data() + 16), 1234u);
  EXPECT_EQ(get_u64(bytes.data() + 24), 0u);  // reserved
  EXPECT_EQ(tracefile::decode_section_entry(bytes.data()), e);
}

// ------------------------------------------------------- round-trip parity

void expect_identical_analyses(const Deposet& built, const MappedTrace& mapped,
                               const PredicateTable& table) {
  const Deposet& re = mapped.deposet();
  ASSERT_TRUE(re.mapped());
  ASSERT_EQ(re.num_processes(), built.num_processes());
  ASSERT_EQ(re.lengths(), built.lengths());
  ASSERT_EQ(re.total_states(), built.total_states());

  // Byte-identical causal state: the clock slab and both CSR groupings.
  const auto slab_a = built.clocks().slab();
  const auto slab_b = re.clocks().slab();
  ASSERT_EQ(slab_a.size(), slab_b.size());
  EXPECT_EQ(std::memcmp(slab_a.data(), slab_b.data(), slab_a.size_bytes()), 0);
  EXPECT_TRUE(built.clocks() == re.clocks());

  const auto msgs_a = built.messages();
  const auto msgs_b = re.messages();
  ASSERT_EQ(msgs_a.size(), msgs_b.size());
  // A message-free trace has null spans, which memcmp may not be handed.
  if (!msgs_a.empty()) {
    EXPECT_EQ(std::memcmp(msgs_a.data(), msgs_b.data(), msgs_a.size_bytes()), 0);
  }
  for (ProcessId p = 0; p < built.num_processes(); ++p) {
    const auto out_a = built.messages_from(p), out_b = re.messages_from(p);
    const auto in_a = built.messages_to(p), in_b = re.messages_to(p);
    ASSERT_EQ(out_a.size(), out_b.size());
    ASSERT_EQ(in_a.size(), in_b.size());
    EXPECT_TRUE(std::equal(out_a.begin(), out_a.end(), out_b.begin()));
    EXPECT_TRUE(std::equal(in_a.begin(), in_a.end(), in_b.begin()));
  }

  // Analysis parity: detection, races, and the overlap search must not be
  // able to tell the storage modes apart.
  const ConjunctiveDetection det_a = detect_weak_conjunctive(built, table);
  const ConjunctiveDetection det_b = detect_weak_conjunctive(re, table);
  EXPECT_EQ(det_a.detected, det_b.detected);
  if (det_a.detected) {
    EXPECT_EQ(det_a.first_cut.indices(), det_b.first_cut.indices());
  }

  const RaceAnalysis races_a = analyze_races(built);
  const RaceAnalysis races_b = analyze_races(re);
  EXPECT_EQ(races_a.total_receives, races_b.total_receives);
  EXPECT_EQ(races_a.racing_receives, races_b.racing_receives);
  ASSERT_EQ(races_a.races.size(), races_b.races.size());
  for (size_t i = 0; i < races_a.races.size(); ++i) {
    EXPECT_EQ(races_a.races[i].received, races_b.races[i].received);
    EXPECT_EQ(races_a.races[i].could_have_received, races_b.races[i].could_have_received);
  }

  const FalseIntervalSets sets = extract_false_intervals(table);
  const auto overlap_a = find_overlapping_set(built, sets);
  const auto overlap_b = find_overlapping_set(re, sets);
  ASSERT_EQ(overlap_a.has_value(), overlap_b.has_value());
  if (overlap_a) {
    EXPECT_EQ(*overlap_a, *overlap_b);
  }

  // Persisted payloads round-trip exactly.
  ASSERT_TRUE(mapped.has_predicate());
  EXPECT_EQ(mapped.predicate_table(), table);
  ASSERT_TRUE(mapped.has_intervals());
  const PackedIntervals& packed = mapped.intervals();
  ASSERT_EQ(packed.num_processes(), built.num_processes());
  for (ProcessId p = 0; p < built.num_processes(); ++p) {
    ASSERT_EQ(packed.count(p), static_cast<int32_t>(sets[static_cast<size_t>(p)].size()));
    for (int32_t i = 0; i < packed.count(p); ++i)
      EXPECT_EQ(packed.interval(p, i), sets[static_cast<size_t>(p)][static_cast<size_t>(i)]);
  }
  // crossable verdict parity between the mapped packed index and the
  // reference pair test on the built deposet.
  for (ProcessId a = 0; a < built.num_processes(); ++a)
    for (ProcessId b = 0; b < built.num_processes(); ++b) {
      if (a == b) continue;
      for (int32_t i = 0; i < std::min(packed.count(a), 3); ++i)
        for (int32_t j = 0; j < std::min(packed.count(b), 3); ++j)
          for (StepSemantics sem : {StepSemantics::kRealTime, StepSemantics::kSimultaneous})
            EXPECT_EQ(packed.crossable(a, i, b, j, sem),
                      crossable(built, sets[static_cast<size_t>(a)][static_cast<size_t>(i)],
                                sets[static_cast<size_t>(b)][static_cast<size_t>(j)], sem));
    }
}

TEST(TraceFile, RoundTripsRandomTraces) {
  Rng rng(20260808);
  const std::string path = temp_path("roundtrip");
  for (int iter = 0; iter < 40; ++iter) {
    RandomTraceOptions topt;
    topt.num_processes = static_cast<int32_t>(rng.uniform(2, 6));
    topt.events_per_process = static_cast<int32_t>(rng.uniform(4, 24));
    const Deposet built = random_deposet(topt, rng);
    const PredicateTable table = random_predicate_table(built, {}, rng);
    const FalseIntervalSets sets = extract_false_intervals(table);

    TraceSaveOptions save;
    save.intervals = &sets;
    save.predicate = &table;
    save_trace(path, built, save);

    const MappedTrace mapped = MappedTrace::open(path);
    expect_identical_analyses(built, mapped, table);

    // A full-integrity reopen must agree with what the writer stored.
    TraceReadOptions verify;
    verify.verify_section_crcs = true;
    EXPECT_NO_THROW(MappedTrace::open(path, verify));
  }
}

TEST(TraceFile, RoundTripsMinimalAndMessagelessTraces) {
  const std::string path = temp_path("minimal");
  {
    DeposetBuilder b(1);  // one process, one state, no messages
    save_trace(path, b.build());
    const MappedTrace t = MappedTrace::open(path);
    EXPECT_EQ(t.deposet().num_processes(), 1);
    EXPECT_EQ(t.deposet().total_states(), 1);
    EXPECT_EQ(t.deposet().messages().size(), 0u);
    EXPECT_FALSE(t.has_intervals());
    EXPECT_FALSE(t.has_predicate());
  }
  {
    DeposetBuilder b(3);  // several processes, zero edges
    for (ProcessId p = 0; p < 3; ++p) b.set_length(p, 4);
    save_trace(path, b.build());
    const MappedTrace t = MappedTrace::open(path);
    EXPECT_EQ(t.deposet().total_states(), 12);
    EXPECT_TRUE(t.deposet().concurrent({0, 3}, {2, 3}));
  }
}

TEST(TraceFile, MappedDeposetCopiesShareTheMapping) {
  Rng rng(7);
  const std::string path = temp_path("copies");
  const Deposet built = random_deposet({.num_processes = 3, .events_per_process = 8}, rng);
  save_trace(path, built);
  const MappedTrace t = MappedTrace::open(path);

  const Deposet copy = t.deposet();  // copy of a mapped deposet
  EXPECT_TRUE(copy.mapped());
  EXPECT_EQ(copy.messages().data(), t.deposet().messages().data());
  EXPECT_TRUE(copy.clocks() == built.clocks());
}

// ------------------------------------------------------ corruption clauses

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Recomputes the meta CRC after a deliberate header/table mutation, so the
// test reaches the clause under test instead of tripping kBadCrc first.
void refresh_meta_crc(std::vector<uint8_t>& bytes) {
  const size_t table_end = tracefile::kHeaderBytes +
                           get_u32(bytes.data() + 20) * tracefile::kSectionEntryBytes;
  put_u32(bytes.data() + bytes.size() - tracefile::kFooterBytes,
          tracefile::crc32c(bytes.data(), table_end));
}

Kind open_kind(const std::string& path, bool verify_sections = false) {
  try {
    TraceReadOptions opt;
    opt.verify_section_crcs = verify_sections;
    (void)MappedTrace::open(path, opt);
  } catch (const TraceFileError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "open unexpectedly succeeded for " << path;
  return Kind::kIo;
}

class TraceFileCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    built_ = random_deposet({.num_processes = 3, .events_per_process = 10}, rng);
    path_ = per_test_temp_path("corrupt");
    save_trace(path_, built_);
    original_ = read_file(path_);
    ASSERT_GT(original_.size(), tracefile::kHeaderBytes + tracefile::kFooterBytes);
  }

  // Applies `mutate` to a fresh copy of the valid file and returns the
  // rejection kind.
  template <typename F>
  Kind mutated_kind(F mutate, bool verify_sections = false) {
    std::vector<uint8_t> bytes = original_;
    mutate(bytes);
    write_file(path_, bytes);
    return open_kind(path_, verify_sections);
  }

  Deposet built_;
  std::string path_;
  std::vector<uint8_t> original_;
};

TEST_F(TraceFileCorruption, MissingFileIsIo) {
  EXPECT_EQ(open_kind(temp_path("does_not_exist")), Kind::kIo);
}

TEST_F(TraceFileCorruption, TruncationClauses) {
  // Shorter than header + footer: rejected before any field is read.
  EXPECT_EQ(mutated_kind([](auto& b) { b.resize(10); }), Kind::kTruncated);
  // One byte missing: the header's file_bytes no longer matches.
  EXPECT_EQ(mutated_kind([](auto& b) { b.pop_back(); }), Kind::kTruncated);
  // Section table claims more entries than the file holds; the table
  // bounds check fires before the meta CRC is even computed.
  EXPECT_EQ(mutated_kind([](auto& b) { put_u32(b.data() + 20, 1000000); }),
            Kind::kTruncated);
}

TEST_F(TraceFileCorruption, MagicClauses) {
  EXPECT_EQ(mutated_kind([](auto& b) { b[0] = 'X'; }), Kind::kBadMagic);
  EXPECT_EQ(mutated_kind([](auto& b) { b[b.size() - 1] ^= 0xFF; }), Kind::kBadMagic);
}

TEST_F(TraceFileCorruption, EndianAndVersionClauses) {
  // A byte-swapped endianness tag is the fingerprint of a big-endian writer.
  EXPECT_EQ(mutated_kind([](auto& b) { put_u32(b.data() + 8, 0x04030201u); }),
            Kind::kEndianMismatch);
  EXPECT_EQ(mutated_kind([](auto& b) { put_u32(b.data() + 8, 0xABCDABCDu); }),
            Kind::kBadHeader);
  // Future versions are refused up front (no speculative parsing).
  EXPECT_EQ(mutated_kind([](auto& b) { put_u32(b.data() + 12, 2); }), Kind::kBadVersion);
}

TEST_F(TraceFileCorruption, HeaderGeometryClauses) {
  EXPECT_EQ(mutated_kind([](auto& b) { put_u32(b.data() + 16, 32); }), Kind::kBadHeader);
  EXPECT_EQ(mutated_kind([](auto& b) { put_u32(b.data() + 28, 0); }), Kind::kBadHeader);
  EXPECT_EQ(mutated_kind([](auto& b) { put_u32(b.data() + 24, 0xFF); }), Kind::kBadHeader);
}

TEST_F(TraceFileCorruption, MetaCrcGuardsHeaderAndTable) {
  // Flipping a reserved byte inside the meta region (covered by the CRC,
  // ignored by every field decoder) must still be detected.
  EXPECT_EQ(mutated_kind([](auto& b) { b[56] ^= 0x01; }), Kind::kBadCrc);
  // Ditto a section-table byte (here: the first entry's stored CRC field).
  EXPECT_EQ(mutated_kind([](auto& b) { b[tracefile::kHeaderBytes + 4] ^= 0x01; }),
            Kind::kBadCrc);
}

TEST_F(TraceFileCorruption, SectionTableClauses) {
  const size_t entry0 = tracefile::kHeaderBytes;
  // Wrong id in slot 0.
  EXPECT_EQ(mutated_kind([&](auto& b) {
              put_u32(b.data() + entry0, 99);
              refresh_meta_crc(b);
            }),
            Kind::kBadSectionTable);
  // Misaligned section offset.
  EXPECT_EQ(mutated_kind([&](auto& b) {
              put_u64(b.data() + entry0 + 8, get_u64(b.data() + entry0 + 8) + 4);
              refresh_meta_crc(b);
            }),
            Kind::kBadSectionTable);
  // Section extends past the end of the file.
  EXPECT_EQ(mutated_kind([&](auto& b) {
              put_u64(b.data() + entry0 + 8, 1u << 30);
              refresh_meta_crc(b);
            }),
            Kind::kBadSectionTable);
  // Payload size that disagrees with the header geometry.
  EXPECT_EQ(mutated_kind([&](auto& b) {
              put_u64(b.data() + entry0 + 16, get_u64(b.data() + entry0 + 16) + 4);
              refresh_meta_crc(b);
            }),
            Kind::kBadShape);
}

TEST_F(TraceFileCorruption, PayloadShapeClause) {
  // Bump lengths[0] inside the kLengths payload: the per-section sizes all
  // still match the header, but the lengths no longer sum to total_states.
  EXPECT_EQ(mutated_kind([&](auto& b) {
              const size_t off = get_u64(b.data() + tracefile::kHeaderBytes + 8);
              put_u32(b.data() + off, get_u32(b.data() + off) + 1);
            }),
            Kind::kBadShape);
}

TEST_F(TraceFileCorruption, SectionCrcIsOptIn) {
  // Corrupt one clock component (section 7 = table slot 6).
  auto corrupt_clock = [&](std::vector<uint8_t>& b) {
    const size_t entry = tracefile::kHeaderBytes + 6 * tracefile::kSectionEntryBytes;
    const size_t off = get_u64(b.data() + entry + 8);
    b[off] ^= 0x01;
  };
  // Default open never touches payload bytes (demand paging stays intact),
  // so the damage goes unnoticed...
  {
    std::vector<uint8_t> bytes = original_;
    corrupt_clock(bytes);
    write_file(path_, bytes);
    EXPECT_NO_THROW(MappedTrace::open(path_));
  }
  // ...until an integrity audit asks for section CRCs.
  EXPECT_EQ(mutated_kind(corrupt_clock, /*verify_sections=*/true), Kind::kBadCrc);
}

TEST_F(TraceFileCorruption, KindNamesAreStable) {
  EXPECT_STREQ(TraceFileError::kind_name(Kind::kBadCrc), "bad_crc");
  EXPECT_STREQ(TraceFileError::kind_name(Kind::kEndianMismatch), "endian_mismatch");
  EXPECT_STREQ(TraceFileError::kind_name(Kind::kTruncated), "truncated");
}

// -------------------------------------------------- crash-safe persistence

TEST(TraceAtomicSave, LeavesNoTempDebrisAndOverwritesDurably) {
  Rng rng(11);
  const std::string path = temp_path("atomic");
  const Deposet first = random_deposet({.num_processes = 2, .events_per_process = 5}, rng);
  save_trace(path, first);
  // The commit point is rename(2): the staging sibling must be gone.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);

  // Overwriting in place goes through the same staged path: afterwards the
  // file is entirely the new trace, never a mix of the two.
  const Deposet second = random_deposet({.num_processes = 4, .events_per_process = 9}, rng);
  save_trace(path, second);
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);
  const MappedTrace t = MappedTrace::open(path);
  EXPECT_EQ(t.deposet().num_processes(), 4);
  EXPECT_EQ(t.deposet().lengths(), second.lengths());
}

TEST(TraceAtomicSave, UnwritableDestinationIsIo) {
  Rng rng(12);
  const Deposet d = random_deposet({.num_processes = 2, .events_per_process = 4}, rng);
  try {
    save_trace(testing::TempDir() + "predctrl_no_such_dir/x.pctrace", d);
    FAIL() << "save into a missing directory succeeded";
  } catch (const TraceFileError& e) {
    EXPECT_EQ(e.kind(), Kind::kIo);
  }
}

// ------------------------------------------------------------ salvage mode

class TraceSalvage : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20260807);
    built_ = random_deposet({.num_processes = 3, .events_per_process = 12}, rng);
    table_ = random_predicate_table(built_, {}, rng);
    sets_ = extract_false_intervals(table_);
    path_ = per_test_temp_path("salvage");
    TraceSaveOptions save;
    save.intervals = &sets_;
    save.predicate = &table_;
    save_trace(path_, built_, save);
    original_ = read_file(path_);

    section_count_ = get_u32(original_.data() + 20);
    ASSERT_EQ(section_count_, 10u);  // 7 core + interval offsets/bounds + predicate
    // The sweep below cuts at section starts; a zero-byte section would
    // make "exactly k survive" ambiguous, so pin the fixture to a trace
    // where every section has payload.
    for (uint32_t i = 0; i < section_count_; ++i) ASSERT_GT(section(i).second, 0u) << i;
  }

  // (offset, bytes) of table slot i.
  std::pair<uint64_t, uint64_t> section(uint32_t i) const {
    const uint8_t* e =
        original_.data() + tracefile::kHeaderBytes + i * tracefile::kSectionEntryBytes;
    return {get_u64(e + 8), get_u64(e + 16)};
  }

  // Truncates the valid file to `cut` bytes and opens it in salvage mode.
  MappedTrace salvage_at(size_t cut) {
    std::vector<uint8_t> torn(original_.begin(),
                              original_.begin() + static_cast<ptrdiff_t>(cut));
    write_file(path_, torn);
    TraceReadOptions opt;
    opt.salvage = true;
    return MappedTrace::open(path_, opt);
  }

  void expect_prefix_recovered(const MappedTrace& t, uint32_t k) {
    const SalvageReport& r = t.salvage_report();
    EXPECT_TRUE(r.salvaged);
    EXPECT_EQ(r.sections_recovered, k);
    EXPECT_EQ(r.sections_total, 10);
    EXPECT_FALSE(r.reason.empty());
    // The rebuilt deposet matches the writer's byte for byte -- structure
    // directly, the clock slab either adopted or deterministically
    // recomputed from lengths + messages.
    EXPECT_EQ(r.clocks_recomputed, k < 7);
    ASSERT_EQ(t.deposet().lengths(), built_.lengths());
    const auto msgs_a = built_.messages(), msgs_b = t.deposet().messages();
    ASSERT_EQ(msgs_a.size(), msgs_b.size());
    EXPECT_EQ(std::memcmp(msgs_a.data(), msgs_b.data(), msgs_a.size_bytes()), 0);
    const auto slab_a = built_.clocks().slab(), slab_b = t.deposet().clocks().slab();
    ASSERT_EQ(slab_a.size(), slab_b.size());
    EXPECT_EQ(std::memcmp(slab_a.data(), slab_b.data(), slab_a.size_bytes()), 0);
    // Optional sections survive only as part of the intact prefix.
    EXPECT_EQ(t.has_intervals(), k >= 9);
    EXPECT_EQ(r.intervals_dropped, k < 9);
    EXPECT_EQ(t.has_predicate(), k == 10);
    EXPECT_EQ(r.predicate_dropped, k < 10);
    if (t.has_predicate()) {
      EXPECT_EQ(t.predicate_table(), table_);
    }
  }

  Deposet built_;
  PredicateTable table_;
  FalseIntervalSets sets_;
  std::string path_;
  std::vector<uint8_t> original_;
  uint32_t section_count_ = 0;
};

TEST_F(TraceSalvage, IntactFileTakesTheStrictPath) {
  TraceReadOptions opt;
  opt.salvage = true;
  const MappedTrace t = MappedTrace::open(path_, opt);
  EXPECT_FALSE(t.salvage_report().salvaged);
  EXPECT_TRUE(t.has_predicate());
}

TEST_F(TraceSalvage, RecoversLongestValidPrefixAtEveryBoundary) {
  // Tear the file at the start of every section k (exactly k sections
  // survive) and, where the payload allows, mid-way through section k
  // (same k). Below 6 surviving sections recovery is impossible; at 6 the
  // clock slab is recomputed; from 7 on it is adopted in place; optional
  // sections come back one prefix step at a time.
  for (uint32_t k = 0; k <= section_count_; ++k) {
    std::vector<size_t> cuts;
    if (k < section_count_) {
      cuts.push_back(section(k).first);
      if (section(k).second >= 2) cuts.push_back(section(k).first + section(k).second / 2);
    } else {
      cuts.push_back(section(k - 1).first + section(k - 1).second);  // footer torn off
    }
    for (size_t cut : cuts) {
      if (k < 6) {
        try {
          salvage_at(cut);
          FAIL() << "salvage succeeded with only " << k << " sections (cut " << cut << ")";
        } catch (const TraceFileError& e) {
          EXPECT_EQ(e.kind(), Kind::kTruncated) << e.what();
          EXPECT_NE(std::string(e.what()).find("torn beyond recovery"), std::string::npos);
        }
      } else {
        SCOPED_TRACE("cut " + std::to_string(cut) + " -> " + std::to_string(k) + " sections");
        expect_prefix_recovered(salvage_at(cut), k);
      }
    }
  }
}

TEST_F(TraceSalvage, CorruptClockSlabHealsByRecompute) {
  // A bit-flip inside the clock slab (not a tear): strict verified open
  // says kBadCrc; salvage stops its prefix walk at the damaged section and
  // rebuilds the clocks from the intact pre-clock six -- byte-identical to
  // the writer's, since clocks are a pure function of lengths + messages.
  std::vector<uint8_t> bytes = original_;
  bytes[section(6).first] ^= 0x01;
  write_file(path_, bytes);

  EXPECT_EQ(open_kind(path_, /*verify_sections=*/true), Kind::kBadCrc);

  TraceReadOptions opt;
  opt.salvage = true;
  opt.verify_section_crcs = true;
  const MappedTrace t = MappedTrace::open(path_, opt);
  expect_prefix_recovered(t, 6);
  EXPECT_TRUE(t.salvage_report().clocks_recomputed);
}

TEST_F(TraceSalvage, StructuralDamageStillThrows) {
  // Salvage targets tears and payload damage, not wrong-format files: the
  // leading header checks keep their strict rejection kinds.
  std::vector<uint8_t> bytes = original_;
  bytes[0] = 'X';
  write_file(path_, bytes);
  TraceReadOptions opt;
  opt.salvage = true;
  try {
    MappedTrace::open(path_, opt);
    FAIL() << "salvage accepted a bad magic";
  } catch (const TraceFileError& e) {
    EXPECT_EQ(e.kind(), Kind::kBadMagic);
  }
  // A tear inside the section table itself is beyond recovery.
  std::vector<uint8_t> torn(original_.begin(), original_.begin() + tracefile::kHeaderBytes + 8);
  write_file(path_, torn);
  try {
    MappedTrace::open(path_, opt);
    FAIL() << "salvage accepted a torn section table";
  } catch (const TraceFileError& e) {
    EXPECT_EQ(e.kind(), Kind::kTruncated);
  }
}

}  // namespace
}  // namespace predctrl
