// Contiguous storage for all state vector clocks of one computation.
//
// The legacy layout was one heap-allocated std::vector<int32_t> per local
// state (vector<vector<VectorClock>>): three pointer hops per clock lookup
// and ~56 bytes of per-state overhead before the first component. Clock
// computation, the O(n^2 p^2) interval pair tests and every precedence
// query are memory-bound, so the clocks now live in a single int32_t slab
// of shape total_states x num_processes, rows ordered by (process, index):
//
//   row(p, k) = data + (proc_offset[p] + k) * num_processes
//
// Rows are handed out as ClockRow, a non-owning view with the same
// component accessors as VectorClock (and comparable against it), so
// existing call sites -- deposet.clock(s)[i], cc.clocks[p][k][i] -- keep
// compiling unchanged. A row view is invalidated by destroying or
// reassigning the owning ClockMatrix; nothing else moves the slab.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <ostream>
#include <span>
#include <vector>

#include "causality/ids.hpp"
#include "causality/vector_clock.hpp"
#include "util/check.hpp"

namespace predctrl {

/// Non-owning view of one state's clock row inside a ClockMatrix.
/// Cheap to copy; valid while the owning matrix is alive and unmodified.
class ClockRow {
 public:
  ClockRow() = default;
  ClockRow(const int32_t* data, int32_t width) : data_(data), width_(width) {}

  int32_t size() const { return width_; }
  int32_t operator[](ProcessId p) const { return data_[static_cast<size_t>(p)]; }
  const int32_t* data() const { return data_; }

  /// True iff every component of *this is <= the matching component of other.
  bool leq(const ClockRow& other) const {
    PREDCTRL_CHECK(other.width_ == width_, "comparing clocks of different widths");
    for (int32_t i = 0; i < width_; ++i)
      if (data_[i] > other.data_[i]) return false;
    return true;
  }

  /// Owning copy, for callers that must outlive the matrix.
  VectorClock to_vector_clock() const {
    VectorClock vc(width_);
    for (ProcessId i = 0; i < width_; ++i) vc[i] = data_[static_cast<size_t>(i)];
    return vc;
  }

  friend bool operator==(const ClockRow& a, const ClockRow& b) {
    if (a.width_ != b.width_) return false;
    for (int32_t i = 0; i < a.width_; ++i)
      if (a.data_[i] != b.data_[i]) return false;
    return true;
  }

  /// Mixed comparison so tests can EXPECT_EQ a recorded VectorClock against
  /// a matrix row (C++20 synthesizes the reversed candidate).
  friend bool operator==(const ClockRow& a, const VectorClock& b) {
    if (a.width_ != b.size()) return false;
    for (ProcessId i = 0; i < a.width_; ++i)
      if (a.data_[static_cast<size_t>(i)] != b[i]) return false;
    return true;
  }

  friend std::ostream& operator<<(std::ostream& os, const ClockRow& r) {
    os << '[';
    for (int32_t i = 0; i < r.width_; ++i) {
      if (i) os << ',';
      os << r.data_[i];
    }
    return os << ']';
  }

 private:
  const int32_t* data_ = nullptr;
  int32_t width_ = 0;
};

/// The slab: every state's clock in one contiguous buffer, indexed O(1).
///
/// Two storage modes share the same accessors:
///
///   * owning (the default): the slab is a private heap buffer, writable
///     through mutable_row -- what the clock engines build into;
///   * mapped (`adopt_mapped`): the slab is a read-only view of external
///     memory, typically an mmap'ed predctrl-trace-v1 file section
///     (trace/trace_file.hpp). No bytes are copied; the external memory
///     must outlive the matrix and every copy made of it. mutable_row is
///     a checked error in this mode.
class ClockMatrix {
 public:
  ClockMatrix() = default;

  /// Allocates rows for `lengths[p]` states per process, every component
  /// initialized to VectorClock::kNone.
  explicit ClockMatrix(const std::vector<int32_t>& lengths)
      : n_(static_cast<int32_t>(lengths.size())), offsets_(lengths.size() + 1, 0) {
    for (size_t p = 0; p < lengths.size(); ++p) {
      PREDCTRL_CHECK(lengths[p] >= 0, "negative process length");
      offsets_[p + 1] = offsets_[p] + static_cast<size_t>(lengths[p]);
    }
    data_.assign(offsets_.back() * static_cast<size_t>(n_), VectorClock::kNone);
    view_ = data_.data();
  }

  /// Adopts `slab` (total_states x lengths.size() int32 components, rows in
  /// (process, index) order) as a read-only view -- the zero-parse open
  /// path. The slab is NOT copied and must stay alive and unmodified for
  /// the life of this matrix and its copies.
  static ClockMatrix adopt_mapped(const std::vector<int32_t>& lengths,
                                  const int32_t* slab) {
    ClockMatrix m;
    m.n_ = static_cast<int32_t>(lengths.size());
    m.offsets_.assign(lengths.size() + 1, 0);
    for (size_t p = 0; p < lengths.size(); ++p) {
      PREDCTRL_CHECK(lengths[p] >= 0, "negative process length");
      m.offsets_[p + 1] = m.offsets_[p] + static_cast<size_t>(lengths[p]);
    }
    PREDCTRL_CHECK(slab != nullptr || m.offsets_.back() == 0,
                   "null slab for a non-empty mapped clock matrix");
    m.view_ = slab;
    m.mapped_ = true;
    return m;
  }

  /// True when the slab is an adopted external view (see adopt_mapped).
  bool mapped() const { return mapped_; }

  // The owning copy re-points the view at the fresh buffer; the mapped copy
  // shares the external slab (both stay valid views of the same file).
  ClockMatrix(const ClockMatrix& other)
      : n_(other.n_), offsets_(other.offsets_), data_(other.data_),
        view_(other.mapped_ ? other.view_ : data_.data()), mapped_(other.mapped_) {}
  ClockMatrix& operator=(const ClockMatrix& other) {
    if (this != &other) {
      ClockMatrix tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }
  // Moving a vector transfers its buffer, so the stolen view pointer stays
  // valid in both modes; the source is left empty.
  ClockMatrix(ClockMatrix&& other) noexcept
      : n_(other.n_), offsets_(std::move(other.offsets_)), data_(std::move(other.data_)),
        view_(other.view_), mapped_(other.mapped_) {
    other.clear();
  }
  ClockMatrix& operator=(ClockMatrix&& other) noexcept {
    if (this != &other) {
      n_ = other.n_;
      offsets_ = std::move(other.offsets_);
      data_ = std::move(other.data_);
      view_ = other.view_;
      mapped_ = other.mapped_;
      other.clear();
    }
    return *this;
  }

  int32_t num_processes() const { return n_; }
  int64_t total_states() const {
    return offsets_.empty() ? 0 : static_cast<int64_t>(offsets_.back());
  }
  bool empty() const { return data_.empty(); }

  /// Number of states of process p (derived from the row offsets).
  int32_t length(ProcessId p) const {
    return static_cast<int32_t>(offsets_[static_cast<size_t>(p) + 1] -
                                offsets_[static_cast<size_t>(p)]);
  }

  /// Flat row index of state s in (process, index) lexicographic order.
  size_t flat_index(StateId s) const {
    return offsets_[static_cast<size_t>(s.process)] + static_cast<size_t>(s.index);
  }

  ClockRow row(StateId s) const { return {row_data(s), n_}; }
  const int32_t* row_data(StateId s) const {
    return view_ + flat_index(s) * static_cast<size_t>(n_);
  }
  int32_t* mutable_row(StateId s) {
    PREDCTRL_CHECK(!mapped_, "a mapped clock matrix is read-only");
    return data_.data() + flat_index(s) * static_cast<size_t>(n_);
  }

  /// Single component load, no view construction: clock(s)[i].
  int32_t component(StateId s, ProcessId i) const {
    return view_[flat_index(s) * static_cast<size_t>(n_) + static_cast<size_t>(i)];
  }

  /// The whole slab as one contiguous component span (serialization, bulk
  /// parity checks): total_states * num_processes int32 values.
  std::span<const int32_t> slab() const {
    return {view_, static_cast<size_t>(total_states()) * static_cast<size_t>(n_)};
  }

  /// Releases the slab (the cyclic-relation result carries no clocks).
  void clear() {
    data_.clear();
    offsets_.clear();
    n_ = 0;
    view_ = nullptr;
    mapped_ = false;
  }

  /// Indexing shim so legacy clocks[p][k][i] call sites keep compiling:
  /// matrix[p] yields a proxy whose operator[](k) is the row view.
  class ProcessRows {
   public:
    ProcessRows(const ClockMatrix* m, ProcessId p) : m_(m), p_(p) {}
    ClockRow operator[](int32_t k) const { return m_->row({p_, k}); }

   private:
    const ClockMatrix* m_;
    ProcessId p_;
  };
  ProcessRows operator[](ProcessId p) const { return {this, p}; }

  /// Content equality (shape + every component), independent of storage
  /// mode -- a mapped matrix equals the owning matrix it was saved from.
  friend bool operator==(const ClockMatrix& a, const ClockMatrix& b) {
    if (a.n_ != b.n_ || a.offsets_ != b.offsets_) return false;
    const std::span<const int32_t> sa = a.slab();
    const std::span<const int32_t> sb = b.slab();
    return std::equal(sa.begin(), sa.end(), sb.begin(), sb.end());
  }

  friend std::ostream& operator<<(std::ostream& os, const ClockMatrix& m) {
    os << "ClockMatrix{" << m.total_states() << "x" << m.n_ << "}";
    return os;
  }

 private:
  int32_t n_ = 0;
  std::vector<size_t> offsets_;  // per-process first flat row, size n+1
  std::vector<int32_t> data_;    // owning mode: total_states * n components
  /// All reads go through view_: data_.data() in owning mode, the adopted
  /// external slab in mapped mode -- no per-access branch either way.
  const int32_t* view_ = nullptr;
  bool mapped_ = false;
};

/// Component-wise max of `src` into `dst` (the clock-lattice join on raw
/// rows); the merge kernel of clock computation, shared by the offline
/// Kahn pass and the online append path.
inline void clock_row_merge(int32_t* dst, const int32_t* src, int32_t width) {
  for (int32_t i = 0; i < width; ++i)
    if (src[i] > dst[i]) dst[i] = src[i];
}

/// 64-byte-aligned int32 buffer for chunked row arenas: aligning every chunk
/// to a cache-line boundary keeps rows from straddling a line across an
/// allocation boundary. NOTE: unlike std::make_unique<int32_t[]>, the raw
/// aligned allocation is NOT zero-initialized -- every consumer below fully
/// writes a row before any read of it.
struct AlignedIntDelete {
  void operator()(int32_t* p) const noexcept {
    ::operator delete[](static_cast<void*>(p), std::align_val_t{64});
  }
};
using AlignedIntBuffer = std::unique_ptr<int32_t[], AlignedIntDelete>;
inline AlignedIntBuffer aligned_int_buffer(size_t ints) {
  return AlignedIntBuffer(static_cast<int32_t*>(
      ::operator new[](ints * sizeof(int32_t), std::align_val_t{64})));
}

/// Appendable causal-knowledge slab for computations that grow state by
/// state: the online half of the memory-layout migration.
///
/// ClockMatrix needs every process length up front; the online path (the
/// scripted runtime, the live WCP detector) learns states one at a time.
/// AppendableClockMatrix stores each process's rows in fixed-size chunks
/// (rows_per_chunk rows of num_processes components each); appending never
/// moves an existing row, so the ClockRow views it hands out are STABLE for
/// the life of the matrix -- unlike ClockMatrix, whose slab is fixed but
/// whose owner may be reassigned, nothing here invalidates short of
/// destroying (or move-assigning over) the matrix itself.
///
/// append_row is the online clock step made explicit: the new row is the
/// merge of the process's previous row (all kNone for the initial state)
/// and any received rows, with the own component set to the new index --
/// exactly the value the offline engines compute for that state, one
/// in-place row write per state, no per-state heap allocation.
class AppendableClockMatrix {
 public:
  static constexpr int32_t kDefaultRowsPerChunk = 256;

  AppendableClockMatrix() = default;
  explicit AppendableClockMatrix(int32_t num_processes,
                                 int32_t rows_per_chunk = kDefaultRowsPerChunk)
      : n_(num_processes), rows_per_chunk_(rows_per_chunk),
        chunks_(static_cast<size_t>(num_processes)),
        lengths_(static_cast<size_t>(num_processes), 0) {
    PREDCTRL_CHECK(num_processes >= 0, "negative process count");
    PREDCTRL_CHECK(rows_per_chunk >= 1, "a chunk must hold at least one row");
  }

  AppendableClockMatrix(AppendableClockMatrix&&) = default;
  AppendableClockMatrix& operator=(AppendableClockMatrix&&) = default;

  /// Deep copy (tests and result aggregates copy freely; the copied rows
  /// are a fresh arena, so views into the source stay bound to the source).
  AppendableClockMatrix(const AppendableClockMatrix& other)
      : n_(other.n_), rows_per_chunk_(other.rows_per_chunk_),
        chunks_(other.chunks_.size()), lengths_(other.lengths_) {
    const size_t chunk_ints =
        static_cast<size_t>(rows_per_chunk_) * static_cast<size_t>(n_);
    for (size_t p = 0; p < other.chunks_.size(); ++p) {
      chunks_[p].reserve(other.chunks_[p].size());
      for (const auto& chunk : other.chunks_[p]) {
        chunks_[p].push_back(aligned_int_buffer(chunk_ints));
        // memcpy, not element copy: the tail of a partially filled chunk is
        // uninitialized (aligned chunks are raw storage), and byte copies
        // of indeterminate storage are well-defined where reads are not.
        std::memcpy(chunks_[p].back().get(), chunk.get(), chunk_ints * sizeof(int32_t));
      }
    }
  }
  AppendableClockMatrix& operator=(const AppendableClockMatrix& other) {
    if (this != &other) *this = AppendableClockMatrix(other);
    return *this;
  }

  int32_t num_processes() const { return n_; }
  int32_t rows_per_chunk() const { return rows_per_chunk_; }
  int32_t length(ProcessId p) const { return lengths_[static_cast<size_t>(p)]; }
  int64_t total_states() const {
    int64_t total = 0;
    for (int32_t len : lengths_) total += len;
    return total;
  }
  bool empty() const { return total_states() == 0; }

  ClockRow row(StateId s) const { return {row_data(s), n_}; }
  const int32_t* row_data(StateId s) const {
    PREDCTRL_CHECK(s.index >= 0 && s.index < length(s.process),
                   "appendable clock row out of range");
    return chunk_row(s.process, s.index);
  }

  /// Single component load, no view construction: clock(s)[i].
  int32_t component(StateId s, ProcessId i) const {
    return row_data(s)[static_cast<size_t>(i)];
  }

  /// Appends the clock row of process p's next state (index = length(p)):
  /// the merge of p's previous row (all kNone for the initial state) and
  /// every row in `received`, with the own component set to the new index.
  /// Returns a stable view of the new row.
  ClockRow append_row(ProcessId p, std::span<const ClockRow> received = {}) {
    int32_t* dst = allocate_row(p);
    const int32_t k = lengths_[static_cast<size_t>(p)];
    if (k > 0) {
      const int32_t* pred = chunk_row(p, k - 1);
      std::copy(pred, pred + n_, dst);
    } else {
      std::fill(dst, dst + n_, VectorClock::kNone);
    }
    for (const ClockRow& r : received) {
      PREDCTRL_CHECK(r.size() == n_, "received clock of wrong width");
      clock_row_merge(dst, r.data(), n_);
    }
    dst[static_cast<size_t>(p)] = k;
    lengths_[static_cast<size_t>(p)] = k + 1;
    return {dst, n_};
  }

  /// Appends a verbatim copy of `src` (width num_processes) as process p's
  /// next row -- for rows captured off the wire (piggybacked clocks) whose
  /// value is already final. Returns a stable view of the new row.
  ClockRow append_row_copy(ProcessId p, const int32_t* src) {
    int32_t* dst = allocate_row(p);
    std::copy(src, src + n_, dst);
    ++lengths_[static_cast<size_t>(p)];
    return {dst, n_};
  }

  /// Compacts into a batch ClockMatrix (rows in (process, index) flat
  /// order) -- the one copy at the online -> offline boundary, where a
  /// finished run hands its causal knowledge to Deposet/PackedIntervals.
  ClockMatrix to_matrix() const {
    ClockMatrix m(lengths_);
    for (ProcessId p = 0; p < n_; ++p)
      for (int32_t k = 0; k < length(p); ++k) {
        const int32_t* src = chunk_row(p, k);
        std::copy(src, src + n_, m.mutable_row({p, k}));
      }
    return m;
  }

  /// Indexing shim mirroring ClockMatrix: clocks[p][k] is the row view.
  class ProcessRows {
   public:
    ProcessRows(const AppendableClockMatrix* m, ProcessId p) : m_(m), p_(p) {}
    ClockRow operator[](int32_t k) const { return m_->row({p_, k}); }

   private:
    const AppendableClockMatrix* m_;
    ProcessId p_;
  };
  ProcessRows operator[](ProcessId p) const { return {this, p}; }

  /// Row-for-row equality against a batch matrix (parity oracles).
  friend bool operator==(const AppendableClockMatrix& a, const ClockMatrix& b) {
    if (a.n_ != b.num_processes()) return false;
    for (ProcessId p = 0; p < a.n_; ++p) {
      if (a.length(p) != b.length(p)) return false;
      for (int32_t k = 0; k < a.length(p); ++k)
        if (!(a.row({p, k}) == b.row({p, k}))) return false;
    }
    return true;
  }

  friend std::ostream& operator<<(std::ostream& os, const AppendableClockMatrix& m) {
    os << "AppendableClockMatrix{" << m.total_states() << "x" << m.n_ << "}";
    return os;
  }

 private:
  int32_t* allocate_row(ProcessId p) {
    PREDCTRL_CHECK(p >= 0 && p < n_, "process id out of range");
    auto& chunks = chunks_[static_cast<size_t>(p)];
    const int32_t k = lengths_[static_cast<size_t>(p)];
    if (k == static_cast<int32_t>(chunks.size()) * rows_per_chunk_)
      chunks.push_back(aligned_int_buffer(static_cast<size_t>(rows_per_chunk_) *
                                          static_cast<size_t>(n_)));
    return chunk_row_mutable(p, k);
  }

  int32_t* chunk_row_mutable(ProcessId p, int32_t k) const {
    return chunks_[static_cast<size_t>(p)][static_cast<size_t>(k / rows_per_chunk_)]
               .get() +
           static_cast<size_t>(k % rows_per_chunk_) * static_cast<size_t>(n_);
  }
  const int32_t* chunk_row(ProcessId p, int32_t k) const {
    return chunk_row_mutable(p, k);
  }

  int32_t n_ = 0;
  int32_t rows_per_chunk_ = kDefaultRowsPerChunk;
  /// chunks_[p] is process p's arena: fixed-capacity 64-byte-aligned chunks
  /// of rows_per_chunk_ rows, addresses stable across appends. Alignment
  /// keeps adjacent processes' chunks off shared cache lines (the online
  /// detector appends per-process rows from interleaved deliveries).
  std::vector<std::vector<AlignedIntBuffer>> chunks_;
  std::vector<int32_t> lengths_;
};

}  // namespace predctrl
