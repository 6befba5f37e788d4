// Tablet blocks (§3.2, §3.5).
//
// An on-disk tablet is a sequence of rows sorted by primary key and grouped
// into blocks (64 kB of row data by default). Two block layouts exist,
// selected by the tablet's format version (see tablet_writer.h):
//
// Row-wise (tablet formats 0 and 1) — stored as:
//
//   fixed32 masked-CRC32C of the compressed payload
//   lzmini-compressed payload
//
// where the payload is:
//
//   row encodings back-to-back
//   fixed32 start offset of each row   (enables in-block binary search)
//   fixed32 row count
//
// Columnar (tablet format 2) — stored as:
//
//   fixed32 masked-CRC32C of the image
//   image:
//     varint32 row count
//     varint32 column count
//     chunk directory, one entry per column:
//       uint8    encoding            (ChunkEncoding, column_codec.h)
//       uint8    compression marker  (0 = raw, 1 = lzmini)
//       varint32 stored_len          (chunk bytes as stored in the image)
//       varint32 raw_len             (chunk bytes before compression)
//     chunk bytes back-to-back, in column order
//
// Each column of the block's rows is one independently encoded chunk,
// compressed by itself — or stored raw when lzmini would expand it (the
// marker byte) — so a reader can decode exactly the columns a query
// references and nothing else. Chunks decode lazily, on first touch, into
// the shared BlockContents; in-block binary search touches only key
// columns, and a projected scan never touches unreferenced columns at all.
//
// The per-tablet index stores the last key of every block, so a query
// binary-searches the index to find the relevant block and then
// binary-searches within the block to find the relevant row (§3.2).
#ifndef LITTLETABLE_CORE_BLOCK_H_
#define LITTLETABLE_CORE_BLOCK_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/column_codec.h"
#include "core/row_codec.h"
#include "core/schema.h"
#include "core/stats.h"

namespace lt {

/// Accumulates rows into one block payload. `format_version` < 2 produces
/// the row-wise payload; 2 produces the columnar image. Block sizing is by
/// uncompressed row-encoding bytes (data_bytes) in both modes, so the 64 kB
/// split point is format-independent.
class BlockBuilder {
 public:
  explicit BlockBuilder(const Schema* schema, uint32_t format_version = 0)
      : schema_(schema), format_version_(format_version) {}

  /// Appends a row. Rows must arrive in ascending key order.
  void Add(const Row& row);

  size_t num_rows() const { return num_rows_; }
  /// Bytes of row data so far (the 64 kB target applies to this).
  size_t data_bytes() const { return buffer_.size(); }
  bool empty() const { return num_rows_ == 0; }

  /// Completes the payload (row-wise) or image (columnar) and returns it;
  /// the builder resets for the next block.
  std::string Finish();

  /// Cumulative chunk bytes this builder stored raw vs. lzmini-compressed
  /// across all Finish calls (columnar mode only) — the per-table
  /// block_bytes_raw/compressed counters.
  uint64_t bytes_raw() const { return bytes_raw_; }
  uint64_t bytes_compressed() const { return bytes_compressed_; }

 private:
  std::string FinishColumnar();

  const Schema* schema_;
  uint32_t format_version_;
  std::string buffer_;
  std::vector<uint32_t> offsets_;
  // Columnar mode: per-column value accumulators (indexed like the schema).
  std::vector<ColumnValues> cols_;
  size_t num_rows_ = 0;
  uint64_t bytes_raw_ = 0;
  uint64_t bytes_compressed_ = 0;
};

/// A verified block payload — schema-free, so one BlockContents can be
/// shared (via the block cache) by every cursor reading the block, and can
/// outlive the TabletReader that produced it.
///
/// Row-wise blocks are fully decoded at Parse. Columnar blocks keep the
/// image and materialize one column per EnsureColumn call — thread-safe
/// (double-checked atomics under a decode mutex), with sticky errors, so
/// concurrent cursors sharing a cached block each pay at most one decode
/// per column. Not movable once parsed; always heap-allocate and share.
struct BlockContents {
  // ---- Row-wise state (tablet formats 0/1). ----
  std::string payload;            // Row payload, or the columnar image.
  std::vector<uint32_t> offsets;  // Start offset of each row in payload.
  size_t data_end = 0;            // Payload bytes before the offset trailer.

  // ---- Columnar state (tablet format 2). ----
  struct ChunkRef {
    uint8_t encoding;     // ChunkEncoding byte (validated).
    uint8_t compression;  // 0 = raw, 1 = lzmini.
    uint32_t offset;      // Chunk start within payload.
    uint32_t stored_len;
    uint32_t raw_len;
  };
  bool columnar = false;
  uint32_t columnar_rows = 0;
  std::vector<ChunkRef> chunks;

  /// Validates the trailer structure and indexes the rows (row-wise).
  static Status Parse(std::string payload, BlockContents* out);

  /// Validates a columnar image's chunk directory (bounds, encoding bytes,
  /// markers, exact coverage of the image) without decoding any chunk.
  static Status ParseColumnar(std::string image, BlockContents* out);

  size_t num_rows() const { return columnar ? columnar_rows : offsets.size(); }
  size_t num_columns() const { return chunks.size(); }

  /// Decompresses and decodes column `c` if this is the first touch;
  /// `*did_decode` (optional) reports whether this call did the work.
  /// Errors are sticky: a corrupt chunk fails every caller identically.
  Status EnsureColumn(size_t c, bool* did_decode = nullptr) const;

  /// The decoded values of column `c`. Only valid after EnsureColumn(c)
  /// returned OK.
  const ColumnValues& column(size_t c) const { return lazy_[c].values; }

  /// Heap footprint, the block-cache charge for this entry. For columnar
  /// blocks this is a stable upper bound that includes every chunk fully
  /// materialized, so lazy decodes never grow an entry past its charge.
  size_t ApproximateMemoryUsage() const;

 private:
  struct LazyCol {
    // 0 = not decoded, 1 = ready, 2 = failed.
    std::atomic<int> state{0};
    ColumnValues values;
    Status error;
  };
  // Array (not vector): atomics are neither movable nor copyable.
  std::unique_ptr<LazyCol[]> lazy_;
  mutable std::mutex decode_mu_;
  size_t approx_mem_ = 0;  // Columnar: fixed at Parse (see above).
};

/// Row access and in-block binary search over a (possibly shared)
/// BlockContents, interpreted under a schema. Copyable: copies share the
/// contents. The shared_ptr's deleter is how cache-resident blocks stay
/// pinned while a cursor is positioned in them.
class BlockReader {
 public:
  /// Parses `payload` (row-wise) into freshly owned contents.
  static Status Parse(const Schema* schema, std::string payload,
                      BlockReader* out);

  /// Parses a columnar `image` into freshly owned contents.
  static Status ParseColumnar(const Schema* schema, std::string image,
                              BlockReader* out);

  /// Points this reader at already-parsed contents (cache hits). `stats`
  /// (optional) receives column_chunks_decoded increments for lazy decodes
  /// this reader triggers; it must outlive the reader.
  void Reset(const Schema* schema,
             std::shared_ptr<const BlockContents> contents,
             TableStats* stats = nullptr) {
    schema_ = schema;
    contents_ = std::move(contents);
    stats_ = stats;
    resolved_ = 0;
  }

  /// Projection hint for columnar blocks: `needed` has one entry per schema
  /// column; rows materialize false entries as the column's default value
  /// without ever decoding the chunk. Key columns must be marked needed
  /// (seeks and merge ordering decode them regardless). Null (the default)
  /// materializes every column. Row-wise blocks decode whole rows and
  /// ignore the hint. The pointer must outlive the reader.
  void set_needed_columns(const std::vector<char>* needed) {
    needed_ = needed;
    resolved_ = 0;
  }

  size_t num_rows() const { return contents_ ? contents_->num_rows() : 0; }
  bool columnar() const { return contents_ && contents_->columnar; }
  const BlockContents* contents() const { return contents_.get(); }

  /// Decodes row i (rows are indexed in ascending key order).
  Status RowAt(size_t i, Row* out);

  /// Writes row i's sort key (core/sort_key.h) into *out, replacing its
  /// contents. A columnar block writes it straight from its decoded key
  /// arrays and builds no Value, failing wherever RowAt fails on a key
  /// cell: a short array, an int32 cell out of range, or an arm that does
  /// not match the column type is Corruption. Row-wise blocks decode only
  /// the leading key cells and encode them.
  Status SortKeyAt(size_t i, std::string* out);

  /// Appends row i's EncodeRow bytes under the reader's schema to *out —
  /// the same bytes as EncodeRow over RowAt(i), with the same errors, but
  /// a columnar block writes them straight from its decoded column arrays
  /// (resolved once per block) and builds no Row. Row-wise blocks decode
  /// and re-encode. On error *out is unchanged.
  Status AppendEncodedRow(size_t i, std::string* out);

  /// Index of the first row whose key-vs-prefix comparison is >= 0
  /// (`or_equal`) or > 0 (!`or_equal`); returns num_rows() if none.
  /// Used to position cursors at a query's minimum key bound.
  Status SeekFirst(const Key& prefix, bool or_equal, size_t* index);

 private:
  Status EnsureColumn(size_t c) const;

  /// One schema column of a columnar block, resolved for per-row access:
  /// its chunk decoded and its arm matched to the column type up front, so
  /// each row only indexes an array. A mismatch is kept, not returned, so
  /// a row fails at its first bad cell in column order, as it always did.
  struct ResolvedCol {
    enum class Kind : uint8_t { kInt, kInt32, kDouble, kBytes, kDefault,
                                kMismatch };
    Kind kind = Kind::kDefault;
    size_t rows = 0;  // Cells the decoded array holds.
    const int64_t* ints = nullptr;
    const double* dbls = nullptr;
    const char* bytes = nullptr;  // kBytes: ColumnValues::bytes and spans.
    const ColumnValues::Span* spans = nullptr;
    std::string default_bytes;  // kDefault: the column default, encoded.
    std::string default_key;    // kDefault key column: its sort key cell.

    Slice BytesAt(size_t i) const {
      return Slice(bytes + spans[i].offset, spans[i].length);
    }
  };
  /// Extends the resolution of the current columnar block to its first
  /// `n` columns: SortKeyAt needs the key columns, RowAt and AppendEncodedRow
  /// all of them.
  Status Resolve(size_t n);
  /// The typed cell of resolved column `c` at row `i`: the column default
  /// when unneeded; Corruption on a short array, an int32 cell out of
  /// range, or an arm that does not match the column type.
  Status CellAt(size_t c, size_t i, Value* out) const;

  const Schema* schema_ = nullptr;
  std::shared_ptr<const BlockContents> contents_;
  TableStats* stats_ = nullptr;
  const std::vector<char>* needed_ = nullptr;
  // Columns [0, resolved_) of cols_ describe contents_ under needed_;
  // Reset and set_needed_columns start over.
  std::vector<ResolvedCol> cols_;
  size_t resolved_ = 0;
  Row scratch_key_;  // SortKeyAt's key cells for row-wise blocks.
};

/// Compresses and frames a row-wise block payload (CRC + lzmini).
std::string StoreBlock(const std::string& payload);

/// Reverses StoreBlock; verifies the checksum.
Status LoadBlock(const Slice& stored, std::string* payload);

/// Frames a columnar image (CRC + image; chunks are already individually
/// compressed, so no whole-block pass).
std::string StoreBlockV2(const std::string& image);

/// Reverses StoreBlockV2; verifies the checksum.
Status LoadBlockV2(const Slice& stored, std::string* image);

}  // namespace lt

#endif  // LITTLETABLE_CORE_BLOCK_H_
