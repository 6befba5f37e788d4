#include "core/block.h"

#include <cstring>

#include "core/sort_key.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/lzmini.h"

namespace lt {

namespace {

// Defensive caps for directory fields. Real blocks hold ~64 kB of row data,
// so both are far above anything a writer produces; they exist to bound
// allocations when a fuzzer (or a disk) hands ParseColumnar garbage.
constexpr uint32_t kMaxBlockRows = 1u << 22;
constexpr uint32_t kMaxBlockColumns = 1u << 12;
constexpr uint32_t kMaxChunkRawLen = 1u << 26;
static_assert(kMaxChunkRawLen == kMaxDictBytes);

// Per-row headroom in the cache charge of a bytes column for what a
// front-coded dictionary expands to beyond its raw chunk bytes.
constexpr size_t kDictHeadroomPerRow = 32;

}  // namespace

void BlockBuilder::Add(const Row& row) {
  offsets_.push_back(static_cast<uint32_t>(buffer_.size()));
  EncodeRow(&buffer_, *schema_, row);
  num_rows_++;
  if (format_version_ < 2) return;

  if (cols_.empty()) {
    cols_.resize(schema_->num_columns());
    for (size_t c = 0; c < cols_.size(); c++) {
      switch (schema_->columns()[c].type) {
        case ColumnType::kInt32:
        case ColumnType::kInt64:
        case ColumnType::kTimestamp:
          cols_[c].arm = ColumnValues::Arm::kInt;
          break;
        case ColumnType::kDouble:
          cols_[c].arm = ColumnValues::Arm::kDouble;
          break;
        case ColumnType::kString:
        case ColumnType::kBlob:
          cols_[c].arm = ColumnValues::Arm::kBytes;
          break;
      }
    }
  }
  for (size_t c = 0; c < cols_.size(); c++) {
    const Value& v = row[c];
    switch (cols_[c].arm) {
      case ColumnValues::Arm::kInt:
        cols_[c].ints.push_back(v.AsInt());
        break;
      case ColumnValues::Arm::kDouble:
        cols_[c].dbls.push_back(v.dbl());
        break;
      case ColumnValues::Arm::kBytes:
        cols_[c].AppendBytes(v.bytes());
        break;
      case ColumnValues::Arm::kNone:
        break;
    }
  }
}

std::string BlockBuilder::Finish() {
  if (format_version_ >= 2) return FinishColumnar();
  for (uint32_t off : offsets_) PutFixed32(&buffer_, off);
  PutFixed32(&buffer_, static_cast<uint32_t>(offsets_.size()));
  std::string out = std::move(buffer_);
  buffer_.clear();
  offsets_.clear();
  num_rows_ = 0;
  return out;
}

std::string BlockBuilder::FinishColumnar() {
  const size_t ncols = cols_.size();
  std::vector<std::string> stored(ncols);
  std::vector<uint8_t> encodings(ncols), markers(ncols);
  std::vector<uint32_t> raw_lens(ncols);
  for (size_t c = 0; c < ncols; c++) {
    std::string chunk;
    switch (cols_[c].arm) {
      case ColumnValues::Arm::kInt: {
        ChunkEncoding enc = ChooseIntEncoding(cols_[c].ints);
        EncodeIntChunk(cols_[c].ints, enc, &chunk);
        encodings[c] = static_cast<uint8_t>(enc);
        break;
      }
      case ColumnValues::Arm::kDouble:
        EncodeDoubleChunk(cols_[c].dbls, &chunk);
        encodings[c] = static_cast<uint8_t>(ChunkEncoding::kXor);
        break;
      case ColumnValues::Arm::kBytes: {
        ChunkEncoding enc = ChooseBytesEncoding(cols_[c]);
        EncodeBytesChunk(cols_[c], enc, &chunk);
        encodings[c] = static_cast<uint8_t>(enc);
        break;
      }
      case ColumnValues::Arm::kNone:
        encodings[c] = static_cast<uint8_t>(ChunkEncoding::kZigZag);
        break;
    }
    raw_lens[c] = static_cast<uint32_t>(chunk.size());
    std::string compressed;
    lzmini::Compress(chunk, &compressed);
    if (compressed.size() < chunk.size()) {
      markers[c] = 1;
      bytes_compressed_ += compressed.size();
      stored[c] = std::move(compressed);
    } else {
      markers[c] = 0;
      bytes_raw_ += chunk.size();
      stored[c] = std::move(chunk);
    }
  }

  std::string image;
  PutVarint32(&image, static_cast<uint32_t>(num_rows_));
  PutVarint32(&image, static_cast<uint32_t>(ncols));
  for (size_t c = 0; c < ncols; c++) {
    image.push_back(static_cast<char>(encodings[c]));
    image.push_back(static_cast<char>(markers[c]));
    PutVarint32(&image, static_cast<uint32_t>(stored[c].size()));
    PutVarint32(&image, raw_lens[c]);
  }
  for (size_t c = 0; c < ncols; c++) image += stored[c];

  buffer_.clear();
  offsets_.clear();
  cols_.clear();
  num_rows_ = 0;
  return image;
}

Status BlockContents::Parse(std::string in, BlockContents* out) {
  if (in.size() < 4) return Status::Corruption("block too small");
  uint32_t count = DecodeFixed32(in.data() + in.size() - 4);
  uint64_t trailer = 4ull + 4ull * count;
  if (trailer > in.size()) {
    return Status::Corruption("block row count exceeds payload");
  }
  out->payload = std::move(in);
  out->data_end = out->payload.size() - trailer;
  out->offsets.resize(count);
  const char* p = out->payload.data() + out->data_end;
  for (uint32_t i = 0; i < count; i++) {
    out->offsets[i] = DecodeFixed32(p + 4ull * i);
    if (out->offsets[i] > out->data_end ||
        (i > 0 && out->offsets[i] < out->offsets[i - 1])) {
      return Status::Corruption("block offsets not monotone");
    }
  }
  return Status::OK();
}

Status BlockContents::ParseColumnar(std::string image, BlockContents* out) {
  Slice in(image);
  uint32_t nrows, ncols;
  if (!GetVarint32(&in, &nrows) || !GetVarint32(&in, &ncols)) {
    return Status::Corruption("columnar block header truncated");
  }
  if (nrows > kMaxBlockRows || ncols > kMaxBlockColumns) {
    return Status::Corruption("columnar block header out of range");
  }
  std::vector<ChunkRef> chunks;
  chunks.reserve(ncols);
  uint64_t total_stored = 0;
  // Fully materialized columns: 8 B per row (an int, a double or a bytes
  // span) plus the raw chunk bytes, which bound a plain-bytes buffer, plus
  // dictionary headroom for bytes columns (DESIGN.md §6).
  size_t decoded_bound = 0;
  for (uint32_t c = 0; c < ncols; c++) {
    if (in.size() < 2) return Status::Corruption("chunk directory truncated");
    ChunkRef ref;
    ref.encoding = static_cast<uint8_t>(in[0]);
    ref.compression = static_cast<uint8_t>(in[1]);
    in.remove_prefix(2);
    if (!IsValidChunkEncoding(ref.encoding)) {
      return Status::Corruption("unknown chunk encoding");
    }
    if (ref.compression > 1) {
      return Status::Corruption("unknown chunk compression marker");
    }
    if (!GetVarint32(&in, &ref.stored_len) ||
        !GetVarint32(&in, &ref.raw_len)) {
      return Status::Corruption("chunk directory truncated");
    }
    if (ref.raw_len > kMaxChunkRawLen || ref.stored_len > kMaxChunkRawLen) {
      return Status::Corruption("chunk length out of range");
    }
    if (ref.compression == 0 && ref.stored_len != ref.raw_len) {
      return Status::Corruption("raw chunk length mismatch");
    }
    total_stored += ref.stored_len;
    decoded_bound += ref.raw_len + 8ull * nrows +
                     (ref.encoding >= static_cast<uint8_t>(ChunkEncoding::kDict)
                          ? kDictHeadroomPerRow * nrows
                          : 0);
    chunks.push_back(ref);
  }
  if (total_stored != in.size()) {
    return Status::Corruption("chunk bytes do not cover block image");
  }
  // Assign offsets relative to the image start now that the directory size
  // is known.
  uint32_t offset = static_cast<uint32_t>(in.data() - image.data());
  for (ChunkRef& ref : chunks) {
    ref.offset = offset;
    offset += ref.stored_len;
  }
  out->payload = std::move(image);
  out->columnar = true;
  out->columnar_rows = nrows;
  out->chunks = std::move(chunks);
  out->lazy_ = std::make_unique<LazyCol[]>(ncols);
  out->approx_mem_ = sizeof(*out) + out->payload.capacity() +
                     out->chunks.capacity() * sizeof(ChunkRef) +
                     ncols * sizeof(LazyCol) + decoded_bound;
  return Status::OK();
}

Status BlockContents::EnsureColumn(size_t c, bool* did_decode) const {
  if (did_decode) *did_decode = false;
  if (!columnar || c >= chunks.size()) {
    return Status::InvalidArgument("not a columnar block column");
  }
  LazyCol& lc = lazy_[c];
  int state = lc.state.load(std::memory_order_acquire);
  if (state == 1) return Status::OK();
  if (state == 2) return lc.error;

  std::lock_guard<std::mutex> lock(decode_mu_);
  state = lc.state.load(std::memory_order_relaxed);
  if (state == 1) return Status::OK();
  if (state == 2) return lc.error;

  const ChunkRef& ref = chunks[c];
  Slice raw(payload.data() + ref.offset, ref.stored_len);
  std::string scratch;
  Status s;
  if (ref.compression == 1) {
    s = lzmini::Decompress(raw, &scratch);
    if (s.ok() && scratch.size() != ref.raw_len) {
      s = Status::Corruption("chunk raw length mismatch");
    }
    raw = Slice(scratch);
  }
  if (s.ok()) {
    s = DecodeChunk(raw, static_cast<ChunkEncoding>(ref.encoding),
                    columnar_rows, &lc.values);
  }
  if (s.ok()) {
    if (did_decode) *did_decode = true;
    lc.state.store(1, std::memory_order_release);
    return s;
  }
  lc.error = s;
  lc.state.store(2, std::memory_order_release);
  return s;
}

size_t BlockContents::ApproximateMemoryUsage() const {
  if (columnar) return approx_mem_;
  return sizeof(*this) + payload.capacity() +
         offsets.capacity() * sizeof(uint32_t);
}

Status BlockReader::Parse(const Schema* schema, std::string payload,
                          BlockReader* out) {
  auto contents = std::make_shared<BlockContents>();
  LT_RETURN_IF_ERROR(BlockContents::Parse(std::move(payload), contents.get()));
  out->Reset(schema, std::move(contents));
  return Status::OK();
}

Status BlockReader::ParseColumnar(const Schema* schema, std::string image,
                                  BlockReader* out) {
  auto contents = std::make_shared<BlockContents>();
  LT_RETURN_IF_ERROR(
      BlockContents::ParseColumnar(std::move(image), contents.get()));
  out->Reset(schema, std::move(contents));
  return Status::OK();
}

Status BlockReader::EnsureColumn(size_t c) const {
  bool did_decode = false;
  LT_RETURN_IF_ERROR(contents_->EnsureColumn(c, &did_decode));
  if (did_decode && stats_) {
    stats_->column_chunks_decoded.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status BlockReader::CellAt(size_t c, size_t i, Value* out) const {
  const ResolvedCol& r = cols_[c];
  if (r.kind == ResolvedCol::Kind::kDefault) {
    *out = schema_->columns()[c].default_value;
    return Status::OK();
  }
  if (i >= r.rows) return Status::Corruption("chunk row count mismatch");
  switch (r.kind) {
    case ResolvedCol::Kind::kInt:
      *out = Value::Int64(r.ints[i]);
      return Status::OK();
    case ResolvedCol::Kind::kInt32:
      if (r.ints[i] < INT32_MIN || r.ints[i] > INT32_MAX) {
        return Status::Corruption("int32 cell out of range");
      }
      *out = Value::Int32(static_cast<int32_t>(r.ints[i]));
      return Status::OK();
    case ResolvedCol::Kind::kDouble:
      *out = Value::Double(r.dbls[i]);
      return Status::OK();
    case ResolvedCol::Kind::kBytes:
      *out = Value::String(r.BytesAt(i).ToString());
      return Status::OK();
    case ResolvedCol::Kind::kDefault:
    case ResolvedCol::Kind::kMismatch:
      break;
  }
  return Status::Corruption("chunk encoding does not match column type");
}

Status BlockReader::RowAt(size_t i, Row* out) {
  if (!contents_ || i >= contents_->num_rows()) {
    return Status::InvalidArgument("row index");
  }
  const BlockContents& c = *contents_;
  if (!c.columnar) {
    size_t end = i + 1 < c.offsets.size() ? c.offsets[i + 1] : c.data_end;
    Slice in(c.payload.data() + c.offsets[i], end - c.offsets[i]);
    return DecodeRow(&in, *schema_, out);
  }
  const size_t ncols = schema_->num_columns();
  if (resolved_ < ncols) LT_RETURN_IF_ERROR(Resolve(ncols));
  out->resize(ncols);
  for (size_t col = 0; col < ncols; col++) {
    LT_RETURN_IF_ERROR(CellAt(col, i, &(*out)[col]));
  }
  return Status::OK();
}

Status BlockReader::Resolve(size_t n) {
  const BlockContents& bc = *contents_;
  if (bc.num_columns() != schema_->num_columns()) {
    return Status::Corruption("chunk count does not match schema");
  }
  cols_.resize(bc.num_columns());
  for (; resolved_ < n; resolved_++) {
    const size_t c = resolved_;
    const Column& column = schema_->columns()[c];
    ResolvedCol& r = cols_[c];
    if (needed_ && !(*needed_)[c]) {
      r.kind = ResolvedCol::Kind::kDefault;
      r.default_bytes.clear();
      EncodeValue(&r.default_bytes, column.default_value, column.type);
      r.default_key.clear();
      if (c < schema_->num_key_columns()) {
        AppendSortKeyCell(&r.default_key, column.default_value);
      }
      continue;
    }
    LT_RETURN_IF_ERROR(EnsureColumn(c));
    const ColumnValues& col = bc.column(c);
    r.rows = col.size();
    r.kind = ResolvedCol::Kind::kMismatch;
    switch (col.arm) {
      case ColumnValues::Arm::kInt:
        r.ints = col.ints.data();
        if (column.type == ColumnType::kInt32) {
          r.kind = ResolvedCol::Kind::kInt32;
        } else if (column.type == ColumnType::kInt64 ||
                   column.type == ColumnType::kTimestamp) {
          r.kind = ResolvedCol::Kind::kInt;
        }
        break;
      case ColumnValues::Arm::kDouble:
        r.dbls = col.dbls.data();
        if (column.type == ColumnType::kDouble) {
          r.kind = ResolvedCol::Kind::kDouble;
        }
        break;
      case ColumnValues::Arm::kBytes:
        r.bytes = col.bytes.data();
        r.spans = col.spans.data();
        if (column.type == ColumnType::kString ||
            column.type == ColumnType::kBlob) {
          r.kind = ResolvedCol::Kind::kBytes;
        }
        break;
      case ColumnValues::Arm::kNone:
        break;
    }
  }
  return Status::OK();
}

Status BlockReader::SortKeyAt(size_t i, std::string* out) {
  if (!contents_ || i >= contents_->num_rows()) {
    return Status::InvalidArgument("row index");
  }
  const BlockContents& bc = *contents_;
  const size_t nkeys = schema_->num_key_columns();
  if (!bc.columnar) {
    // Key columns lead the row encoding, so only they are decoded.
    Slice in(bc.payload.data() + bc.offsets[i],
             (i + 1 < bc.offsets.size() ? bc.offsets[i + 1] : bc.data_end) -
                 bc.offsets[i]);
    scratch_key_.clear();
    for (size_t c = 0; c < nkeys; c++) {
      LT_RETURN_IF_ERROR(
          DecodeCellInto(&in, schema_->columns()[c].type, &scratch_key_));
    }
    out->clear();
    EncodeSortKey(out, *schema_, scratch_key_);
    return Status::OK();
  }
  if (resolved_ < nkeys) LT_RETURN_IF_ERROR(Resolve(nkeys));
  // Each cell is written as AppendSortKeyCell would write the Value that
  // CellAt builds, and fails where CellAt fails.
  size_t bound = 0;
  for (size_t c = 0; c < nkeys; c++) {
    const ResolvedCol& r = cols_[c];
    if (r.kind == ResolvedCol::Kind::kDefault) {
      bound += r.default_key.size();
    } else if (r.kind == ResolvedCol::Kind::kBytes && i < r.rows) {
      bound += MaxSortKeyBytesLen(r.spans[i].length);
    } else {
      bound += kSortKeyWordBytes;
    }
  }
  out->resize(bound);
  char* p = out->data();
  for (size_t c = 0; c < nkeys; c++) {
    const ResolvedCol& r = cols_[c];
    if (r.kind == ResolvedCol::Kind::kDefault) {
      memcpy(p, r.default_key.data(), r.default_key.size());
      p += r.default_key.size();
      continue;
    }
    if (i >= r.rows) return Status::Corruption("chunk row count mismatch");
    switch (r.kind) {
      case ResolvedCol::Kind::kInt:
        p = PutSortKeyInt(p, r.ints[i]);
        break;
      case ResolvedCol::Kind::kInt32:
        if (r.ints[i] < INT32_MIN || r.ints[i] > INT32_MAX) {
          return Status::Corruption("int32 cell out of range");
        }
        p = PutSortKeyInt(p, r.ints[i]);
        break;
      case ResolvedCol::Kind::kDouble:
        p = PutSortKeyDouble(p, r.dbls[i]);
        break;
      case ResolvedCol::Kind::kBytes:
        p = PutSortKeyBytes(p, r.BytesAt(i));
        break;
      case ResolvedCol::Kind::kDefault:
        break;
      case ResolvedCol::Kind::kMismatch:
        return Status::Corruption("chunk encoding does not match column type");
    }
  }
  out->resize(static_cast<size_t>(p - out->data()));
  return Status::OK();
}

Status BlockReader::AppendEncodedRow(size_t i, std::string* out) {
  if (!contents_ || i >= contents_->num_rows()) {
    return Status::InvalidArgument("row index");
  }
  if (!contents_->columnar) {
    Row row;
    LT_RETURN_IF_ERROR(RowAt(i, &row));
    EncodeRow(out, *schema_, row);
    return Status::OK();
  }
  if (resolved_ < schema_->num_columns()) {
    LT_RETURN_IF_ERROR(Resolve(schema_->num_columns()));
  }
  // Each cell is written exactly as EncodeValue would write the Value
  // that CellAt builds, and fails where CellAt fails. The row's worst-case
  // size is reserved once and the cells are written in place, then the
  // string is trimmed: one resize per row instead of an append per cell.
  size_t bound = 0;
  for (const ResolvedCol& r : cols_) {
    if (r.kind == ResolvedCol::Kind::kDefault) {
      bound += r.default_bytes.size();
    } else if (r.kind == ResolvedCol::Kind::kBytes && i < r.rows) {
      bound += 10 + r.spans[i].length;
    } else {
      bound += 10;
    }
  }
  const size_t start = out->size();
  out->resize(start + bound);
  char* p = out->data() + start;
  auto fail = [&](const char* msg) {
    out->resize(start);
    return Status::Corruption(msg);
  };
  for (const ResolvedCol& r : cols_) {
    if (r.kind == ResolvedCol::Kind::kDefault) {
      memcpy(p, r.default_bytes.data(), r.default_bytes.size());
      p += r.default_bytes.size();
      continue;
    }
    if (i >= r.rows) return fail("chunk row count mismatch");
    switch (r.kind) {
      case ResolvedCol::Kind::kInt:
        p = EncodeVarint64(p, ZigZagEncode(r.ints[i]));
        break;
      case ResolvedCol::Kind::kInt32:
        if (r.ints[i] < INT32_MIN || r.ints[i] > INT32_MAX) {
          return fail("int32 cell out of range");
        }
        p = EncodeVarint64(p, ZigZagEncode(r.ints[i]));
        break;
      case ResolvedCol::Kind::kDouble: {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(double));
        memcpy(&bits, &r.dbls[i], 8);
        EncodeFixed64(p, bits);
        p += 8;
        break;
      }
      case ResolvedCol::Kind::kBytes: {
        const Slice v = r.BytesAt(i);
        p = EncodeVarint64(p, v.size());
        memcpy(p, v.data(), v.size());
        p += v.size();
        break;
      }
      case ResolvedCol::Kind::kDefault:
        break;
      case ResolvedCol::Kind::kMismatch:
        return fail("chunk encoding does not match column type");
    }
  }
  out->resize(static_cast<size_t>(p - out->data()));
  return Status::OK();
}

Status BlockReader::SeekFirst(const Key& prefix, bool or_equal,
                              size_t* index) {
  // Probes write only sort keys; a columnar block touches no value chunk.
  std::string want, key;
  EncodeSortKeyPrefix(&want, *schema_, prefix);
  size_t lo = 0, hi = num_rows();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    LT_RETURN_IF_ERROR(SortKeyAt(mid, &key));
    int cmp = CompareSortKeyToPrefix(key, want);
    bool before = or_equal ? cmp < 0 : cmp <= 0;
    if (before) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *index = lo;
  return Status::OK();
}

std::string StoreBlock(const std::string& payload) {
  std::string compressed;
  lzmini::Compress(payload, &compressed);
  std::string out;
  PutFixed32(&out,
             crc32c::Mask(crc32c::Value(compressed.data(), compressed.size())));
  out += compressed;
  return out;
}

Status LoadBlock(const Slice& stored, std::string* payload) {
  Slice in = stored;
  uint32_t masked;
  if (!GetFixed32(&in, &masked)) {
    return Status::Corruption("block frame too small");
  }
  uint32_t expect = crc32c::Unmask(masked);
  uint32_t actual = crc32c::Value(in.data(), in.size());
  if (expect != actual) return Status::Corruption("block checksum mismatch");
  payload->clear();
  return lzmini::Decompress(in, payload);
}

std::string StoreBlockV2(const std::string& image) {
  std::string out;
  PutFixed32(&out, crc32c::Mask(crc32c::Value(image.data(), image.size())));
  out += image;
  return out;
}

Status LoadBlockV2(const Slice& stored, std::string* image) {
  Slice in = stored;
  uint32_t masked;
  if (!GetFixed32(&in, &masked)) {
    return Status::Corruption("block frame too small");
  }
  if (crc32c::Unmask(masked) != crc32c::Value(in.data(), in.size())) {
    return Status::Corruption("block checksum mismatch");
  }
  image->assign(in.data(), in.size());
  return Status::OK();
}

}  // namespace lt
