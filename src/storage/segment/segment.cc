#include "storage/segment/segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "storage/segment/varint.h"
#include "util/crc32c.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace seprec {
namespace {

// Offset of the CRC32C trailer inside a page; the CRC covers [0, here).
constexpr size_t kPageCrcOffset = kSegmentPageSize - 4;

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | p[1] << 8);
}

Status CheckPageCrc(const uint8_t* page, size_t page_index,
                    const std::string& name) {
  uint32_t declared = ReadU32(page + kPageCrcOffset);
  uint32_t computed = Crc32c(page, kPageCrcOffset);
  if (declared != computed) {
    return DataLossError(StrCat("segment '", name, "' page ", page_index,
                                " is corrupt: checksum mismatch"));
  }
  return Status::OK();
}

// Full-value varints store the word rotated left by one bit, so the int
// tag (bit 63 of Value's layout) rides in bit 0 instead of forcing a
// 10-byte encoding for every integer. Deltas are encoded unrotated: the
// tag cancels when subtracting same-typed neighbours.
uint64_t RotBits(uint64_t x) { return (x << 1) | (x >> 63); }
uint64_t UnrotBits(uint64_t y) { return (y >> 1) | (y << 63); }

// Raw-bits lexicographic compare of `a` (Values) against `b` (stored bits)
// over the first `n` columns.
int ComparePrefixBits(const Value* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t av = a[i].bits();
    if (av != b[i]) return av < b[i] ? -1 : 1;
  }
  return 0;
}

int ComparePrefixValues(const Value* a, const Value* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t av = a[i].bits();
    uint64_t bv = b[i].bits();
    if (av != bv) return av < bv ? -1 : 1;
  }
  return 0;
}

}  // namespace

RelationSegment::RelationSegment(std::shared_ptr<const PagedFileReader> file,
                                 SegmentGeometry geometry)
    : file_(std::move(file)),
      geometry_(std::move(geometry)),
      pages_(geometry_.data_pages) {
  SEPREC_CHECK(geometry_.arity > 0);
  SEPREC_CHECK(geometry_.page_row_start.size() ==
               size_t{geometry_.data_pages} + 1);
  SEPREC_CHECK(geometry_.page_row_start.back() == geometry_.rows);
  SEPREC_CHECK(geometry_.data_offset +
                   uint64_t{geometry_.data_pages} * kSegmentPageSize <=
               file_->size());
  SEPREC_CHECK(geometry_.agg_offset +
                   uint64_t{geometry_.agg_pages} * kSegmentPageSize <=
               file_->size());
}

const Value* RelationSegment::PageRows(size_t p) const {
  const Value* cached = pages_[p].load(std::memory_order_acquire);
  if (cached != nullptr) return cached;
  std::lock_guard<std::mutex> lock(decode_mu_);
  cached = pages_[p].load(std::memory_order_relaxed);
  if (cached != nullptr) return cached;
  std::vector<Value> rows;
  Status s = DecodeDataPage(
      file_->data() + geometry_.data_offset + p * kSegmentPageSize, p,
      geometry_.name, geometry_.arity, &rows);
  const size_t expect = static_cast<size_t>(geometry_.page_row_start[p + 1] -
                                            geometry_.page_row_start[p]);
  if (!s.ok() || rows.size() != expect * geometry_.arity) {
    // Recovery verified every page before attaching the segment, so this
    // is the file changing underneath a live mapping — unrecoverable.
    std::fprintf(stderr, "[seprec] segment decode failed: %s\n",
                 s.ok() ? "row count drifted from footer directory"
                        : std::string(s.message()).c_str());
    SEPREC_CHECK(false);
  }
  auto buf = std::make_unique<Value[]>(rows.size());
  std::copy(rows.begin(), rows.end(), buf.get());
  const Value* ptr = buf.get();
  storage_.push_back(std::move(buf));
  pages_[p].store(ptr, std::memory_order_release);
  return ptr;
}

size_t RelationSegment::decoded_pages() const {
  std::lock_guard<std::mutex> lock(decode_mu_);
  return storage_.size();
}

const Value* RelationSegment::row(uint64_t idx) const {
  SEPREC_DCHECK(idx < geometry_.rows);
  const std::vector<uint64_t>& start = geometry_.page_row_start;
  size_t p = static_cast<size_t>(
      std::upper_bound(start.begin(), start.end(), idx) - start.begin() - 1);
  return PageRows(p) + (idx - start[p]) * geometry_.arity;
}

uint64_t RelationSegment::LowerBound(const Value* key, size_t key_len) const {
  SEPREC_DCHECK(key_len > 0 && key_len <= geometry_.arity);
  if (geometry_.data_pages == 0) return 0;
  // Largest page whose first row is <= key: the only page that can hold
  // the boundary (the next page's first row is already > key).
  size_t lo = 0;
  size_t hi = geometry_.data_pages;  // exclusive
  while (hi - lo > 1) {
    size_t mid = lo + (hi - lo) / 2;
    const uint64_t* first = geometry_.page_first_row.data() +
                            size_t{mid} * geometry_.arity;
    if (ComparePrefixBits(key, first, key_len) >= 0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const size_t p = lo;
  const uint64_t base = geometry_.page_row_start[p];
  const size_t n =
      static_cast<size_t>(geometry_.page_row_start[p + 1] - base);
  const Value* rows = PageRows(p);
  size_t a = 0;
  size_t b = n;  // first row in page with prefix >= key
  while (a < b) {
    size_t mid = a + (b - a) / 2;
    if (ComparePrefixValues(rows + mid * geometry_.arity, key, key_len) < 0) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return base + a;  // == page_row_start[p + 1] when the page exhausts
}

uint64_t RelationSegment::Find(const Value* r, size_t len) const {
  SEPREC_DCHECK(len == geometry_.arity);
  if (geometry_.rows == 0) return 0;
  uint64_t idx = LowerBound(r, len);
  if (idx >= geometry_.rows) return geometry_.rows;
  if (ComparePrefixValues(row(idx), r, len) != 0) return geometry_.rows;
  return idx;
}

StatusOr<uint64_t> RelationSegment::PrefixCount(Value v) const {
  if (geometry_.agg_pages == 0) return uint64_t{0};
  const uint64_t key = v.bits();
  // Largest aggregated page whose first value is <= key.
  size_t lo = 0;
  size_t hi = geometry_.agg_pages;
  while (hi - lo > 1) {
    size_t mid = lo + (hi - lo) / 2;
    if (geometry_.agg_first_value[mid] <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  std::vector<uint64_t> values;
  std::vector<uint64_t> counts;
  SEPREC_RETURN_IF_ERROR(DecodeAggPage(
      file_->data() + geometry_.agg_offset + lo * kSegmentPageSize, lo,
      geometry_.name, &values, &counts));
  auto it = std::lower_bound(values.begin(), values.end(), key);
  if (it == values.end() || *it != key) return uint64_t{0};
  return counts[static_cast<size_t>(it - values.begin())];
}

Status RelationSegment::VerifyPages() const {
  std::vector<Value> rows;
  for (size_t p = 0; p < geometry_.data_pages; ++p) {
    rows.clear();
    SEPREC_RETURN_IF_ERROR(DecodeDataPage(
        file_->data() + geometry_.data_offset + p * kSegmentPageSize, p,
        geometry_.name, geometry_.arity, &rows));
    const size_t expect = static_cast<size_t>(
        geometry_.page_row_start[p + 1] - geometry_.page_row_start[p]);
    if (rows.size() != expect * geometry_.arity) {
      return DataLossError(StrCat(
          "segment '", geometry_.name, "' page ", p, " is corrupt: holds ",
          rows.size() / geometry_.arity, " row(s), footer directory says ",
          expect));
    }
  }
  std::vector<uint64_t> values;
  std::vector<uint64_t> counts;
  uint64_t agg_total = 0;
  for (size_t p = 0; p < geometry_.agg_pages; ++p) {
    values.clear();
    counts.clear();
    SEPREC_RETURN_IF_ERROR(DecodeAggPage(
        file_->data() + geometry_.agg_offset + p * kSegmentPageSize, p,
        geometry_.name, &values, &counts));
    agg_total += values.size();
  }
  if (agg_total != geometry_.agg_entries) {
    return DataLossError(StrCat("segment '", geometry_.name,
                                "' aggregated pages hold ", agg_total,
                                " entries, footer says ",
                                geometry_.agg_entries));
  }
  return Status::OK();
}

Status RelationSegment::DecodeDataPage(const uint8_t* page, size_t page_index,
                                       const std::string& name, size_t arity,
                                       std::vector<Value>* out) {
  SEPREC_RETURN_IF_ERROR(CheckPageCrc(page, page_index, name));
  const size_t count = ReadU16(page);
  const uint8_t* p = page + 2;
  const uint8_t* end = page + kPageCrcOffset;
  std::vector<uint64_t> prev(arity, 0);
  for (size_t r = 0; r < count; ++r) {
    size_t shared = 0;
    if (r > 0) {
      if (p >= end) {
        return DataLossError(StrCat("segment '", name, "' page ", page_index,
                                    " is corrupt: truncated row ", r));
      }
      shared = *p++;
      if (shared >= arity) {
        return DataLossError(StrCat("segment '", name, "' page ", page_index,
                                    " is corrupt: shared-prefix ", shared,
                                    " >= arity ", arity));
      }
      uint64_t delta = 0;
      p = DecodeVarint(p, end, &delta);
      if (p == nullptr || delta == 0) {
        return DataLossError(StrCat("segment '", name, "' page ", page_index,
                                    " is corrupt: bad delta in row ", r));
      }
      prev[shared] += delta;
      for (size_t c = shared + 1; c < arity; ++c) {
        uint64_t rotated = 0;
        p = DecodeVarint(p, end, &rotated);
        if (p == nullptr) {
          return DataLossError(StrCat("segment '", name, "' page ",
                                      page_index,
                                      " is corrupt: truncated row ", r));
        }
        prev[c] = UnrotBits(rotated);
      }
    } else {
      for (size_t c = 0; c < arity; ++c) {
        uint64_t rotated = 0;
        p = DecodeVarint(p, end, &rotated);
        if (p == nullptr) {
          return DataLossError(StrCat("segment '", name, "' page ",
                                      page_index,
                                      " is corrupt: truncated first row"));
        }
        prev[c] = UnrotBits(rotated);
      }
    }
    for (size_t c = 0; c < arity; ++c) {
      out->push_back(Value::FromBits(prev[c]));
    }
  }
  return Status::OK();
}

Status RelationSegment::DecodeAggPage(const uint8_t* page, size_t page_index,
                                      const std::string& name,
                                      std::vector<uint64_t>* values,
                                      std::vector<uint64_t>* counts) {
  SEPREC_RETURN_IF_ERROR(CheckPageCrc(page, page_index, name));
  const size_t count = ReadU16(page);
  const uint8_t* p = page + 2;
  const uint8_t* end = page + kPageCrcOffset;
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    uint64_t n = 0;
    p = DecodeVarint(p, end, &v);
    if (p != nullptr) p = DecodeVarint(p, end, &n);
    if (p == nullptr || (i > 0 && v == 0) || n == 0) {
      return DataLossError(StrCat("segment '", name, "' aggregated page ",
                                  page_index, " is corrupt: bad entry ", i));
    }
    prev = i == 0 ? UnrotBits(v) : prev + v;
    values->push_back(prev);
    counts->push_back(n);
  }
  return Status::OK();
}

SegmentBuilder::SegmentBuilder(std::string name, size_t arity, PageSink emit)
    : name_(std::move(name)), arity_(arity), emit_(std::move(emit)) {
  SEPREC_CHECK(arity_ > 0);
  geo_.name = name_;
  geo_.arity = static_cast<uint32_t>(arity_);
  geo_.page_row_start.push_back(0);
  prev_row_.reserve(arity_);
  first_row_.reserve(arity_);
  page_.reserve(kSegmentPagePayload);
  agg_page_.reserve(kSegmentPagePayload);
  seen_.resize(arity_);
}

Status SegmentBuilder::FlushDataPage() {
  if (rows_in_page_ == 0) return Status::OK();
  uint8_t buf[kSegmentPageSize] = {0};
  buf[0] = static_cast<uint8_t>(rows_in_page_);
  buf[1] = static_cast<uint8_t>(rows_in_page_ >> 8);
  std::memcpy(buf + 2, page_.data(), page_.size());
  uint32_t crc = Crc32c(buf, kPageCrcOffset);
  buf[kPageCrcOffset] = static_cast<uint8_t>(crc);
  buf[kPageCrcOffset + 1] = static_cast<uint8_t>(crc >> 8);
  buf[kPageCrcOffset + 2] = static_cast<uint8_t>(crc >> 16);
  buf[kPageCrcOffset + 3] = static_cast<uint8_t>(crc >> 24);
  SEPREC_RETURN_IF_ERROR(emit_(buf));
  ++geo_.data_pages;
  geo_.page_row_start.push_back(geo_.page_row_start.back() + rows_in_page_);
  for (uint64_t bits : first_row_) geo_.page_first_row.push_back(bits);
  page_.clear();
  prev_row_.clear();
  first_row_.clear();
  rows_in_page_ = 0;
  return Status::OK();
}

Status SegmentBuilder::FlushAggPage() {
  if (agg_entries_in_page_ == 0) return Status::OK();
  std::vector<uint8_t> buf(kSegmentPageSize, 0);
  buf[0] = static_cast<uint8_t>(agg_entries_in_page_);
  buf[1] = static_cast<uint8_t>(agg_entries_in_page_ >> 8);
  std::memcpy(buf.data() + 2, agg_page_.data(), agg_page_.size());
  uint32_t crc = Crc32c(buf.data(), kPageCrcOffset);
  buf[kPageCrcOffset] = static_cast<uint8_t>(crc);
  buf[kPageCrcOffset + 1] = static_cast<uint8_t>(crc >> 8);
  buf[kPageCrcOffset + 2] = static_cast<uint8_t>(crc >> 16);
  buf[kPageCrcOffset + 3] = static_cast<uint8_t>(crc >> 24);
  agg_pages_done_.push_back(std::move(buf));
  geo_.agg_first_value.push_back(agg_first_value_);
  agg_page_.clear();
  agg_entries_in_page_ = 0;
  return Status::OK();
}

Status SegmentBuilder::AddAggEntry(uint64_t value_bits, uint64_t count) {
  const bool first = agg_entries_in_page_ == 0;
  const uint64_t encoded =
      first ? RotBits(value_bits) : value_bits - agg_prev_value_;
  size_t need = VarintSize(encoded) + VarintSize(count);
  if (!first && 2 + agg_page_.size() + need > kPageCrcOffset) {
    SEPREC_RETURN_IF_ERROR(FlushAggPage());
    return AddAggEntry(value_bits, count);
  }
  if (agg_entries_in_page_ == 0) agg_first_value_ = value_bits;
  uint8_t tmp[2 * kMaxVarintBytes];
  uint8_t* p = EncodeVarint(tmp, encoded);
  p = EncodeVarint(p, count);
  agg_page_.insert(agg_page_.end(), tmp, p);
  agg_prev_value_ = value_bits;
  ++agg_entries_in_page_;
  ++geo_.agg_entries;
  return Status::OK();
}

Status SegmentBuilder::Add(const Value* row) {
  // Row-vs-predecessor encoding decision. Rows must arrive strictly
  // increasing in raw-bits order; equal or decreasing input means the
  // caller's merge is broken.
  uint8_t tmp[1 + 64 * kMaxVarintBytes];
  uint8_t* p = tmp;
  if (rows_in_page_ == 0) {
    for (size_t c = 0; c < arity_; ++c) {
      p = EncodeVarint(p, RotBits(row[c].bits()));
    }
  } else {
    size_t shared = 0;
    while (shared < arity_ && prev_row_[shared] == row[shared].bits()) {
      ++shared;
    }
    if (shared == arity_ || row[shared].bits() < prev_row_[shared]) {
      return InternalError(StrCat("segment '", name_,
                                  "': rows not strictly sorted"));
    }
    *p++ = static_cast<uint8_t>(shared);
    p = EncodeVarint(p, row[shared].bits() - prev_row_[shared]);
    for (size_t c = shared + 1; c < arity_; ++c) {
      p = EncodeVarint(p, RotBits(row[c].bits()));
    }
  }
  const size_t need = static_cast<size_t>(p - tmp);
  if (2 + page_.size() + need > kPageCrcOffset ||
      rows_in_page_ == 0xFFFF) {
    if (rows_in_page_ == 0) {
      return InternalError(StrCat("segment '", name_, "': row of arity ",
                                  arity_, " does not fit in one page"));
    }
    SEPREC_RETURN_IF_ERROR(FlushDataPage());
    return Add(row);  // re-encode as the first row of the fresh page
  }
  page_.insert(page_.end(), tmp, tmp + need);
  if (rows_in_page_ == 0) {
    first_row_.clear();
    for (size_t c = 0; c < arity_; ++c) first_row_.push_back(row[c].bits());
  }
  prev_row_.resize(arity_);
  for (size_t c = 0; c < arity_; ++c) prev_row_[c] = row[c].bits();
  ++rows_in_page_;

  // Aggregated column-0 run tracking plus exact distinct counting.
  const uint64_t col0 = row[0].bits();
  if (geo_.rows == 0) {
    run_value_ = col0;
    run_count_ = 1;
  } else if (col0 == run_value_) {
    ++run_count_;
  } else {
    SEPREC_RETURN_IF_ERROR(AddAggEntry(run_value_, run_count_));
    run_value_ = col0;
    run_count_ = 1;
  }
  for (size_t c = 1; c < arity_; ++c) seen_[c].insert(row[c].bits());
  ++geo_.rows;
  return Status::OK();
}

StatusOr<SegmentGeometry> SegmentBuilder::Finish() {
  SEPREC_RETURN_IF_ERROR(FlushDataPage());
  if (geo_.rows > 0) {
    SEPREC_RETURN_IF_ERROR(AddAggEntry(run_value_, run_count_));
  }
  SEPREC_RETURN_IF_ERROR(FlushAggPage());
  geo_.data_offset = 0;
  geo_.agg_offset = uint64_t{geo_.data_pages} * kSegmentPageSize;
  geo_.agg_pages = static_cast<uint32_t>(agg_pages_done_.size());
  for (const std::vector<uint8_t>& page : agg_pages_done_) {
    SEPREC_RETURN_IF_ERROR(emit_(page.data()));
  }
  agg_pages_done_.clear();
  geo_.distinct.assign(arity_, 0);
  geo_.distinct[0] = geo_.agg_entries;
  for (size_t c = 1; c < arity_; ++c) {
    geo_.distinct[c] = seen_[c].size();
  }
  return geo_;
}

}  // namespace seprec
