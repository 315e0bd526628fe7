#include <algorithm>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "mapred/ifile.h"
#include "mapred/merger.h"
#include "harnesses.h"

namespace jbs::fuzz {

namespace {

/// The input arriving in pieces whose sizes come from the input's own
/// bytes (1 to 64), as a fetch commits chunks into a segment.
class PiecewiseInput final : public mr::ArrivingSegment {
 public:
  explicit PiecewiseInput(std::span<const uint8_t> data) : data_(data) {
    Grow();
  }
  uint64_t total() const override { return data_.size(); }
  std::span<const uint8_t> arrived() const override {
    return data_.first(arrived_);
  }
  Status AwaitMore(uint64_t have) override {
    if (have != arrived_ || arrived_ == data_.size()) abort();
    Grow();
    return Status::Ok();
  }
  Status AwaitEnd() override {
    arrived_ = data_.size();
    return Status::Ok();
  }

 private:
  void Grow() {
    const size_t piece =
        data_.empty() ? 0 : 1 + data_[(arrived_ * 31 + 7) % data_.size()] % 64;
    arrived_ = std::min(arrived_ + piece, data_.size());
  }

  std::span<const uint8_t> data_;
  size_t arrived_ = 0;
};

}  // namespace

int FuzzIfile(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> segment(data, size);

  // Checksum validation must never crash, whatever the trailer claims.
  mr::IFileReader checker(segment);
  const bool checksum_ok = checker.VerifyChecksum().ok();

  // Record iteration: either we hit the EOF marker cleanly or status()
  // reports the corruption; reading past a failure must stay a no-op.
  mr::IFileReader reader(segment);
  mr::Record record;
  std::vector<mr::Record> records;
  // Arbitrary bytes can encode absurd record counts, but each record
  // consumes at least two length bytes, so size bounds the iterations.
  while (reader.Next(&record)) {
    records.push_back(record);
  }
  const bool clean_eof = reader.status().ok();
  if (!clean_eof && reader.Next(&record)) abort();
  if (reader.records_read() != records.size()) abort();

  // Read in place, the same bytes give the same records and verdict.
  mr::IFileReader viewer(segment);
  mr::RecordView view;
  size_t viewed = 0;
  while (viewer.NextView(&view)) {
    if (viewed >= records.size() || view.key != records[viewed].key ||
        view.value != records[viewed].value) {
      abort();
    }
    ++viewed;
  }
  if (viewed != records.size()) abort();
  if (viewer.status().ok() != clean_eof ||
      viewer.status().message() != reader.status().message()) {
    abort();
  }
  if (!clean_eof && viewer.NextView(&view)) abort();

  // The same bytes read while they arrive must give the same records and
  // the same verdict, copied or in place.
  for (const bool in_place : {false, true}) {
    mr::SegmentStream stream(std::make_shared<PiecewiseInput>(segment));
    size_t streamed = 0;
    for (;;) {
      if (in_place) {
        if (!stream.NextView(&view)) break;
        record.key.assign(view.key);
        record.value.assign(view.value);
      } else if (!stream.Next(&record)) {
        break;
      }
      if (streamed >= records.size() || !(record == records[streamed])) {
        abort();
      }
      ++streamed;
    }
    if (streamed != records.size()) abort();
    if (stream.status().ok() != clean_eof) abort();
    if (!clean_eof && stream.status().message() != reader.status().message()) {
      abort();
    }
  }

  // A segment that both checksums and parses cleanly must survive a
  // write-read round trip with every record preserved. (Byte equality is
  // too strong: the reader may accept non-minimal varint encodings.)
  if (checksum_ok && clean_eof) {
    mr::IFileWriter writer;
    for (const mr::Record& r : records) writer.Append(r);
    const std::vector<uint8_t> rebuilt = writer.Finish();
    mr::IFileReader again(rebuilt);
    if (!again.VerifyChecksum().ok()) abort();
    mr::Record replay;
    size_t index = 0;
    while (again.Next(&replay)) {
      if (index >= records.size() || !(replay == records[index])) abort();
      ++index;
    }
    if (!again.status().ok() || index != records.size()) abort();
  }
  return 0;
}

}  // namespace jbs::fuzz
