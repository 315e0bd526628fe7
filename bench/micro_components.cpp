// google-benchmark micro benches for the hot data-plane components: IFile
// encode/decode, varints, CRC32, the wire codec, k-way merge, framing,
// buffer pool, the map-side collector and reduce-side segment fill. These
// guard the real-mode code paths' costs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <iterator>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/compress.h"
#include "common/framing.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "jbs/segment_buffer.h"
#include "mapred/collector.h"
#include "mapred/ifile.h"
#include "mapred/merger.h"

namespace jbs {
namespace {

void BM_VarintEncodeDecode(benchmark::State& state) {
  std::vector<uint8_t> buffer;
  int64_t sum = 0;
  for (auto _ : state) {
    buffer.clear();
    for (int64_t v = 0; v < 1000; ++v) PutVarint64(buffer, v * 977);
    size_t offset = 0;
    for (int i = 0; i < 1000; ++i) {
      sum += *GetVarint64(buffer, &offset);
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_VarintEncodeDecode);

void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(128 << 10)->Arg(1 << 20);

// The wire codec's inputs: one 128 KiB chunk (the default chunk size)
// shaped like perfbench's zipf_compress segments, sorted 10-byte random
// keys with values of zipf-drawn words, and one of random bytes, which
// the supplier's bail-out gives up on.
constexpr size_t kCodecChunkBytes = 128 * 1024;

std::vector<uint8_t> ZipfChunk() {
  static const char* const kVocab[] = {
      "clickstream", "impression", "session", "checkout", "pageview",
      "search",      "basket",     "login",   "logout",   "refund",
      "cart",        "banner",     "referrer", "campaign", "mobile",
      "desktop"};
  Rng rng(1);
  std::vector<mr::Record> records(1000);
  for (mr::Record& record : records) {
    record.key.resize(10);
    for (char& c : record.key) c = static_cast<char>(' ' + rng.Below(95));
    while (record.value.size() < 150) {
      record.value += kVocab[rng.NextZipf(std::size(kVocab), 1.2) - 1];
      record.value += ' ';
    }
  }
  std::sort(records.begin(), records.end(),
            [](const mr::Record& a, const mr::Record& b) {
              return a.key < b.key;
            });
  mr::IFileWriter writer;
  for (const mr::Record& record : records) writer.Append(record);
  std::vector<uint8_t> chunk = writer.Finish();
  chunk.resize(kCodecChunkBytes);
  return chunk;
}

std::vector<uint8_t> RandomChunk() {
  std::vector<uint8_t> chunk(kCodecChunkBytes);
  Rng rng(2);
  for (auto& b : chunk) b = static_cast<uint8_t>(rng.Next());
  return chunk;
}

void BM_CompressZipfChunk(benchmark::State& state) {
  const auto input = ZipfChunk();
  size_t stream = 0;
  for (auto _ : state) {
    stream = Compress(input).size();
    benchmark::DoNotOptimize(stream);
  }
  state.counters["wire_ratio"] =
      static_cast<double>(stream) / static_cast<double>(input.size());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_CompressZipfChunk);

void BM_CompressRandomChunkBailout(benchmark::State& state) {
  // The supplier's call: give up once the stream passes 90% of the chunk.
  const auto input = RandomChunk();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompressWithin(input, input.size() * 9 / 10));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_CompressRandomChunkBailout);

void BM_DecompressZipfChunk(benchmark::State& state) {
  const auto input = ZipfChunk();
  const auto compressed = Compress(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Decompress(compressed));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_DecompressZipfChunk);

void BM_DecompressIntoZipfChunk(benchmark::State& state) {
  // The reducer's call: decode into an exact-size room, as into the last
  // chunk of a segment's mapping.
  const auto input = ZipfChunk();
  const auto compressed = Compress(input);
  std::vector<uint8_t> dst(input.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecompressInto(compressed, dst));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_DecompressIntoZipfChunk);

void BM_IFileWrite(benchmark::State& state) {
  const std::string key = "benchmark_key_0123";
  const std::string value(static_cast<size_t>(state.range(0)), 'v');
  for (auto _ : state) {
    mr::IFileWriter writer;
    for (int i = 0; i < 1000; ++i) writer.Append(key, value);
    benchmark::DoNotOptimize(writer.Finish());
  }
  state.SetBytesProcessed(state.iterations() * 1000 *
                          static_cast<int64_t>(key.size() + value.size()));
}
BENCHMARK(BM_IFileWrite)->Arg(100)->Arg(1000);

void BM_IFileRead(benchmark::State& state) {
  mr::IFileWriter writer;
  const std::string value(static_cast<size_t>(state.range(0)), 'v');
  for (int i = 0; i < 1000; ++i) {
    writer.Append("key_" + std::to_string(i), value);
  }
  const auto segment = writer.Finish();
  for (auto _ : state) {
    mr::IFileReader reader(segment);
    mr::Record record;
    while (reader.Next(&record)) benchmark::DoNotOptimize(record);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(segment.size()));
}
BENCHMARK(BM_IFileRead)->Arg(100)->Arg(1000);

void BM_KWayMerge(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<std::vector<mr::Record>> inputs(
      static_cast<size_t>(streams));
  for (auto& records : inputs) {
    for (int i = 0; i < 2000; ++i) {
      records.push_back({std::to_string(rng.Below(1000000)), "v"});
    }
    std::sort(records.begin(), records.end(),
              [](const mr::Record& a, const mr::Record& b) {
                return a.key < b.key;
              });
  }
  int64_t merged = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<mr::RecordStream>> sources;
    for (const auto& records : inputs) {
      sources.push_back(std::make_unique<mr::VectorStream>(records));
    }
    mr::KWayMerger merger(std::move(sources));
    mr::Record record;
    while (merger.Next(&record)) ++merged;
  }
  benchmark::DoNotOptimize(merged);
  state.SetItemsProcessed(state.iterations() * streams * 2000);
}
BENCHMARK(BM_KWayMerge)->Arg(4)->Arg(16)->Arg(64);

// The merge as the shuffle runs it: 65,536 records of a 10 B random
// printable key and a 90 B value (perfbench small_4sup's record shape),
// split into `fan_in` sorted IFile segments, each read in place by a
// SegmentStream, drained through NextView only.
constexpr int kMergeRecords = 1 << 16;

std::vector<std::vector<uint8_t>> MergeSegments(int fan_in) {
  Rng rng(7);
  std::vector<std::vector<uint8_t>> segments;
  for (int s = 0; s < fan_in; ++s) {
    std::vector<std::string> keys(static_cast<size_t>(kMergeRecords / fan_in));
    for (auto& key : keys) {
      key.resize(10);
      for (char& c : key) c = static_cast<char>(' ' + rng.Below(95));
    }
    std::sort(keys.begin(), keys.end());
    mr::IFileWriter writer;
    const std::string value(90, 'v');
    for (const auto& key : keys) writer.Append(key, value);
    segments.push_back(writer.Finish());
  }
  return segments;
}

void BM_IFileDecodeView(benchmark::State& state) {
  // The decode alone, for the merge below: one segment of the same
  // records, read in place.
  const auto segment = MergeSegments(1).front();
  for (auto _ : state) {
    mr::IFileReader reader(segment);
    mr::RecordView view;
    while (reader.NextView(&view)) benchmark::DoNotOptimize(view.key.data());
  }
  state.SetItemsProcessed(state.iterations() * kMergeRecords);
}
BENCHMARK(BM_IFileDecodeView);

void BM_KWayMergeSegments(benchmark::State& state) {
  const auto segments = MergeSegments(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::unique_ptr<mr::RecordStream>> sources;
    for (const auto& segment : segments) {
      sources.push_back(std::make_unique<mr::SegmentStream>(
          std::span<const uint8_t>(segment)));
    }
    mr::KWayMerger merger(std::move(sources));
    mr::RecordView view;
    while (merger.NextView(&view)) benchmark::DoNotOptimize(view.key.data());
  }
  state.SetItemsProcessed(state.iterations() * kMergeRecords);
}
BENCHMARK(BM_KWayMergeSegments)->Arg(2)->Arg(8)->Arg(32);

void BM_FrameDecoder(benchmark::State& state) {
  std::vector<uint8_t> wire;
  Frame frame;
  frame.type = 2;
  frame.payload.resize(static_cast<size_t>(state.range(0)));
  for (int i = 0; i < 64; ++i) EncodeFrame(frame, wire);
  for (auto _ : state) {
    FrameDecoder decoder;
    (void)decoder.Feed(wire);
    int frames = 0;
    while (decoder.Next()) ++frames;
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_FrameDecoder)->Arg(1024)->Arg(128 << 10);

void BM_BufferPoolChurn(benchmark::State& state) {
  BufferPool pool(128 << 10, 16);
  for (auto _ : state) {
    PooledBuffer a = pool.Acquire();
    PooledBuffer b = pool.Acquire();
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_BufferPoolChurn);

void BM_LruConnectionCache(benchmark::State& state) {
  LruCache<int, int> cache(512);
  Rng rng(3);
  for (auto _ : state) {
    const int key = static_cast<int>(rng.Below(700));  // churns past cap
    if (cache.Get(key) == nullptr) cache.Put(key, key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruConnectionCache);

void BM_CollectorSortSpill(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("bench_collector_" +
                                   std::to_string(::getpid()));
  Rng rng(11);
  for (auto _ : state) {
    mr::MapOutputCollector::Options options;
    options.num_partitions = 4;
    options.sort_buffer_bytes = 256 << 10;
    options.work_dir = dir;
    mr::MapOutputCollector collector(options);
    for (int i = 0; i < 10000; ++i) {
      collector.Emit("key_" + std::to_string(rng.Below(5000)),
                     "value_payload_for_benchmarking");
    }
    auto handle = collector.Finish(0, 0);
    benchmark::DoNotOptimize(handle);
    fs::remove_all(dir);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CollectorSortSpill);

void BM_SegmentFill(benchmark::State& state) {
  // One bulk_1sup-sized segment (4 MiB) filled in 128 KiB chunk appends,
  // on a fresh mapping (arg 0: page faults and kernel zeroing on every
  // touch) or on a warm pooled one (arg 1: the NetMerger receive path).
  constexpr size_t kSegment = 4 << 20;
  constexpr size_t kChunk = 128 << 10;
  std::vector<uint8_t> chunk(kChunk);
  Rng rng(5);
  for (auto& b : chunk) b = static_cast<uint8_t>(rng.Next());
  const bool pooled = state.range(0) != 0;
  // A zero budget keeps nothing: every Acquire maps fresh.
  auto pool = std::make_shared<shuffle::SegmentPool>(
      pooled ? shuffle::kSegmentPoolBudgetBytes : 0);
  for (auto _ : state) {
    auto buffer = pool->Acquire(kSegment);
    if (!buffer.ok()) {
      state.SkipWithError(buffer.status().ToString().c_str());
      break;
    }
    for (size_t filled = 0; filled < kSegment; filled += kChunk) {
      (void)(*buffer)->Append(chunk);
    }
    benchmark::DoNotOptimize((*buffer)->bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(pooled ? "warm pool" : "fresh mapping");
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kSegment));
}
BENCHMARK(BM_SegmentFill)->Arg(0)->Arg(1);

}  // namespace
}  // namespace jbs

BENCHMARK_MAIN();
