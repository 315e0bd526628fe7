// The shuffle plug-in boundary. The engine is transport-agnostic: it talks
// to a ShuffleServer per node (serves that node's MOFs) and a ShuffleClient
// per node (fetches + merges segments for that node's reducers). The
// baseline HTTP shuffle, the JBS MOFSupplier/NetMerger pair, and an
// in-process LocalShuffle all implement this interface — mirroring
// Hadoop's pluggable shuffle (MAPREDUCE-4049) that the paper ships JBS as.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "mapred/merger.h"
#include "mapred/mof.h"

namespace jbs::mr {

/// Where one map task's MOF can be fetched from.
struct MofLocation {
  int map_task = 0;
  int node = 0;
  std::string host;
  uint16_t port = 0;
};

class ShuffleServer {
 public:
  virtual ~ShuffleServer() = default;

  /// Binds and starts serving. Must be callable before any PublishMof.
  virtual Status Start() = 0;

  /// Port clients should connect to (0 for in-process servers).
  virtual uint16_t port() const = 0;

  /// Makes a completed MOF fetchable by (map_task, partition).
  virtual Status PublishMof(const MofHandle& handle) = 0;

  virtual void Stop() = 0;

  struct Stats {
    uint64_t requests = 0;
    uint64_t bytes_served = 0;
  };
  virtual Stats stats() const { return {}; }
};

class ShuffleClient {
 public:
  virtual ~ShuffleClient() = default;

  /// Fetches segment `partition` from every source and returns one merged,
  /// sorted record stream (ownership to the caller). Implementations decide
  /// how much is materialized vs. streamed — that difference *is* the paper.
  /// A streaming client returns before the last byte lands: a fetch that
  /// fails after that ends the stream, as its status(), so callers check
  /// the stream's status after draining it as well as this call's.
  virtual StatusOr<std::unique_ptr<RecordStream>> FetchAndMerge(
      int partition, const std::vector<MofLocation>& sources) = 0;

  /// Stops the client and drains: every FetchAndMerge call blocked at the
  /// time of the call — including ones waiting on an unresponsive peer —
  /// must return promptly (with kUnavailable), and later calls fail fast.
  /// A stream still waiting for bytes ends with kUnavailable too, so drain
  /// a stream before stopping its client. Stop() must not wait for
  /// in-flight network conversations to finish.
  virtual void Stop() {}

  struct Stats {
    uint64_t fetches = 0;
    uint64_t bytes_fetched = 0;
    uint64_t connections_opened = 0;
  };
  virtual Stats stats() const { return {}; }
};

/// Factory bound to one "cluster" run; create one server/client per node.
class ShufflePlugin {
 public:
  virtual ~ShufflePlugin() = default;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<ShuffleServer> CreateServer(int node,
                                                      const Config& conf) = 0;
  virtual std::unique_ptr<ShuffleClient> CreateClient(int node,
                                                      const Config& conf) = 0;
};

}  // namespace jbs::mr
