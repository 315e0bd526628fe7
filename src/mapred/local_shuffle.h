// In-process shuffle: the client reads MOF segments straight from disk via
// a shared registry, no sockets. Serves three purposes: engine tests that
// don't want a network, an upper-bound reference ("zero transport cost")
// for benches, and a worked example of the plug-in interface.
#pragma once

#include "mapred/shuffle.h"

namespace jbs::mr {

class LocalShufflePlugin final : public ShufflePlugin {
 public:
  LocalShufflePlugin() = default;

  std::string name() const override { return "local"; }
  std::unique_ptr<ShuffleServer> CreateServer(int node,
                                              const Config& conf) override;
  std::unique_ptr<ShuffleClient> CreateClient(int node,
                                              const Config& conf) override;

 private:
  MofRegistry registry_;
};

}  // namespace jbs::mr
