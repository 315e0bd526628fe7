#include "mapred/local_shuffle.h"

namespace jbs::mr {

namespace {

class LocalServer final : public ShuffleServer {
 public:
  explicit LocalServer(MofRegistry* registry) : registry_(registry) {}

  Status Start() override { return Status::Ok(); }
  uint16_t port() const override { return 0; }
  Status PublishMof(const MofHandle& handle) override {
    return registry_->Publish(handle);
  }
  void Stop() override {}

 private:
  MofRegistry* registry_;
};

class LocalClient final : public ShuffleClient {
 public:
  explicit LocalClient(MofRegistry* registry) : registry_(registry) {}

  StatusOr<std::unique_ptr<RecordStream>> FetchAndMerge(
      int partition, const std::vector<MofLocation>& sources) override {
    std::vector<std::unique_ptr<RecordStream>> streams;
    streams.reserve(sources.size());
    MutexLock lock(mu_);
    for (const MofLocation& source : sources) {
      auto mof = registry_->Lookup(source.map_task);
      JBS_RETURN_IF_ERROR(mof.status());
      auto reader = MofReader::Open(
          {source.map_task, 0, mof->data_path, mof->index_path});
      JBS_RETURN_IF_ERROR(reader.status());
      std::vector<uint8_t> segment;
      JBS_RETURN_IF_ERROR(reader->ReadSegment(partition, segment));
      stats_.bytes_fetched += segment.size();
      ++stats_.fetches;
      auto owned =
          std::make_shared<const std::vector<uint8_t>>(std::move(segment));
      auto stream = OpenSegment(*owned, owned, reader->index().compressed());
      JBS_RETURN_IF_ERROR(stream.status());
      streams.push_back(std::move(stream).value());
    }
    return std::unique_ptr<RecordStream>(
        std::make_unique<KWayMerger>(std::move(streams)));
  }

  Stats stats() const override {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  MofRegistry* registry_;
  mutable Mutex mu_;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace

std::unique_ptr<ShuffleServer> LocalShufflePlugin::CreateServer(
    int /*node*/, const Config& /*conf*/) {
  return std::make_unique<LocalServer>(&registry_);
}

std::unique_ptr<ShuffleClient> LocalShufflePlugin::CreateClient(
    int /*node*/, const Config& /*conf*/) {
  return std::make_unique<LocalClient>(&registry_);
}

}  // namespace jbs::mr
