// Core MapReduce value types. Keys and values are binary-safe byte strings
// ordered bytewise (Hadoop's BytesWritable comparator).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace jbs::mr {

struct Record {
  std::string key;
  std::string value;

  friend bool operator==(const Record&, const Record&) = default;
};

/// A record read in place: spans into bytes its source owns. Who hands
/// one out says how long it stays valid (see RecordStream::NextView).
struct RecordView {
  std::string_view key;
  std::string_view value;
};

/// Bytewise comparison used for map-side sort and reduce-side merge.
inline bool KeyLess(const std::string& a, const std::string& b) {
  return a < b;
}

struct TaskAttemptId {
  int job = 0;
  int task = 0;     // map or reduce index
  bool is_map = true;

  std::string ToString() const {
    return "attempt_j" + std::to_string(job) + (is_map ? "_m" : "_r") +
           std::to_string(task);
  }
  friend bool operator==(const TaskAttemptId&, const TaskAttemptId&) = default;
};

}  // namespace jbs::mr
