#include "workloads/tarazu.h"

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace jbs::wl {

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kTerasort: return "Terasort";
    case Workload::kSelfJoin: return "SelfJoin";
    case Workload::kInvertedIndex: return "InvertedIndex";
    case Workload::kSequenceCount: return "SequenceCount";
    case Workload::kAdjacencyList: return "AdjacencyList";
    case Workload::kWordCount: return "WordCount";
    case Workload::kGrep: return "Grep";
  }
  return "?";
}

ShuffleProfile ProfileFor(Workload workload) {
  // shuffle_ratio calibration: Terasort is 1.0 by construction (§V). The
  // Tarazu shuffle-heavy four "generate a lot of intermediate data" —
  // SelfJoin and AdjacencyList roughly preserve input volume plus framing
  // overhead; SequenceCount emits one record per word pair (larger than
  // input); InvertedIndex emits (word, doc) pairs (comparable to input).
  // WordCount with its combiner and Grep emit almost nothing (§V-F: "only
  // a small amount of intermediate data").
  // CPU costs are core-seconds per input MB (text tokenization runs
  // ~40-80 MB/s/core; terasort's identity map mostly pays the sort).
  // Skew: terasort samples split points (balanced); the Tarazu inputs are
  // zipf-distributed, so hash partitions skew — AdjacencyList worst (the
  // popular-vertex problem).
  switch (workload) {
    case Workload::kTerasort:      return {1.00, 1.00, 0.012, 0.008, 1.1};
    case Workload::kSelfJoin:      return {1.10, 0.40, 0.018, 0.015, 3.0};
    case Workload::kInvertedIndex: return {0.90, 0.30, 0.025, 0.015, 3.5};
    case Workload::kSequenceCount: return {1.40, 0.25, 0.028, 0.015, 2.5};
    case Workload::kAdjacencyList: return {1.20, 0.60, 0.018, 0.020, 6.0};
    case Workload::kWordCount:     return {0.04, 0.02, 0.030, 0.010, 1.5};
    case Workload::kGrep:          return {0.005, 0.002, 0.012, 0.005, 1.0};
  }
  return {1.0, 1.0, 0.01, 0.01, 1.0};
}

namespace {

Status WriteLines(hdfs::MiniDfs& dfs, const std::string& path,
                  const std::function<bool(std::string&)>& next_line) {
  auto writer = dfs.Create(path);
  JBS_RETURN_IF_ERROR(writer.status());
  std::string batch;
  std::string line;
  while (next_line(line)) {
    batch += line;
    batch += '\n';
    if (batch.size() >= 1 << 20) {
      JBS_RETURN_IF_ERROR(writer->Append(
          {reinterpret_cast<const uint8_t*>(batch.data()), batch.size()}));
      batch.clear();
    }
  }
  if (!batch.empty()) {
    JBS_RETURN_IF_ERROR(writer->Append(
        {reinterpret_cast<const uint8_t*>(batch.data()), batch.size()}));
  }
  return writer->Close();
}

std::string WordFor(uint64_t rank) {
  std::string word(1, 'w');
  word += std::to_string(rank);
  return word;
}

void Tokenize(std::string_view line,
              const std::function<void(std::string_view)>& fn) {
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    size_t end = pos;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > pos) fn(line.substr(pos, end - pos));
    pos = end;
  }
}

}  // namespace

Status GenerateText(hdfs::MiniDfs& dfs, const std::string& path,
                    uint64_t lines, int words_per_line, uint64_t vocabulary,
                    uint64_t seed) {
  Rng rng(seed);
  uint64_t emitted = 0;
  return WriteLines(dfs, path, [&](std::string& line) {
    if (emitted++ >= lines) return false;
    line.clear();
    for (int w = 0; w < words_per_line; ++w) {
      if (w != 0) line += ' ';
      line += WordFor(rng.NextZipf(vocabulary, 1.05));
    }
    return true;
  });
}

Status GenerateEdges(hdfs::MiniDfs& dfs, const std::string& path,
                     uint64_t edges, uint64_t nodes, uint64_t seed) {
  Rng rng(seed);
  uint64_t emitted = 0;
  return WriteLines(dfs, path, [&](std::string& line) {
    if (emitted++ >= edges) return false;
    const uint64_t src = rng.NextZipf(nodes, 0.8);
    const uint64_t dst = 1 + rng.Below(nodes);
    line.assign(1, 'n')
        .append(std::to_string(src))
        .append(" n")
        .append(std::to_string(dst));
    return true;
  });
}

Status GenerateTuples(hdfs::MiniDfs& dfs, const std::string& path,
                      uint64_t lines, uint64_t key_space, uint64_t seed) {
  Rng rng(seed);
  uint64_t emitted = 0;
  return WriteLines(dfs, path, [&](std::string& line) {
    if (emitted++ >= lines) return false;
    // Sorted 3-tuples, as Tarazu's selfjoin candidate sets are.
    uint64_t keys[3];
    for (auto& key : keys) key = 1 + rng.Below(key_space);
    std::sort(std::begin(keys), std::end(keys));
    line.assign(1, 'k')
        .append(std::to_string(keys[0]))
        .append(" k")
        .append(std::to_string(keys[1]))
        .append(" k")
        .append(std::to_string(keys[2]));
    return true;
  });
}

mr::JobSpec WordCountJob(const std::string& input, const std::string& output,
                         int reducers) {
  mr::JobSpec spec;
  spec.name = "wordcount";
  spec.input_path = input;
  spec.output_dir = output;
  spec.num_reducers = reducers;
  spec.map = [](std::string_view, std::string_view line, mr::Emitter& e) {
    Tokenize(line, [&](std::string_view word) { e.Emit(word, "1"); });
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& e) {
    int64_t sum = 0;
    for (const auto& v : values) sum += std::stoll(v);
    e.Emit(key, std::to_string(sum));
  };
  spec.combine = spec.reduce;  // the reason WordCount shuffles so little
  return spec;
}

mr::JobSpec GrepJob(const std::string& input, const std::string& output,
                    int reducers, const std::string& pattern) {
  mr::JobSpec spec;
  spec.name = "grep";
  spec.input_path = input;
  spec.output_dir = output;
  spec.num_reducers = reducers;
  spec.map = [pattern](std::string_view, std::string_view line,
                       mr::Emitter& e) {
    if (line.find(pattern) != std::string_view::npos) {
      e.Emit(pattern, "1");
    }
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& e) {
    int64_t sum = 0;
    for (const auto& v : values) sum += std::stoll(v);
    e.Emit(key, std::to_string(sum));
  };
  spec.combine = spec.reduce;
  return spec;
}

mr::JobSpec InvertedIndexJob(const std::string& input,
                             const std::string& output, int reducers) {
  mr::JobSpec spec;
  spec.name = "invertedindex";
  spec.input_path = input;
  spec.output_dir = output;
  spec.num_reducers = reducers;
  // Document id = the line's byte offset (the map input key).
  spec.map = [](std::string_view key, std::string_view line,
                mr::Emitter& e) {
    Tokenize(line, [&](std::string_view word) { e.Emit(word, key); });
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& e) {
    // Posting list: sorted unique document ids.
    std::set<std::string> docs(values.begin(), values.end());
    std::string posting;
    for (const auto& doc : docs) {
      if (!posting.empty()) posting += ',';
      posting += doc;
    }
    e.Emit(key, posting);
  };
  return spec;
}

mr::JobSpec SequenceCountJob(const std::string& input,
                             const std::string& output, int reducers) {
  mr::JobSpec spec;
  spec.name = "sequencecount";
  spec.input_path = input;
  spec.output_dir = output;
  spec.num_reducers = reducers;
  spec.map = [](std::string_view, std::string_view line, mr::Emitter& e) {
    std::string previous;
    Tokenize(line, [&](std::string_view word) {
      if (!previous.empty()) {
        e.Emit(previous + " " + std::string(word), "1");
      }
      previous.assign(word);
    });
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& e) {
    int64_t sum = 0;
    for (const auto& v : values) sum += std::stoll(v);
    e.Emit(key, std::to_string(sum));
  };
  return spec;
}

mr::JobSpec AdjacencyListJob(const std::string& input,
                             const std::string& output, int reducers) {
  mr::JobSpec spec;
  spec.name = "adjacencylist";
  spec.input_path = input;
  spec.output_dir = output;
  spec.num_reducers = reducers;
  spec.map = [](std::string_view, std::string_view line, mr::Emitter& e) {
    std::vector<std::string> tokens;
    Tokenize(line, [&](std::string_view t) { tokens.emplace_back(t); });
    if (tokens.size() == 2) e.Emit(tokens[0], tokens[1]);
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& e) {
    std::set<std::string> neighbours(values.begin(), values.end());
    std::string list;
    for (const auto& n : neighbours) {
      if (!list.empty()) list += ',';
      list += n;
    }
    e.Emit(key, list);
  };
  return spec;
}

mr::JobSpec SelfJoinJob(const std::string& input, const std::string& output,
                        int reducers) {
  mr::JobSpec spec;
  spec.name = "selfjoin";
  spec.input_path = input;
  spec.output_dir = output;
  spec.num_reducers = reducers;
  // Tarazu selfjoin: join k-1 sized prefixes; emit (prefix, last element),
  // reduce pairs every two elements sharing a prefix.
  spec.map = [](std::string_view, std::string_view line, mr::Emitter& e) {
    std::vector<std::string> tokens;
    Tokenize(line, [&](std::string_view t) { tokens.emplace_back(t); });
    if (tokens.size() < 2) return;
    std::string prefix;
    for (size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (i != 0) prefix += ' ';
      prefix += tokens[i];
    }
    e.Emit(prefix, tokens.back());
  };
  spec.reduce = [](const std::string& key,
                   const std::vector<std::string>& values, mr::Emitter& e) {
    std::set<std::string> unique(values.begin(), values.end());
    std::vector<std::string> sorted(unique.begin(), unique.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      for (size_t j = i + 1; j < sorted.size(); ++j) {
        e.Emit(key, sorted[i] + " " + sorted[j]);
      }
    }
  };
  return spec;
}

}  // namespace jbs::wl
