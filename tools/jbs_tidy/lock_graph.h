// Cross-TU half of the jbs-lock-order check (DESIGN.md §17).
//
// The clang side (LockOrderCheck in JbsTidyChecks.cpp) sees one TU at a
// time: it extracts "capability A was held when capability B was
// acquired" edges from the TSA annotations and MutexLock scopes, and
// appends them to a YAML sidecar named by $JBS_LOCK_GRAPH_OUT. A lock
// cycle that spans translation units — NetMerger takes its lock then
// calls into ConnectionManager, ConnectionManager's eviction callback runs
// under its own lock — is invisible per-TU, so the CI gate merges every
// sidecar with the `jbs_lock_graph` tool built from this header and
// fails on any cycle in the union graph.
//
// This half has NO clang dependency: it builds and unit-tests in every
// configuration (including the plain gcc tier-1 build), so the cycle
// detector itself is covered even where the clang toolchain is absent.
//
// Sidecar format, one acquisition edge per line (a YAML flow-mapping
// sequence; `#` comments and blank lines ignored):
//
//   - {from: "jbs::NetMerger::mu_", to: "jbs::DataCache::mu_", at: "src/jbs/net_merger.cpp:311"}
//
// Capabilities are named by the qualified declaration of the Mutex
// member; `at` is the acquisition site that established the edge (first
// writer wins on duplicates — edges are set-valued, sites are evidence).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace jbs::lockgraph {

struct Edge {
  std::string from;  // capability held
  std::string to;    // capability acquired while `from` was held
  std::string at;    // file:line of the acquisition that recorded it

  bool operator==(const Edge& other) const {
    return from == other.from && to == other.to;
  }
};

/// Serializes one edge as a sidecar line (no trailing newline).
std::string ToYamlLine(const Edge& edge);

struct ParseResult {
  std::vector<Edge> edges;
  /// One "line N: why" entry per malformed line; empty means clean.
  std::vector<std::string> errors;
};

/// Parses sidecar text. Malformed lines are reported, not fatal — a
/// truncated concurrent append must not mask a cycle elsewhere.
ParseResult ParseSidecar(std::string_view text);

/// Directed acquisition graph with set-valued edges.
class Graph {
 public:
  /// Adds an edge; duplicates (same from/to) keep the first `at` site.
  /// Self-edges (relock through a condvar round trip) are ignored — the
  /// runtime detector owns recursive-acquisition semantics.
  void Add(const Edge& edge);

  /// Returns the edges of one lock-order cycle in traversal order
  /// (to-of-last == from-of-first), or empty when the graph is acyclic.
  std::vector<Edge> FindCycle() const;

  /// Graphviz dump for debugging CI failures by eye.
  std::string ToDot() const;

  const std::vector<Edge>& edges() const { return edges_; }

 private:
  std::vector<Edge> edges_;
};

}  // namespace jbs::lockgraph
