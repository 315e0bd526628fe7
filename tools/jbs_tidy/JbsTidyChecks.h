// jbs-tidy: four clang checks for this repository's own invariants
// (DESIGN.md §17), each distilled from a bug class we actually shipped
// and fixed:
//
//   jbs-lease-lifetime      zero-copy rework: reads of Frame::ext/payload
//                           sequenced after (or unsequenced with) a
//                           std::move of the same frame's `lease`.
//   jbs-loop-thread-blocking PR 5: blocking calls reachable from event-
//                           loop fd callbacks, RunInLoop lambdas, and
//                           OnFrame/OnDisconnect handlers.
//   jbs-eintr-retry         PR 8: raw syscall sites whose failure path
//                           never considers EINTR.
//   jbs-lock-order          PR 5's TSA annotations as ground truth: the
//                           per-TU Mutex acquisition graph must be
//                           acyclic; edges are exported to a YAML
//                           sidecar ($JBS_LOCK_GRAPH_OUT) and merged
//                           across TUs by the jbs_lock_graph tool.
//
// The check logic is engine-agnostic: it depends on clang AST/ASTMatchers
// only and reports through a DiagReporter, so the same classes power both
// the standalone `jbs-tidy` libTooling driver (tool_main.cpp, used by the
// fixture self-tests and the CI gate) and the clang-tidy plugin module
// (JbsTidyModule.cpp, loaded with `clang-tidy -load`).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/Basic/SourceLocation.h"
#include "llvm/ADT/StringRef.h"

#include "lock_graph.h"

namespace jbs_tidy {

/// Where diagnostics go. The standalone driver prints them through the
/// compiler's DiagnosticsEngine (with NOLINT suppression handled here);
/// the clang-tidy module forwards to ClangTidyCheck::diag, which applies
/// clang-tidy's own NOLINT machinery.
class DiagReporter {
 public:
  virtual ~DiagReporter() = default;
  virtual void Report(clang::ASTContext& context, clang::SourceLocation loc,
                      llvm::StringRef check, llvm::StringRef message) = 0;
};

/// One jbs-* check: registers its matchers, reports through `reporter`.
class JbsCheck : public clang::ast_matchers::MatchFinder::MatchCallback {
 public:
  explicit JbsCheck(DiagReporter* reporter) : reporter_(reporter) {}
  ~JbsCheck() override = default;

  virtual llvm::StringRef name() const = 0;
  virtual void RegisterMatchers(clang::ast_matchers::MatchFinder* finder) = 0;

 protected:
  void Diag(clang::ASTContext& context, clang::SourceLocation loc,
            llvm::StringRef message) {
    reporter_->Report(context, loc, name(), message);
  }

  DiagReporter* reporter_;
};

/// PR 6 bug class: `use(frame.ext, std::move(frame.lease))` — argument
/// evaluation order is unspecified, so the ext/payload read can see
/// a moved-from lease; and any read of those members in a statement after
/// the move (until the lease is reassigned) dereferences a view whose
/// ownership token this frame no longer holds. Applies to record types
/// whose name ends in "Frame" (Frame, OutFrame) with a `lease` member.
class LeaseLifetimeCheck : public JbsCheck {
 public:
  using JbsCheck::JbsCheck;
  llvm::StringRef name() const override { return "jbs-lease-lifetime"; }
  void RegisterMatchers(clang::ast_matchers::MatchFinder* finder) override;
  void run(const clang::ast_matchers::MatchFinder::MatchResult& result)
      override;
};

/// PR 5 bug class (fd_cache held open(2) under a lock on the hot path):
/// blocking calls must not be reachable from event-loop context. Roots:
/// lambdas passed to EventLoop::Add / RunInLoop,
/// lambdas assigned to `.on_frame` / `.on_disconnect` / `.on_accept`
/// handler members, and methods named OnFrame / OnDisconnect. Blocking
/// leaves: a curated syscall/helper list plus anything annotated
/// JBS_BLOCKING; JBS_ALLOW_BLOCKING("why") on a function exempts it and
/// everything it calls. The call graph is per-TU — calls that resolve to
/// bodies outside the TU (e.g. virtuals through an interface) are not
/// followed, which keeps the check conservative.
class LoopThreadBlockingCheck : public JbsCheck {
 public:
  using JbsCheck::JbsCheck;
  llvm::StringRef name() const override { return "jbs-loop-thread-blocking"; }
  void RegisterMatchers(clang::ast_matchers::MatchFinder* finder) override;
  void run(const clang::ast_matchers::MatchFinder::MatchResult& result)
      override;
  void onEndOfTranslationUnit() override;

 private:
  struct BlockingSite {
    clang::SourceLocation loc;
    std::string callee;
  };
  struct Node {
    std::string display_name;
    bool is_root = false;
    bool allow_blocking = false;
    std::vector<const clang::FunctionDecl*> callees;
    std::vector<BlockingSite> blocking_calls;
  };
  llvm::DenseMap<const clang::FunctionDecl*, Node> nodes_;
  clang::ASTContext* context_ = nullptr;
};

/// PR 8 bug class: a raw syscall returning -1/EINTR after a signal storm
/// must be resumed, not surfaced as an I/O error. A listed syscall site
/// passes when its nearest enclosing loop — or, failing that, the
/// enclosing function — mentions EINTR; otherwise the function has made
/// no retry provision at all and the site is flagged. Deliberately
/// coarse: it locks in "this function thought about EINTR", the property
/// PR 8's sweep restored, with near-zero false positives.
class EintrRetryCheck : public JbsCheck {
 public:
  using JbsCheck::JbsCheck;
  llvm::StringRef name() const override { return "jbs-eintr-retry"; }
  void RegisterMatchers(clang::ast_matchers::MatchFinder* finder) override;
  void run(const clang::ast_matchers::MatchFinder::MatchResult& result)
      override;
};

/// Extracts the per-TU Mutex acquisition graph: which capabilities
/// (REQUIRES(...) entry contracts, enclosing MutexLock scopes) are held
/// when another Mutex is acquired. Capabilities are named by the
/// qualified Mutex member/global declaration; locals and reference
/// parameters have no stable cross-TU identity and are skipped. Cycles
/// within the TU are diagnosed directly; all edges are appended to
/// $JBS_LOCK_GRAPH_OUT (when set) for the cross-TU jbs_lock_graph merge.
class LockOrderCheck : public JbsCheck {
 public:
  using JbsCheck::JbsCheck;
  llvm::StringRef name() const override { return "jbs-lock-order"; }
  void RegisterMatchers(clang::ast_matchers::MatchFinder* finder) override;
  void run(const clang::ast_matchers::MatchFinder::MatchResult& result)
      override;
  void onEndOfTranslationUnit() override;

 private:
  jbs::lockgraph::Graph graph_;
  llvm::DenseMap<unsigned, clang::SourceLocation> edge_locs_;  // by index
  clang::ASTContext* context_ = nullptr;
};

/// All four checks, in gate order. `filter` is a comma-separated list of
/// check names ("*" or empty = all).
std::vector<std::unique_ptr<JbsCheck>> MakeAllChecks(DiagReporter* reporter,
                                                     llvm::StringRef filter);

/// The four check names, for --list-checks and the plugin-load test.
std::vector<std::string> AllCheckNames();

}  // namespace jbs_tidy
