#include "JbsTidyChecks.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "clang/AST/Attr.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/Expr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/ParentMapContext.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Lex/Lexer.h"
#include "llvm/ADT/DenseSet.h"
#include "llvm/ADT/SmallVector.h"

namespace jbs_tidy {

using namespace clang;
using namespace clang::ast_matchers;

namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// The declaration a member access or variable reference is rooted in:
/// `frame.ext` -> VarDecl(frame), `this->pending_.lease` -> FieldDecl
/// (pending_). Two expressions with the same root decl refer to the same
/// object for our purposes (fields of distinct instances via different
/// pointers are conflated — acceptable for an advisory lint on these
/// narrow idioms).
const ValueDecl* RootDeclOf(const Expr* expr) {
  if (expr == nullptr) return nullptr;
  expr = expr->IgnoreParenImpCasts();
  if (const auto* dre = dyn_cast<DeclRefExpr>(expr)) return dre->getDecl();
  if (const auto* me = dyn_cast<MemberExpr>(expr)) return me->getMemberDecl();
  if (const auto* uo = dyn_cast<UnaryOperator>(expr)) {
    if (uo->getOpcode() == UO_AddrOf || uo->getOpcode() == UO_Deref) {
      return RootDeclOf(uo->getSubExpr());
    }
  }
  return nullptr;
}

/// Source text of a statement, or "" when it spans macro boundaries we
/// cannot recover.
std::string SourceTextOf(const Stmt* stmt, const ASTContext& context) {
  const SourceManager& sm = context.getSourceManager();
  const CharSourceRange range = CharSourceRange::getTokenRange(
      sm.getExpansionRange(stmt->getSourceRange()));
  bool invalid = false;
  const llvm::StringRef text =
      Lexer::getSourceText(range, sm, context.getLangOpts(), &invalid);
  return invalid ? std::string() : text.str();
}

bool HasAnnotation(const Decl* decl, llvm::StringRef exact_or_prefix) {
  if (decl == nullptr) return false;
  for (const auto* attr : decl->specific_attrs<AnnotateAttr>()) {
    if (attr->getAnnotation() == exact_or_prefix ||
        attr->getAnnotation().startswith(
            (exact_or_prefix + ":").str())) {
      return true;
    }
  }
  return false;
}

/// Walks `stmt` and every descendant, invoking `fn` on each (pre-order).
template <typename Fn>
void ForEachDescendant(const Stmt* stmt, Fn&& fn) {
  if (stmt == nullptr) return;
  fn(stmt);
  for (const Stmt* child : stmt->children()) {
    ForEachDescendant(child, fn);
  }
}

/// Nearest ancestor statement of dynamic type T, or null. Stops at the
/// enclosing function boundary.
template <typename T>
const T* NearestAncestor(const Stmt* stmt, ASTContext& context) {
  DynTypedNodeList parents = context.getParents(*stmt);
  while (!parents.empty()) {
    const DynTypedNode node = parents[0];
    if (const auto* hit = node.get<T>()) return hit;
    if (node.get<FunctionDecl>() != nullptr) return nullptr;
    parents = context.getParents(node);
  }
  return nullptr;
}

const FunctionDecl* EnclosingFunction(const Stmt* stmt, ASTContext& context) {
  DynTypedNodeList parents = context.getParents(*stmt);
  while (!parents.empty()) {
    const DynTypedNode node = parents[0];
    if (const auto* fn = node.get<FunctionDecl>()) return fn;
    if (const auto* lambda = node.get<LambdaExpr>()) {
      return lambda->getCallOperator();
    }
    parents = context.getParents(node);
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// jbs-lease-lifetime
// ---------------------------------------------------------------------------

void LeaseLifetimeCheck::RegisterMatchers(MatchFinder* finder) {
  // std::move(<frame-ish>.lease): the hazard source. Frame-ish means the
  // member's parent record is named *Frame and also declares the viewing
  // members we protect (ext/payload).
  finder->addMatcher(
      callExpr(callee(functionDecl(hasName("::std::move"))),
               argumentCountIs(1),
               hasArgument(0, ignoringParenImpCasts(
                                  memberExpr(member(hasName("lease")))
                                      .bind("lease_member"))),
               unless(isExpansionInSystemHeader()))
          .bind("move_call"),
      this);
}

namespace {

bool IsFrameLikeLeaseMember(const MemberExpr* member) {
  const auto* field = dyn_cast<FieldDecl>(member->getMemberDecl());
  if (field == nullptr) return false;
  const RecordDecl* record = field->getParent();
  return record != nullptr && record->getName().endswith("Frame");
}

/// Reads of <base>.ext / .payload rooted in `base_decl` within
/// `stmt` (excluding any subtree of `exclude`).
void CollectHazardReads(const Stmt* stmt, const ValueDecl* base_decl,
                        const Stmt* exclude,
                        llvm::SmallVectorImpl<const MemberExpr*>* out) {
  if (stmt == nullptr || stmt == exclude) return;
  if (const auto* member = dyn_cast<MemberExpr>(stmt)) {
    const llvm::StringRef name = member->getMemberDecl()->getName();
    if ((name == "ext" || name == "payload") &&
        RootDeclOf(member->getBase()) == base_decl) {
      out->push_back(member);
    }
  }
  for (const Stmt* child : stmt->children()) {
    CollectHazardReads(child, base_decl, exclude, out);
  }
}

/// Does `stmt` (re)assign <base>.lease or <base> wholesale? After that
/// the moved-from hazard window is closed.
bool ReassignsLeaseOrBase(const Stmt* stmt, const ValueDecl* base_decl) {
  bool found = false;
  ForEachDescendant(stmt, [&](const Stmt* node) {
    const Expr* lhs = nullptr;
    if (const auto* bin = dyn_cast<BinaryOperator>(node)) {
      if (bin->isAssignmentOp()) lhs = bin->getLHS();
    } else if (const auto* op = dyn_cast<CXXOperatorCallExpr>(node)) {
      if (op->getOperator() == OO_Equal && op->getNumArgs() >= 1) {
        lhs = op->getArg(0);
      }
    }
    if (lhs == nullptr) return;
    lhs = lhs->IgnoreParenImpCasts();
    if (const auto* member = dyn_cast<MemberExpr>(lhs)) {
      if (member->getMemberDecl()->getName() == "lease" &&
          RootDeclOf(member->getBase()) == base_decl) {
        found = true;
      }
    }
    if (RootDeclOf(lhs) == base_decl) found = true;
  });
  return found;
}

}  // namespace

void LeaseLifetimeCheck::run(const MatchFinder::MatchResult& result) {
  const auto* move_call = result.Nodes.getNodeAs<CallExpr>("move_call");
  const auto* lease_member =
      result.Nodes.getNodeAs<MemberExpr>("lease_member");
  if (move_call == nullptr || lease_member == nullptr) return;
  if (!IsFrameLikeLeaseMember(lease_member)) return;
  const ValueDecl* base_decl = RootDeclOf(lease_member->getBase());
  if (base_decl == nullptr) return;
  ASTContext& context = *result.Context;

  // Case 1 — unsequenced sibling argument: the move and a read of
  // ext/payload on the same frame appear as arguments of one call,
  // whose evaluation order is unspecified. Ascend through every call and
  // construct ancestor up to the statement boundary: by-value lease
  // parameters interpose a CXXConstructExpr between the move and the
  // real call, so stopping at the first call-like node would miss it.
  llvm::SmallPtrSet<const MemberExpr*, 8> seen_reads;
  const Stmt* move_stmt = move_call;
  const CompoundStmt* block = nullptr;
  DynTypedNodeList parents = context.getParents(*move_call);
  while (!parents.empty()) {
    const DynTypedNode node = parents[0];
    if (const auto* compound = node.get<CompoundStmt>()) {
      block = compound;
      break;
    }
    const auto* call = node.get<CallExpr>();
    const auto* construct = node.get<CXXConstructExpr>();
    if (call != nullptr || construct != nullptr) {
      const unsigned arg_count =
          call != nullptr ? call->getNumArgs() : construct->getNumArgs();
      for (unsigned i = 0; i < arg_count; ++i) {
        const Expr* arg =
            call != nullptr ? call->getArg(i) : construct->getArg(i);
        llvm::SmallVector<const MemberExpr*, 4> reads;
        CollectHazardReads(arg, base_decl, move_call, &reads);
        for (const MemberExpr* read : reads) {
          if (!seen_reads.insert(read).second) continue;
          Diag(context, read->getMemberLoc(),
               ("read of '" + read->getMemberDecl()->getName() +
                "' is unsequenced with std::move of the same frame's "
                "'lease' in this call; the view may see a moved-from "
                "ownership token — copy the view out first")
                   .str());
        }
      }
    }
    if (node.get<Stmt>() == nullptr) break;
    move_stmt = node.get<Stmt>();
    parents = context.getParents(node);
  }
  if (block == nullptr) return;

  // Case 2 — later sibling statement: after the statement containing the
  // move, reads of ext/payload on the same frame are dereferencing
  // views whose ownership token was given away, until the lease (or the
  // whole frame) is reassigned.

  bool past_move = false;
  for (const Stmt* sibling : block->body()) {
    if (sibling == move_stmt) {
      past_move = true;
      continue;
    }
    if (!past_move) continue;
    if (ReassignsLeaseOrBase(sibling, base_decl)) break;
    llvm::SmallVector<const MemberExpr*, 4> reads;
    CollectHazardReads(sibling, base_decl, /*exclude=*/nullptr, &reads);
    for (const MemberExpr* read : reads) {
      Diag(context, read->getMemberLoc(),
           ("read of '" + read->getMemberDecl()->getName() +
            "' after std::move of the same frame's 'lease'; the view "
            "outlived its ownership token — copy it before the move")
               .str());
    }
    if (!reads.empty()) break;  // one report per hazard window
  }
}

// ---------------------------------------------------------------------------
// jbs-loop-thread-blocking
// ---------------------------------------------------------------------------

namespace {

/// Raw syscalls that block the calling thread. Deliberate absences:
/// sendmsg/recv/pread — the serve path issues them on the loop
/// thread with nonblocking sockets (or eats the bounded disk latency) by
/// design; accept/accept4 — the loop only learns about a listener via
/// epoll readability, so accept on the loop is nonblocking by
/// construction (blocking accept lives on dedicated threads).
bool IsBlockingSyscall(llvm::StringRef name) {
  static const char* kList[] = {
      "sleep",   "usleep",  "nanosleep", "fsync",   "fdatasync", "sync",
      "msync",   "poll",    "ppoll",     "select",  "pselect",   "epoll_wait",
      "connect", "open",    "openat",    "system",
      "wait",    "waitpid", "getaddrinfo"};
  for (const char* entry : kList) {
    if (name == entry) return true;
  }
  return false;
}

bool IsBlockingCallee(const FunctionDecl* callee) {
  if (callee == nullptr) return false;
  if (HasAnnotation(callee, "jbs_blocking")) return true;
  // Raw syscalls are declared in the global namespace (extern "C").
  if (callee->getDeclContext()->isTranslationUnit() ||
      callee->isExternC()) {
    return IsBlockingSyscall(callee->getName());
  }
  return false;
}

bool IsLoopRegistration(const CXXMemberCallExpr* call) {
  const CXXMethodDecl* method = call->getMethodDecl();
  if (method == nullptr) return false;
  const llvm::StringRef name = method->getName();
  if (name != "Add" && name != "RunInLoop") {
    return false;
  }
  // Require a loop-ish receiver so unrelated Add() methods don't turn
  // their callbacks into roots.
  const CXXRecordDecl* record = method->getParent();
  return record != nullptr && record->getName().contains("Loop");
}

void CollectLambdaOperators(
    const Stmt* stmt,
    llvm::SmallVectorImpl<const CXXMethodDecl*>* out) {
  ForEachDescendant(stmt, [&](const Stmt* node) {
    if (const auto* lambda = dyn_cast<LambdaExpr>(node)) {
      if (const CXXMethodDecl* op = lambda->getCallOperator()) {
        if (op->hasBody()) out->push_back(op);
      }
    }
  });
}

}  // namespace

void LoopThreadBlockingCheck::RegisterMatchers(MatchFinder* finder) {
  finder->addMatcher(functionDecl(isDefinition(), hasBody(stmt()),
                                  unless(isExpansionInSystemHeader()))
                         .bind("fn"),
                     this);
  finder->addMatcher(
      cxxMemberCallExpr(unless(isExpansionInSystemHeader())).bind("reg"),
      this);
  finder->addMatcher(
      binaryOperator(isAssignmentOperator(),
                     hasLHS(ignoringParenImpCasts(memberExpr(
                         member(hasAnyName("on_frame", "on_disconnect",
                                           "on_accept"))))),
                     unless(isExpansionInSystemHeader()))
          .bind("handler_assign"),
      this);
}

void LoopThreadBlockingCheck::run(const MatchFinder::MatchResult& result) {
  context_ = result.Context;

  if (const auto* fn = result.Nodes.getNodeAs<FunctionDecl>("fn")) {
    const FunctionDecl* key = fn->getCanonicalDecl();
    Node& node = nodes_[key];
    if (const auto* method = dyn_cast<CXXMethodDecl>(fn)) {
      const llvm::StringRef name = method->getName();
      if (name == "OnFrame" || name == "OnDisconnect") node.is_root = true;
    }
    if (HasAnnotation(fn, "jbs_allow_blocking")) node.allow_blocking = true;
    node.display_name = fn->getQualifiedNameAsString();
    // Record in-TU call edges and blocking leaves. Lambdas created in
    // this body are NOT edges — they run when invoked, which the root
    // matchers model; invoking one through a variable is out of scope.
    ForEachDescendant(fn->getBody(), [&](const Stmt* stmt) {
      const auto* call = dyn_cast<CallExpr>(stmt);
      if (call == nullptr) return;
      const FunctionDecl* callee = call->getDirectCallee();
      if (callee == nullptr) return;
      if (IsBlockingCallee(callee)) {
        nodes_[key].blocking_calls.push_back(
            {call->getBeginLoc(), callee->getQualifiedNameAsString()});
        return;
      }
      const FunctionDecl* def = callee->getDefinition();
      if (def != nullptr) {
        nodes_[key].callees.push_back(def->getCanonicalDecl());
      }
    });
    return;
  }

  llvm::SmallVector<const CXXMethodDecl*, 4> roots;
  if (const auto* reg = result.Nodes.getNodeAs<CXXMemberCallExpr>("reg")) {
    if (!IsLoopRegistration(reg)) return;
    for (unsigned i = 0; i < reg->getNumArgs(); ++i) {
      CollectLambdaOperators(reg->getArg(i), &roots);
    }
  } else if (const auto* assign =
                 result.Nodes.getNodeAs<BinaryOperator>("handler_assign")) {
    CollectLambdaOperators(assign->getRHS(), &roots);
  }
  for (const CXXMethodDecl* op : roots) {
    Node& node = nodes_[op->getCanonicalDecl()];
    node.is_root = true;
    if (node.display_name.empty()) node.display_name = "lambda";
  }
}

void LoopThreadBlockingCheck::onEndOfTranslationUnit() {
  if (context_ == nullptr) return;
  llvm::DenseSet<unsigned> reported;  // by encoded source location
  for (const auto& entry : nodes_) {
    const Node& root = entry.second;
    if (!root.is_root || root.allow_blocking) continue;
    // DFS over in-TU callees from this root.
    llvm::SmallVector<const FunctionDecl*, 16> stack{entry.first};
    llvm::DenseSet<const FunctionDecl*> visited;
    while (!stack.empty()) {
      const FunctionDecl* fn = stack.pop_back_val();
      if (!visited.insert(fn).second) continue;
      const auto it = nodes_.find(fn);
      if (it == nodes_.end()) continue;
      const Node& node = it->second;
      if (node.allow_blocking) continue;
      for (const BlockingSite& site : node.blocking_calls) {
        if (!reported.insert(site.loc.getRawEncoding()).second) continue;
        Diag(*context_, site.loc,
             ("blocking call '" + site.callee +
              "' is reachable from event-loop context (root: '" +
              root.display_name +
              "'); move it off the loop thread, use the nonblocking "
              "variant, or annotate the caller JBS_ALLOW_BLOCKING"));
      }
      for (const FunctionDecl* callee : node.callees) stack.push_back(callee);
    }
  }
  nodes_.clear();
  context_ = nullptr;
}

// ---------------------------------------------------------------------------
// jbs-eintr-retry
// ---------------------------------------------------------------------------

void EintrRetryCheck::RegisterMatchers(MatchFinder* finder) {
  // Interruptible syscalls whose -1 result demands an EINTR decision.
  // close(2) is deliberately absent: retrying close is wrong (the fd is
  // gone either way on Linux). sleep-family is absent: early wakeup is
  // not an error there.
  finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName(
                   "::read", "::write", "::readv", "::writev", "::pread",
                   "::pwrite", "::preadv", "::pwritev", "::recv", "::send",
                   "::recvfrom", "::sendto", "::recvmsg", "::sendmsg",
                   "::accept", "::accept4", "::connect", "::open", "::openat",
                   "::epoll_wait", "::poll", "::ppoll", "::select",
                   "::splice", "::flock", "::waitpid",
                   "::eventfd_read", "::eventfd_write"))),
               unless(isExpansionInSystemHeader()))
          .bind("syscall"),
      this);
}

void EintrRetryCheck::run(const MatchFinder::MatchResult& result) {
  const auto* call = result.Nodes.getNodeAs<CallExpr>("syscall");
  if (call == nullptr) return;
  ASTContext& context = *result.Context;

  // Pass if the nearest enclosing loop mentions EINTR (the retry idiom),
  // else if the enclosing function mentions it anywhere (delegated
  // handling: a retry wrapper, a switch on errno, a comment justifying
  // the policy). EINTR is macro-expanded before the AST exists, so this
  // is a source-text property by construction.
  const Stmt* scope = nullptr;
  if (const auto* loop = NearestAncestor<WhileStmt>(call, context)) {
    scope = loop;
  } else if (const auto* loop = NearestAncestor<ForStmt>(call, context)) {
    scope = loop;
  } else if (const auto* loop = NearestAncestor<DoStmt>(call, context)) {
    scope = loop;
  }
  if (scope != nullptr &&
      SourceTextOf(scope, context).find("EINTR") != std::string::npos) {
    return;
  }
  const FunctionDecl* fn = EnclosingFunction(call, context);
  if (fn != nullptr && fn->hasBody() &&
      SourceTextOf(fn->getBody(), context).find("EINTR") !=
          std::string::npos) {
    return;
  }
  const FunctionDecl* callee = call->getDirectCallee();
  Diag(context, call->getBeginLoc(),
       ("'" + (callee != nullptr ? callee->getNameAsString()
                                 : std::string("syscall")) +
        "' can fail with EINTR but nothing in this function handles it; "
        "retry on EINTR or NOLINT with the reason it cannot occur here"));
}

// ---------------------------------------------------------------------------
// jbs-lock-order
// ---------------------------------------------------------------------------

namespace {

bool IsMutexType(QualType type) {
  const CXXRecordDecl* record = type.getCanonicalType()->getAsCXXRecordDecl();
  return record != nullptr && record->getName() == "Mutex";
}

/// Resolves a capability expression (REQUIRES arg, MutexLock ctor arg,
/// Lock() receiver) to the Mutex declaration it names. Only members and
/// globals have a stable cross-TU identity; locals/params return null
/// and the edge is skipped.
const ValueDecl* CapabilityDeclOf(const Expr* expr) {
  if (expr == nullptr) return nullptr;
  expr = expr->IgnoreParenImpCasts();
  if (const auto* uo = dyn_cast<UnaryOperator>(expr)) {
    if (uo->getOpcode() == UO_AddrOf || uo->getOpcode() == UO_Deref) {
      return CapabilityDeclOf(uo->getSubExpr());
    }
  }
  if (const auto* member = dyn_cast<MemberExpr>(expr)) {
    const auto* field = dyn_cast<FieldDecl>(member->getMemberDecl());
    if (field != nullptr && IsMutexType(field->getType())) return field;
    return nullptr;
  }
  if (const auto* dre = dyn_cast<DeclRefExpr>(expr)) {
    const auto* var = dyn_cast<VarDecl>(dre->getDecl());
    if (var != nullptr && var->hasGlobalStorage() &&
        IsMutexType(var->getType())) {
      return var;
    }
  }
  return nullptr;
}

std::string LocString(SourceLocation loc, const SourceManager& sm) {
  const PresumedLoc presumed = sm.getPresumedLoc(sm.getExpansionLoc(loc));
  if (presumed.isInvalid()) return "<unknown>";
  return std::string(presumed.getFilename()) + ":" +
         std::to_string(presumed.getLine());
}

}  // namespace

void LockOrderCheck::RegisterMatchers(MatchFinder* finder) {
  finder->addMatcher(functionDecl(isDefinition(), hasBody(stmt()),
                                  unless(isExpansionInSystemHeader()))
                         .bind("fn"),
                     this);
}

void LockOrderCheck::run(const MatchFinder::MatchResult& result) {
  const auto* fn = result.Nodes.getNodeAs<FunctionDecl>("fn");
  if (fn == nullptr) return;
  context_ = result.Context;
  const SourceManager& sm = context_->getSourceManager();

  // Entry-held set: the REQUIRES(...) contract. TSA has already proven
  // callers hold these, so they are ground truth, not inference.
  llvm::SmallVector<const ValueDecl*, 4> held;
  if (const auto* requires_attr = fn->getAttr<RequiresCapabilityAttr>()) {
    for (const Expr* arg : requires_attr->args()) {
      if (const ValueDecl* cap = CapabilityDeclOf(arg)) held.push_back(cap);
    }
  }

  // Walk the body in statement order, simulating the held stack.
  // MutexLock locals release at the end of their enclosing compound;
  // bare Lock() holds until a matching Unlock() or function end.
  struct Walker {
    LockOrderCheck* check;
    ASTContext* context;
    const SourceManager* sm;
    llvm::SmallVector<const ValueDecl*, 8>* held;

    void RecordAcquire(const ValueDecl* cap, SourceLocation loc) {
      for (const ValueDecl* h : *held) {
        if (h == cap) return;  // relock of a held capability: not an edge
      }
      for (const ValueDecl* h : *held) {
        jbs::lockgraph::Edge edge;
        edge.from = h->getQualifiedNameAsString();
        edge.to = cap->getQualifiedNameAsString();
        edge.at = LocString(loc, *sm);
        const size_t before = check->graph_.edges().size();
        check->graph_.Add(edge);
        if (check->graph_.edges().size() > before) {
          check->edge_locs_[static_cast<unsigned>(before)] = loc;
        }
      }
    }

    const ValueDecl* AcquiredBy(const Stmt* stmt, SourceLocation* loc) {
      if (const auto* decl_stmt = dyn_cast<DeclStmt>(stmt)) {
        for (const Decl* decl : decl_stmt->decls()) {
          const auto* var = dyn_cast<VarDecl>(decl);
          if (var == nullptr || !var->hasInit()) continue;
          const CXXRecordDecl* record =
              var->getType().getCanonicalType()->getAsCXXRecordDecl();
          if (record == nullptr || record->getName() != "MutexLock") {
            continue;
          }
          const Expr* init = var->getInit()->IgnoreImplicit();
          if (const auto* construct = dyn_cast<CXXConstructExpr>(init)) {
            if (construct->getNumArgs() >= 1) {
              *loc = var->getLocation();
              return CapabilityDeclOf(construct->getArg(0));
            }
          }
        }
      }
      return nullptr;
    }

    void Walk(const Stmt* stmt) {
      if (stmt == nullptr) return;
      if (const auto* compound = dyn_cast<CompoundStmt>(stmt)) {
        const size_t depth = held->size();
        for (const Stmt* child : compound->body()) {
          SourceLocation loc;
          if (const ValueDecl* cap = AcquiredBy(child, &loc)) {
            RecordAcquire(cap, loc);
            held->push_back(cap);
            continue;  // scoped: stays held for the rest of this block
          }
          Walk(child);
        }
        held->resize(depth);
        return;
      }
      if (const auto* call = dyn_cast<CXXMemberCallExpr>(stmt)) {
        const CXXMethodDecl* method = call->getMethodDecl();
        if (method != nullptr && method->getParent() != nullptr &&
            method->getParent()->getName() == "Mutex") {
          const ValueDecl* cap =
              CapabilityDeclOf(call->getImplicitObjectArgument());
          if (cap != nullptr) {
            if (method->getName() == "Lock" ||
                method->getName() == "TryLock") {
              RecordAcquire(cap, call->getBeginLoc());
              held->push_back(cap);
            } else if (method->getName() == "Unlock") {
              for (size_t i = held->size(); i > 0; --i) {
                if ((*held)[i - 1] == cap) {
                  held->erase(held->begin() + (i - 1));
                  break;
                }
              }
            }
          }
        }
      }
      for (const Stmt* child : stmt->children()) Walk(child);
    }
  };

  llvm::SmallVector<const ValueDecl*, 8> held_stack(held.begin(), held.end());
  Walker walker{this, context_, &sm, &held_stack};
  walker.Walk(fn->getBody());
}

void LockOrderCheck::onEndOfTranslationUnit() {
  if (context_ == nullptr) return;

  // Export every edge for the cross-TU merge before diagnosing, so a
  // per-TU failure still contributes evidence to the union graph.
  if (const char* out_path = std::getenv("JBS_LOCK_GRAPH_OUT")) {
    std::string lines;
    for (const auto& edge : graph_.edges()) {
      lines += jbs::lockgraph::ToYamlLine(edge);
      lines += '\n';
    }
    if (!lines.empty()) {
      std::ofstream out(out_path, std::ios::app);
      out << lines;
    }
  }

  const auto cycle = graph_.FindCycle();
  if (!cycle.empty()) {
    std::string message =
        "lock-order cycle within this translation unit:";
    for (const auto& edge : cycle) {
      message += " [" + edge.from + " -> " + edge.to + " at " + edge.at + "]";
    }
    message +=
        "; two threads taking these chains concurrently can deadlock";
    // Anchor the diagnostic at the acquisition that closed the cycle.
    SourceLocation loc;
    for (size_t i = 0; i < graph_.edges().size(); ++i) {
      if (graph_.edges()[i] == cycle.back()) {
        const auto it = edge_locs_.find(static_cast<unsigned>(i));
        if (it != edge_locs_.end()) loc = it->second;
        break;
      }
    }
    Diag(*context_, loc, message);
  }
  graph_ = jbs::lockgraph::Graph();
  edge_locs_.clear();
  context_ = nullptr;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

std::vector<std::string> AllCheckNames() {
  return {"jbs-lease-lifetime", "jbs-loop-thread-blocking", "jbs-eintr-retry",
          "jbs-lock-order"};
}

std::vector<std::unique_ptr<JbsCheck>> MakeAllChecks(DiagReporter* reporter,
                                                     llvm::StringRef filter) {
  const bool all = filter.empty() || filter == "*";
  auto wanted = [&](llvm::StringRef name) {
    if (all) return true;
    llvm::SmallVector<llvm::StringRef, 4> parts;
    filter.split(parts, ',', -1, /*KeepEmpty=*/false);
    for (llvm::StringRef part : parts) {
      if (part.trim() == name) return true;
    }
    return false;
  };
  std::vector<std::unique_ptr<JbsCheck>> checks;
  if (wanted("jbs-lease-lifetime")) {
    checks.push_back(std::make_unique<LeaseLifetimeCheck>(reporter));
  }
  if (wanted("jbs-loop-thread-blocking")) {
    checks.push_back(std::make_unique<LoopThreadBlockingCheck>(reporter));
  }
  if (wanted("jbs-eintr-retry")) {
    checks.push_back(std::make_unique<EintrRetryCheck>(reporter));
  }
  if (wanted("jbs-lock-order")) {
    checks.push_back(std::make_unique<LockOrderCheck>(reporter));
  }
  return checks;
}

}  // namespace jbs_tidy
