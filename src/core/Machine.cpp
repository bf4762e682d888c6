//===- core/Machine.cpp - Machine driver, dispatch, control transfer -------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include "libc/Builtins.h"
#include "support/Strings.h"

#include <cassert>

using namespace cundef;

const char *cundef::kKindName(KKind K) {
  switch (K) {
  case KKind::Expr:           return "expr";
  case KKind::Stmt:           return "stmt";
  case KKind::EvalOperands:   return "eval-operands";
  case KKind::LvToRv:         return "lvalue-to-rvalue";
  case KKind::CastApply:      return "cast";
  case KKind::LogicRhs:       return "logic-rhs";
  case KKind::LogicDone:      return "logic-done";
  case KKind::CondPick:       return "cond-pick";
  case KKind::Pop:            return "pop";
  case KKind::SeqPoint:       return "sequence-point";
  case KKind::InitVar:        return "init-var";
  case KKind::StoreTo:        return "store-to";
  case KKind::LeaveBlock:     return "leave-block";
  case KKind::IfDecide:       return "if-decide";
  case KKind::WhileTest:      return "while-test";
  case KKind::WhileDecide:    return "while-decide";
  case KKind::DoTest:         return "do-test";
  case KKind::DoDecide:       return "do-decide";
  case KKind::ForTest:        return "for-test";
  case KKind::ForDecide:      return "for-decide";
  case KKind::ForInc:         return "for-inc";
  case KKind::SwitchDispatch: return "switch-dispatch";
  case KKind::SwitchEnd:      return "switch-end";
  case KKind::DoReturn:       return "do-return";
  case KKind::CallReturn:     return "call-return";
  }
  return "?";
}

std::string Configuration::describeCells() const {
  std::string Out;
  Out += "<T>\n";
  Out += strFormat("  <k>              %zu item(s)\n", K.size());
  Out += strFormat("  <genv>           %zu binding(s)\n", GlobalEnv.size());
  Out += strFormat("  <mem>            %zu object(s)\n",
                   Mem.objects().size());
  Out += strFormat("  <locsWrittenTo>  %zu location(s)\n",
                   LocsWrittenTo.size());
  Out += strFormat("  <notWritable>    %zu location(s)\n",
                   NotWritable.size());
  Out += "  <control>\n";
  Out += strFormat("    <env>          %zu binding(s)\n",
                   CallStack.empty() ? 0 : CallStack.back().Env.size());
  Out += strFormat("  <callStack>      %zu frame(s)\n", CallStack.size());
  Out += strFormat("  <out>            %zu byte(s)\n", Output.size());
  Out += "</T>\n";
  return Out;
}

const char *RuleChain::apply(Machine &M, RuleContext &Ctx) const {
  for (auto It = Rules.rbegin(); It != Rules.rend(); ++It)
    if (It->Body(M, Ctx))
      return It->Name.c_str();
  return nullptr;
}

std::vector<std::string> RuleChain::names() const {
  std::vector<std::string> Names;
  for (const Rule &R : Rules)
    Names.push_back(R.Name);
  return Names;
}

Machine::Machine(const AstContext &Ctx, MachineOptions Opts, UbSink &Sink)
    : Ctx(Ctx), Opts(Opts), Sink(Sink),
      Chooser(Opts.Order, Opts.Seed) {
  buildRuleChains();
  if (Opts.Style == RuleStyle::Declarative && Opts.Strict) {
    OwnedMonitors = makeDeclarativeMonitors();
    for (auto &M : OwnedMonitors)
      Monitors.push_back(M.get());
  }
}

Machine::Machine(const AstContext &Ctx, MachineOptions Opts, UbSink &Sink,
                 const MachineSnapshot &Snap, std::vector<uint8_t> Decisions)
    : Ctx(Ctx), Opts(Opts), Sink(Sink), Conf(Snap.Conf),
      Chooser(Snap.Chooser) {
  // The configuration copy is cheap: memory objects are shared
  // copy-on-write and only cloned when this fork first writes them.
  Chooser.resumeReplay(std::move(Decisions));
  buildRuleChains();
  assert(Opts.Style != RuleStyle::Declarative &&
         "declarative monitors carry state a snapshot cannot capture");
}

MachineSnapshot Machine::captureChoiceSnapshot() const {
  assert(PendingChoiceNode && "only valid inside a BeforeChoiceHook");
  MachineSnapshot Snap{Conf, Chooser};
  // Rewind to the top of the in-flight step: the expression item whose
  // operand scheduling triggered the choice was already popped (and
  // nothing else happened since — scheduleOperands is its first
  // effect), and the step counter was already bumped. Restoring both
  // makes resumption re-execute the step exactly as a from-scratch
  // replay would.
  Snap.Conf.K.push_back(KItem::expr(PendingChoiceNode));
  --Snap.Conf.Steps;
  return Snap;
}

std::string Machine::currentFunctionName() const {
  if (Conf.CallStack.empty() || !Conf.CallStack.back().Fn)
    return "<startup>";
  return Ctx.Interner.str(Conf.CallStack.back().Fn->Name);
}

void Machine::flagUb(UbKind Kind, SourceLoc Loc) {
  Sink.report(Kind, currentFunctionName(), Loc);
  if (Opts.Strict && Opts.StopAtFirstUb)
    Conf.Status = RunStatus::UbDetected;
}

void Machine::flagUbCode(uint16_t CatalogId, SourceLoc Loc) {
  flagUb(static_cast<UbKind>(CatalogId), Loc);
}

void Machine::fault(const char *Why, SourceLoc Loc) {
  Sink.report(UbReport(UbKind::None,
                       strFormat("hardware fault: %s", Why),
                       currentFunctionName(), Loc));
  Conf.Status = RunStatus::Fault;
}

void Machine::seqPoint() {
  Conf.LocsWrittenTo.clear();
  for (ExecMonitor *M : Monitors)
    M->onSeqPoint(*this);
}

uint32_t Machine::functionObject(const FunctionDecl *F) {
  auto It = Conf.FuncObjects.find(F);
  if (It != Conf.FuncObjects.end())
    return It->second;
  uint32_t Id = Conf.Mem.createFunction(F, F->Name);
  Conf.FuncObjects[F] = Id;
  Conf.FuncByObject[Id] = F;
  return Id;
}

uint32_t Machine::literalObject(const StringLitExpr *S) {
  auto It = Conf.LiteralObjects.find(S);
  if (It != Conf.LiteralObjects.end())
    return It->second;
  uint64_t Size = S->Bytes.size() + 1;
  uint32_t Id = Conf.Mem.create(StorageKind::Literal, Size, S->Ty, NoSymbol);
  MemObject *Obj = Conf.Mem.mutate(Id);
  for (size_t I = 0; I < S->Bytes.size(); ++I)
    Obj->Bytes.mut(I) = Byte::concrete(static_cast<uint8_t>(S->Bytes[I]));
  Obj->Bytes.mut(S->Bytes.size()) = Byte::concrete(0);
  // String literals are not writable (modifying one is UB 18).
  for (uint64_t I = 0; I < Size; ++I)
    Conf.NotWritable.insert({Id, static_cast<int64_t>(I)});
  Conf.LiteralObjects[S] = Id;
  for (ExecMonitor *M : Monitors)
    M->onAlloc(*this, *Obj);
  return Id;
}

uint32_t Machine::createObjectForDecl(const VarDecl *D,
                                      StorageKind Storage) {
  uint64_t Size = D->Ty.Ty->isCompleteObjectType() ? Ctx.Types.sizeOf(D->Ty)
                                                   : 0;
  // Absurd extents (e.g. the statically-flagged int a[-1]) get a
  // zero-size object: any access is then out of bounds.
  if (Size > (1ull << 24))
    Size = 0;
  uint32_t Id = Conf.Mem.create(Storage, Size, D->Ty, D->Name);
  if (Storage == StorageKind::Global || Storage == StorageKind::StaticLocal)
    zeroFill(Id, 0, Size); // static storage duration is zero-initialized
  if (Opts.TrackConst)
    protectConstRanges(Id, D->Ty, 0);
  for (ExecMonitor *M : Monitors)
    M->onAlloc(*this, *Conf.Mem.find(Id));
  return Id;
}

void Machine::zeroFill(uint32_t ObjId, uint64_t Offset, uint64_t Len) {
  MemObject *Obj = Conf.Mem.mutate(ObjId);
  assert(Obj && "zeroFill of unknown object");
  Obj->Bytes.fill(Offset, Len, Byte::concrete(0));
}

/// Whether any part of \p Ty is const-qualified.
static bool containsConst(QualType Ty) {
  const Type *T = Ty.Ty;
  if (!T)
    return false;
  if (Ty.isConst())
    return true;
  if (T->isArray())
    return containsConst(T->Pointee);
  if (T->isRecord() && T->Record->Complete)
    for (const FieldInfo &Field : T->Record->Fields)
      if (containsConst(Field.Ty))
        return true;
  return false;
}

void Machine::protectConstRanges(uint32_t ObjId, QualType Ty,
                                 uint64_t Offset) {
  const Type *T = Ty.Ty;
  if (!T || !containsConst(Ty))
    return;
  const MemObject *Obj = Conf.Mem.find(ObjId);
  uint64_t Bound = Obj ? Obj->Size : 0;
  if (Ty.isConst()) {
    if (Offset >= Bound)
      return;
    uint64_t Size = std::min(Ctx.Types.sizeOf(Ty), Bound - Offset);
    for (uint64_t I = 0; I < Size; ++I)
      Conf.NotWritable.insert({ObjId, static_cast<int64_t>(Offset + I)});
    return;
  }
  if (T->isArray()) {
    uint64_t ElemSize = Ctx.Types.sizeOf(T->Pointee);
    if (ElemSize == 0)
      return;
    uint64_t Count = std::min<uint64_t>(T->ArraySize,
                                        Bound / ElemSize + 1);
    for (uint64_t I = 0; I < Count; ++I)
      protectConstRanges(ObjId, T->Pointee, Offset + I * ElemSize);
    return;
  }
  if (T->isRecord()) {
    for (const FieldInfo &Field : T->Record->Fields)
      protectConstRanges(ObjId, Field.Ty, Offset + Field.Offset);
  }
}

/// Collects static-duration locals in a function body.
static void collectStaticLocals(const Stmt *S,
                                std::vector<const VarDecl *> &Out) {
  if (!S)
    return;
  switch (S->Kind) {
  case StmtKind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
      collectStaticLocals(Sub, Out);
    return;
  case StmtKind::Decl:
    for (const VarDecl *V : cast<DeclStmt>(S)->Decls)
      if (V->Storage == StorageClass::Static)
        Out.push_back(V);
    return;
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    collectStaticLocals(I->Then, Out);
    collectStaticLocals(I->Else, Out);
    return;
  }
  case StmtKind::While:
    collectStaticLocals(cast<WhileStmt>(S)->Body, Out);
    return;
  case StmtKind::Do:
    collectStaticLocals(cast<DoStmt>(S)->Body, Out);
    return;
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(S);
    collectStaticLocals(F->Init, Out);
    collectStaticLocals(F->Body, Out);
    return;
  }
  case StmtKind::Switch:
    collectStaticLocals(cast<SwitchStmt>(S)->Body, Out);
    return;
  case StmtKind::Case:
    collectStaticLocals(cast<CaseStmt>(S)->Sub, Out);
    return;
  case StmtKind::Default:
    collectStaticLocals(cast<DefaultStmt>(S)->Sub, Out);
    return;
  case StmtKind::Label:
    collectStaticLocals(cast<LabelStmt>(S)->Sub, Out);
    return;
  default:
    return;
  }
}

void Machine::initStaticStorage() {
  // Globals first, in declaration order.
  for (const VarDecl *G : Ctx.TU.Globals) {
    if (G->Storage == StorageClass::Extern && !G->Init)
      continue; // tentative external; give it storage anyway
    uint32_t Id = createObjectForDecl(G, StorageKind::Global);
    Conf.GlobalEnv[G->DeclId] = Id;
  }
  // Static locals.
  for (const FunctionDecl *F : Ctx.TU.Functions) {
    if (!F->Body)
      continue;
    std::vector<const VarDecl *> Statics;
    collectStaticLocals(F->Body, Statics);
    for (const VarDecl *V : Statics) {
      uint32_t Id = createObjectForDecl(V, StorageKind::StaticLocal);
      Conf.GlobalEnv[V->DeclId] = Id;
    }
  }
  // Initializers run as ordinary (constant) stores before main.
  // Push in reverse so the first global initializes first.
  std::vector<const VarDecl *> WithInit;
  for (const VarDecl *G : Ctx.TU.Globals)
    if (G->Init)
      WithInit.push_back(G);
  for (const FunctionDecl *F : Ctx.TU.Functions) {
    if (!F->Body)
      continue;
    std::vector<const VarDecl *> Statics;
    collectStaticLocals(F->Body, Statics);
    for (const VarDecl *V : Statics)
      if (V->Init)
        WithInit.push_back(V);
  }
  for (auto It = WithInit.rbegin(); It != WithInit.rend(); ++It) {
    uint32_t Id = Conf.GlobalEnv[(*It)->DeclId];
    Conf.K.push_back(KItem::simple(KKind::SeqPoint));
    pushInitStores(Id, *It, (*It)->Ty, 0, (*It)->Init);
  }
}

RunStatus Machine::run() {
  // Startup frame so lookups and diagnostics have a context.
  Frame Startup;
  Conf.CallStack.push_back(Startup);

  // A pseudo caller frame above the program's stack: on real hardware,
  // moderate stack overflows land in the caller's frame (mapped, silent
  // garbage) rather than faulting. The permissive machine models that;
  // the strict machine never consults concrete addresses.
  Conf.Mem.create(StorageKind::Auto, 4096, QualType(), NoSymbol);

  initStaticStorage();
  while (Conf.Status == RunStatus::Running && !Conf.K.empty())
    if (!step())
      break;
  if (Conf.Status != RunStatus::Running)
    return Conf.Status;
  Conf.Values.clear();

  const FunctionDecl *Main = Ctx.TU.findFunction(Ctx.Interner.lookup("main"));
  if (!Main || !Main->Body) {
    Conf.Status = RunStatus::Internal;
    return Conf.Status;
  }
  // Call main with zero/null arguments.
  Frame MainFrame;
  MainFrame.Fn = Main;
  KItem Ret = KItem::simple(KKind::CallReturn);
  Ret.Callee = Main;
  for (const VarDecl *Param : Main->Params) {
    uint32_t Id = createObjectForDecl(Param, StorageKind::Auto);
    MainFrame.Env[Param->DeclId] = Id;
    MainFrame.ParamObjects.push_back(Id);
    Ret.ObjectsToKill.push_back(Id);
    // argc = 0, argv = NULL.
    if (Param->Ty.Ty->isIntegral())
      storeScalar(SymPointer(Id, 0), Param->Ty, Value::makeInt(Param->Ty.Ty, 0),
                  Main->Loc, /*IsInit=*/true);
    else if (Param->Ty.Ty->isPointer())
      storeScalar(SymPointer(Id, 0), Param->Ty,
                  Value::makePointer(Param->Ty.Ty, SymPointer::null()),
                  Main->Loc, /*IsInit=*/true);
  }
  Conf.CallStack.push_back(std::move(MainFrame));
  Conf.K.push_back(Ret);
  Conf.K.push_back(KItem::stmt(Main->Body));

  return resume();
}

RunStatus Machine::resume() {
  while (Conf.Status == RunStatus::Running)
    if (!step())
      break;

  if (Conf.Status == RunStatus::Completed && !Conf.Values.empty()) {
    const Value &Result = Conf.Values.back();
    if (Result.isInt())
      Conf.ExitCode = static_cast<int>(Result.asSigned(Ctx.Types));
  }
  return Conf.Status;
}

bool Machine::step() {
  if (Conf.Status != RunStatus::Running)
    return false;
  if (Conf.K.empty()) {
    Conf.Status = RunStatus::Completed;
    return false;
  }
  if (++Conf.Steps > Opts.StepLimit) {
    Conf.Status = RunStatus::StepLimit;
    return false;
  }
  // Cancellation token (search): polled coarsely so the hot path pays
  // one predictable branch, yet runs stop within ~256 steps of the
  // first-undefinedness signal.
  if ((Conf.Steps & 0xFF) == 0 && ShouldCancel && ShouldCancel()) {
    Conf.Status = RunStatus::Cancelled;
    return false;
  }
  stepItem(Conf.K.take());
  return Conf.Status == RunStatus::Running;
}

void Machine::stepItem(KItem Item) {
  switch (Item.K) {
  case KKind::Expr:
    stepExpr(Item.E);
    return;
  case KKind::Stmt:
    stepStmt(Item.S);
    return;
  case KKind::EvalOperands:
    stepEvalOperands(std::move(Item));
    return;
  case KKind::LvToRv:
    stepLvToRv(Item.E);
    return;
  case KKind::CastApply:
    stepCastApply(Item.E);
    return;
  case KKind::LogicRhs:
    stepLogicRhs(Item.E);
    return;
  case KKind::LogicDone:
    stepLogicDone(Item.E);
    return;
  case KKind::CondPick:
    stepCondPick(Item.E);
    return;
  case KKind::Pop:
    if (!Conf.Values.empty())
      Conf.Values.pop_back();
    return;
  case KKind::SeqPoint:
    seqPoint();
    return;
  case KKind::InitVar:
    stepInitVar(Item);
    return;
  case KKind::StoreTo:
    stepStoreTo(Item);
    return;
  case KKind::LeaveBlock:
    leaveBlock(Item);
    return;
  case KKind::IfDecide: {
    const auto *I = cast<IfStmt>(Item.S);
    Value V = popValue(I->Loc);
    if (Conf.Status != RunStatus::Running)
      return;
    if (V.isOpaque()) {
      flagUb(UbKind::ReadIndeterminateValue, I->Cond->Loc);
      return;
    }
    seqPoint();
    if (V.truthy(Ctx.Types)) {
      Conf.K.push_back(KItem::stmt(I->Then));
    } else if (I->Else) {
      Conf.K.push_back(KItem::stmt(I->Else));
    }
    return;
  }
  case KKind::WhileTest: {
    const auto *W = cast<WhileStmt>(Item.S);
    Conf.K.push_back(KItem::forStmt(KKind::WhileDecide, W));
    Conf.K.push_back(KItem::expr(W->Cond));
    return;
  }
  case KKind::WhileDecide: {
    const auto *W = cast<WhileStmt>(Item.S);
    Value V = popValue(W->Loc);
    if (Conf.Status != RunStatus::Running)
      return;
    if (V.isOpaque()) {
      flagUb(UbKind::ReadIndeterminateValue, W->Cond->Loc);
      return;
    }
    seqPoint();
    if (V.truthy(Ctx.Types)) {
      Conf.K.push_back(KItem::forStmt(KKind::WhileTest, W));
      Conf.K.push_back(KItem::stmt(W->Body));
    }
    return;
  }
  case KKind::DoTest: {
    const auto *D = cast<DoStmt>(Item.S);
    Conf.K.push_back(KItem::forStmt(KKind::DoDecide, D));
    Conf.K.push_back(KItem::expr(D->Cond));
    return;
  }
  case KKind::DoDecide: {
    const auto *D = cast<DoStmt>(Item.S);
    Value V = popValue(D->Loc);
    if (Conf.Status != RunStatus::Running)
      return;
    seqPoint();
    if (V.truthy(Ctx.Types)) {
      Conf.K.push_back(KItem::forStmt(KKind::DoTest, D));
      Conf.K.push_back(KItem::stmt(D->Body));
    }
    return;
  }
  case KKind::ForTest: {
    const auto *F = cast<ForStmt>(Item.S);
    if (F->Cond) {
      Conf.K.push_back(KItem::forStmt(KKind::ForDecide, F));
      Conf.K.push_back(KItem::expr(F->Cond));
    } else {
      Conf.K.push_back(KItem::forStmt(KKind::ForInc, F));
      Conf.K.push_back(KItem::stmt(F->Body));
    }
    return;
  }
  case KKind::ForDecide: {
    const auto *F = cast<ForStmt>(Item.S);
    Value V = popValue(F->Loc);
    if (Conf.Status != RunStatus::Running)
      return;
    seqPoint();
    if (V.truthy(Ctx.Types)) {
      Conf.K.push_back(KItem::forStmt(KKind::ForInc, F));
      Conf.K.push_back(KItem::stmt(F->Body));
    }
    return;
  }
  case KKind::ForInc: {
    const auto *F = cast<ForStmt>(Item.S);
    Conf.K.push_back(KItem::forStmt(KKind::ForTest, F));
    if (F->Inc) {
      Conf.K.push_back(KItem::simple(KKind::SeqPoint));
      Conf.K.push_back(KItem::simple(KKind::Pop));
      Conf.K.push_back(KItem::expr(F->Inc));
    }
    return;
  }
  case KKind::SwitchDispatch: {
    const auto *W = cast<SwitchStmt>(Item.S);
    Value V = popValue(W->Loc);
    if (Conf.Status != RunStatus::Running)
      return;
    seqPoint();
    performSwitchDispatch(W, V);
    return;
  }
  case KKind::SwitchEnd:
    return; // the break target; nothing to do
  case KKind::DoReturn:
    unwindReturn(Item.HasValue, Item.S ? Item.S->Loc : SourceLoc());
    return;
  case KKind::CallReturn: {
    // Fell off the end of a function body.
    for (uint32_t Id : Item.ObjectsToKill)
      Conf.Mem.markDead(Id);
    bool IsMain = Item.Callee &&
                  Ctx.Interner.str(Item.Callee->Name) == "main";
    Conf.CallStack.pop_back();
    Value Result = Value::empty();
    if (Item.Callee && !Item.Callee->FnTy->ReturnType.Ty->isVoid()) {
      if (IsMain) {
        // Reaching the } of main returns 0 (C99 5.1.2.2.3).
        Result = Value::makeInt(Ctx.Types.intTy(), 0);
      } else {
        Result.MissingReturn = true;
        Result.Ty = Item.Callee->FnTy->ReturnType.Ty;
      }
    }
    pushValue(std::move(Result));
    seqPoint();
    if (Conf.CallStack.empty() ||
        (Conf.CallStack.size() == 1 && IsMain)) {
      Conf.Status = RunStatus::Completed;
    }
    return;
  }
  }
}

Value Machine::popValue(SourceLoc Loc) {
  if (Conf.Values.empty()) {
    Conf.Status = RunStatus::Internal;
    return Value::empty();
  }
  Value V = std::move(Conf.Values.back());
  Conf.Values.pop_back();
  if (V.MissingReturn) {
    // Using the value of a call whose function returned without one
    // (C11 6.9.1p12).
    flagUb(UbKind::MissingReturnValueUsed, Loc);
    if (Opts.Strict && Opts.StopAtFirstUb)
      return V;
    // Permissive hardware hands back whatever was in the register.
    V = Value::makeInt(V.Ty && V.Ty->isIntegral() ? V.Ty : Ctx.Types.intTy(),
                       0xCDCDCDCDu);
  }
  return V;
}

//===----------------------------------------------------------------------===//
// Unwinding: break, continue, return, goto, switch dispatch
//===----------------------------------------------------------------------===//

void Machine::unwindBreak(SourceLoc Loc) {
  (void)Loc;
  while (!Conf.K.empty()) {
    KItem Item = Conf.K.take();
    switch (Item.K) {
    case KKind::LeaveBlock:
      for (uint32_t Id : Item.ObjectsToKill)
        Conf.Mem.markDead(Id);
      break;
    case KKind::WhileTest:
    case KKind::DoTest:
    case KKind::ForTest:
    case KKind::ForInc:
    case KKind::SwitchEnd:
      return; // popped the loop/switch continuation: we are out
    case KKind::CallReturn:
      // break outside any loop: sema rejects this; defensive stop.
      Conf.K.push_back(std::move(Item));
      Conf.Status = RunStatus::Internal;
      return;
    default:
      break;
    }
  }
  Conf.Status = RunStatus::Internal;
}

void Machine::unwindContinue(SourceLoc Loc) {
  (void)Loc;
  while (!Conf.K.empty()) {
    KKind Top = Conf.K.back().K;
    if (Top == KKind::WhileTest || Top == KKind::DoTest ||
        Top == KKind::ForInc)
      return; // keep it: it is exactly the continue target
    KItem Item = Conf.K.take();
    if (Item.K == KKind::LeaveBlock) {
      for (uint32_t Id : Item.ObjectsToKill)
        Conf.Mem.markDead(Id);
    } else if (Item.K == KKind::CallReturn) {
      Conf.K.push_back(std::move(Item));
      Conf.Status = RunStatus::Internal;
      return;
    }
  }
  Conf.Status = RunStatus::Internal;
}

void Machine::unwindReturn(bool HasValue, SourceLoc Loc) {
  Value Result = Value::empty();
  if (HasValue) {
    Result = popValue(Loc);
    if (Conf.Status != RunStatus::Running)
      return;
  }
  while (!Conf.K.empty()) {
    KItem Item = Conf.K.take();
    if (Item.K == KKind::LeaveBlock) {
      for (uint32_t Id : Item.ObjectsToKill)
        Conf.Mem.markDead(Id);
      continue;
    }
    if (Item.K == KKind::CallReturn) {
      for (uint32_t Id : Item.ObjectsToKill)
        Conf.Mem.markDead(Id);
      bool IsMain = Item.Callee &&
                    Ctx.Interner.str(Item.Callee->Name) == "main";
      Conf.CallStack.pop_back();
      if (!HasValue && Item.Callee &&
          !Item.Callee->FnTy->ReturnType.Ty->isVoid()) {
        Result.MissingReturn = true;
        Result.Ty = Item.Callee->FnTy->ReturnType.Ty;
      }
      pushValue(std::move(Result));
      seqPoint();
      if (Conf.CallStack.empty() ||
          (Conf.CallStack.size() == 1 && IsMain))
        Conf.Status = RunStatus::Completed;
      return;
    }
  }
  Conf.Status = RunStatus::Internal;
}

bool Machine::stmtContains(const Stmt *Haystack, const Stmt *Needle) {
  if (!Haystack)
    return false;
  if (Haystack == Needle)
    return true;
  switch (Haystack->Kind) {
  case StmtKind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(Haystack)->Body)
      if (stmtContains(Sub, Needle))
        return true;
    return false;
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(Haystack);
    return stmtContains(I->Then, Needle) || stmtContains(I->Else, Needle);
  }
  case StmtKind::While:
    return stmtContains(cast<WhileStmt>(Haystack)->Body, Needle);
  case StmtKind::Do:
    return stmtContains(cast<DoStmt>(Haystack)->Body, Needle);
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(Haystack);
    return stmtContains(F->Init, Needle) || stmtContains(F->Body, Needle);
  }
  case StmtKind::Switch:
    return stmtContains(cast<SwitchStmt>(Haystack)->Body, Needle);
  case StmtKind::Case:
    return stmtContains(cast<CaseStmt>(Haystack)->Sub, Needle);
  case StmtKind::Default:
    return stmtContains(cast<DefaultStmt>(Haystack)->Sub, Needle);
  case StmtKind::Label:
    return stmtContains(cast<LabelStmt>(Haystack)->Sub, Needle);
  default:
    return false;
  }
}

bool Machine::pushPathTo(const Stmt *S, const Stmt *Target) {
  if (!S)
    return false;
  if (S == Target) {
    Conf.K.push_back(KItem::stmt(S));
    return true;
  }
  switch (S->Kind) {
  case StmtKind::Compound: {
    const auto *B = cast<CompoundStmt>(S);
    int ChildIdx = -1;
    for (size_t I = 0; I < B->Body.size(); ++I) {
      if (stmtContains(B->Body[I], Target)) {
        ChildIdx = static_cast<int>(I);
        break;
      }
    }
    if (ChildIdx < 0)
      return false;
    enterBlock(B);
    for (size_t I = B->Body.size(); I-- > static_cast<size_t>(ChildIdx) + 1;)
      Conf.K.push_back(KItem::stmt(B->Body[I]));
    return pushPathTo(B->Body[ChildIdx], Target);
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    if (stmtContains(I->Then, Target))
      return pushPathTo(I->Then, Target);
    return pushPathTo(I->Else, Target);
  }
  case StmtKind::While: {
    const auto *W = cast<WhileStmt>(S);
    Conf.K.push_back(KItem::forStmt(KKind::WhileTest, W));
    return pushPathTo(W->Body, Target);
  }
  case StmtKind::Do: {
    const auto *D = cast<DoStmt>(S);
    Conf.K.push_back(KItem::forStmt(KKind::DoTest, D));
    return pushPathTo(D->Body, Target);
  }
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(S);
    // Entering a for statement from outside: its init scope objects
    // come alive (uninitialized), then the body runs with the normal
    // increment continuation.
    KItem Leave = KItem::forStmt(KKind::LeaveBlock, F);
    if (F->Init && isa<DeclStmt>(F->Init)) {
      for (const VarDecl *V : cast<DeclStmt>(F->Init)->Decls) {
        if (V->Storage == StorageClass::Static)
          continue;
        uint32_t Id = createObjectForDecl(V, StorageKind::Auto);
        Conf.frame().Env[V->DeclId] = Id;
        Leave.ObjectsToKill.push_back(Id);
      }
    }
    Conf.K.push_back(std::move(Leave));
    Conf.K.push_back(KItem::forStmt(KKind::ForInc, F));
    return pushPathTo(F->Body, Target);
  }
  case StmtKind::Switch: {
    const auto *W = cast<SwitchStmt>(S);
    Conf.K.push_back(KItem::forStmt(KKind::SwitchEnd, W));
    return pushPathTo(W->Body, Target);
  }
  case StmtKind::Case:
    return pushPathTo(cast<CaseStmt>(S)->Sub, Target);
  case StmtKind::Default:
    return pushPathTo(cast<DefaultStmt>(S)->Sub, Target);
  case StmtKind::Label:
    return pushPathTo(cast<LabelStmt>(S)->Sub, Target);
  default:
    return false;
  }
}

void Machine::performGoto(const GotoStmt *G) {
  const LabelStmt *Target = G->Target;
  if (!Target) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  // Unwind to the innermost enclosing block that (still) contains the
  // label; everything further in is left, ending lifetimes on the way.
  while (!Conf.K.empty()) {
    const KItem &Top = Conf.K.back();
    if (Top.K == KKind::LeaveBlock && Top.S &&
        stmtContains(Top.S, Target)) {
      // Common ancestor found: descend from here.
      const Stmt *Anchor = Top.S;
      if (const auto *B = dynCast<CompoundStmt>(Anchor)) {
        int ChildIdx = -1;
        for (size_t I = 0; I < B->Body.size(); ++I) {
          if (stmtContains(B->Body[I], Target)) {
            ChildIdx = static_cast<int>(I);
            break;
          }
        }
        assert(ChildIdx >= 0 && "anchor block lost the label");
        for (size_t I = B->Body.size();
             I-- > static_cast<size_t>(ChildIdx) + 1;)
          Conf.K.push_back(KItem::stmt(B->Body[I]));
        pushPathTo(B->Body[ChildIdx], Target);
        return;
      }
      // A for-scope LeaveBlock: descend into the for statement's body.
      if (const auto *F = dynCast<ForStmt>(Anchor)) {
        Conf.K.push_back(KItem::forStmt(KKind::ForInc, F));
        pushPathTo(F->Body, Target);
        return;
      }
      Conf.Status = RunStatus::Internal;
      return;
    }
    if (Top.K == KKind::CallReturn) {
      // The function body block always contains every label, so this
      // means the label was not found: an interpreter bug.
      Conf.Status = RunStatus::Internal;
      return;
    }
    KItem Item = Conf.K.take();
    if (Item.K == KKind::LeaveBlock)
      for (uint32_t Id : Item.ObjectsToKill)
        Conf.Mem.markDead(Id);
  }
  Conf.Status = RunStatus::Internal;
}

void Machine::performSwitchDispatch(const SwitchStmt *W, const Value &V) {
  if (!V.isInt()) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  int64_t Selector = V.asSigned(Ctx.Types);
  const Stmt *Target = nullptr;
  for (const CaseStmt *Case : W->Cases) {
    if (Case->Value == Selector) {
      Target = Case;
      break;
    }
  }
  if (!Target && W->Default)
    Target = W->Default;
  if (!Target)
    return; // no matching label: the switch body is skipped entirely
  if (!pushPathTo(W->Body, Target))
    Conf.Status = RunStatus::Internal;
}

//===----------------------------------------------------------------------===//
// Synchronous call-back into the semantics (builtins with callbacks)
//===----------------------------------------------------------------------===//

const FunctionDecl *Machine::functionFor(const Value &V) const {
  if (!V.isPointer() || V.Ptr.FromInteger || V.Ptr.Base == 0)
    return nullptr;
  auto It = Conf.FuncByObject.find(V.Ptr.Base);
  return It == Conf.FuncByObject.end() ? nullptr : It->second;
}

bool Machine::callFunctionSync(const FunctionDecl *Fn,
                               std::vector<Value> Args, SourceLoc Loc,
                               Value &Result) {
  assert(Fn && Fn->Body && "sync call needs a defined function");
  if (Conf.CallStack.size() >= Opts.MaxCallDepth) {
    flagUb(UbKind::RecursionLimitExceeded, Loc);
    return false;
  }
  size_t KDepth = Conf.K.size();
  size_t VDepth = Conf.Values.size();

  Frame NewFrame;
  NewFrame.Fn = Fn;
  NewFrame.CallLoc = Loc;
  KItem Ret = KItem::simple(KKind::CallReturn);
  Ret.Callee = Fn;
  for (size_t I = 0; I < Fn->Params.size(); ++I) {
    const VarDecl *Param = Fn->Params[I];
    uint32_t Id = createObjectForDecl(Param, StorageKind::Auto);
    NewFrame.Env[Param->DeclId] = Id;
    NewFrame.ParamObjects.push_back(Id);
    Ret.ObjectsToKill.push_back(Id);
    if (I < Args.size()) {
      Value Arg = convertForMachine(Args[I], Param->Ty.Ty, Loc);
      if (Conf.Status != RunStatus::Running)
        return false;
      storeScalar(SymPointer(Id, 0), Param->Ty, Arg, Loc, /*IsInit=*/true);
    }
  }
  Conf.CallStack.push_back(std::move(NewFrame));
  seqPoint();
  Conf.K.push_back(std::move(Ret));
  Conf.K.push_back(KItem::stmt(Fn->Body));

  // The C++ call stack below this frame (the builtin's own state) is
  // not part of the configuration: snapshots must not be captured while
  // this loop is live (see inSyncCall).
  ++SyncDepth;
  while (Conf.Status == RunStatus::Running && Conf.K.size() > KDepth) {
    if (++Conf.Steps > Opts.StepLimit) {
      Conf.Status = RunStatus::StepLimit;
      --SyncDepth;
      return false;
    }
    stepItem(Conf.K.take());
  }
  --SyncDepth;
  if (Conf.Status != RunStatus::Running)
    return false;
  if (Conf.Values.size() != VDepth + 1) {
    Conf.Status = RunStatus::Internal;
    return false;
  }
  Result = popValue(Loc);
  return Conf.Status == RunStatus::Running;
}
