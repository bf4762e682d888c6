//===- core/RulesStmt.cpp - Statement rules ----------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "core/Machine.h"

#include <cassert>

using namespace cundef;

void Machine::enterBlock(const CompoundStmt *B) {
  // Lifetime of every automatic object declared directly in the block
  // begins at block entry (C11 6.2.4p5) -- this is what makes jumps
  // into the middle of a block see storage (uninitialized).
  KItem Leave = KItem::forStmt(KKind::LeaveBlock, B);
  for (const Stmt *S : B->Body) {
    const auto *D = dynCast<DeclStmt>(S);
    if (!D)
      continue;
    for (const VarDecl *V : D->Decls) {
      if (V->Storage == StorageClass::Static ||
          V->Storage == StorageClass::Extern)
        continue; // static locals pre-created; extern aliases a global
      if (!V->Ty.Ty->isCompleteObjectType())
        continue; // sema already diagnosed
      uint32_t Id = createObjectForDecl(V, StorageKind::Auto);
      Conf.frame().Env[V->DeclId] = Id;
      Leave.ObjectsToKill.push_back(Id);
    }
  }
  Conf.K.push_back(std::move(Leave));
}

void Machine::leaveBlock(KItem &Item) {
  for (uint32_t Id : Item.ObjectsToKill)
    Conf.Mem.markDead(Id);
}

void Machine::stepStmt(const Stmt *S) {
  if (!S)
    return;
  switch (S->Kind) {
  case StmtKind::Compound: {
    const auto *B = cast<CompoundStmt>(S);
    enterBlock(B);
    for (size_t I = B->Body.size(); I-- > 0;)
      Conf.K.push_back(KItem::stmt(B->Body[I]));
    return;
  }
  case StmtKind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    // Objects were created at block entry; declaration statements run
    // the initializers (each one is a full expression).
    for (size_t I = D->Decls.size(); I-- > 0;)
      if (D->Decls[I]->Init && D->Decls[I]->Storage != StorageClass::Static)
        execDeclInit(D->Decls[I]);
    return;
  }
  case StmtKind::Expr: {
    const auto *E = cast<ExprStmt>(S);
    if (!E->E)
      return;
    Conf.K.push_back(KItem::simple(KKind::SeqPoint));
    Conf.K.push_back(KItem::simple(KKind::Pop));
    Conf.K.push_back(KItem::expr(E->E));
    return;
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    Conf.K.push_back(KItem::forStmt(KKind::IfDecide, I));
    Conf.K.push_back(KItem::expr(I->Cond));
    return;
  }
  case StmtKind::While:
    Conf.K.push_back(KItem::forStmt(KKind::WhileTest, S));
    return;
  case StmtKind::Do:
    Conf.K.push_back(KItem::forStmt(KKind::DoTest, S));
    Conf.K.push_back(KItem::stmt(cast<DoStmt>(S)->Body));
    return;
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(S);
    // The for statement is a scope of its own (the init declaration).
    KItem Leave = KItem::forStmt(KKind::LeaveBlock, F);
    if (F->Init) {
      if (const auto *D = dynCast<DeclStmt>(F->Init)) {
        for (const VarDecl *V : D->Decls) {
          if (V->Storage == StorageClass::Static ||
              V->Storage == StorageClass::Extern)
            continue;
          if (!V->Ty.Ty->isCompleteObjectType())
            continue;
          uint32_t Id = createObjectForDecl(V, StorageKind::Auto);
          Conf.frame().Env[V->DeclId] = Id;
          Leave.ObjectsToKill.push_back(Id);
        }
      }
    }
    Conf.K.push_back(std::move(Leave));
    Conf.K.push_back(KItem::forStmt(KKind::ForTest, F));
    if (F->Init)
      Conf.K.push_back(KItem::stmt(F->Init));
    return;
  }
  case StmtKind::Switch: {
    const auto *W = cast<SwitchStmt>(S);
    Conf.K.push_back(KItem::forStmt(KKind::SwitchEnd, W));
    Conf.K.push_back(KItem::forStmt(KKind::SwitchDispatch, W));
    Conf.K.push_back(KItem::expr(W->Cond));
    return;
  }
  case StmtKind::Case:
    Conf.K.push_back(KItem::stmt(cast<CaseStmt>(S)->Sub));
    return;
  case StmtKind::Default:
    Conf.K.push_back(KItem::stmt(cast<DefaultStmt>(S)->Sub));
    return;
  case StmtKind::Break:
    unwindBreak(S->Loc);
    return;
  case StmtKind::Continue:
    unwindContinue(S->Loc);
    return;
  case StmtKind::Goto:
    performGoto(cast<GotoStmt>(S));
    return;
  case StmtKind::Label:
    Conf.K.push_back(KItem::stmt(cast<LabelStmt>(S)->Sub));
    return;
  case StmtKind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    KItem Ret = KItem::forStmt(KKind::DoReturn, R);
    Ret.HasValue = R->Value != nullptr;
    Conf.K.push_back(Ret);
    if (R->Value)
      Conf.K.push_back(KItem::expr(R->Value));
    return;
  }
  }
  assert(false && "unhandled statement kind");
}

void Machine::execDeclInit(const VarDecl *D) {
  uint32_t Id = Conf.lookup(D->DeclId);
  if (!Id) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  Conf.K.push_back(KItem::simple(KKind::SeqPoint));
  pushInitStores(Id, D, D->Ty, 0, D->Init);
}

/// Pushes k items that evaluate \p Init and store it at (ObjId, Offset)
/// with type \p Ty. Aggregates are zero-filled first (C11 6.7.9p19 --
/// members without an explicit initializer get static-style
/// initialization), then element stores run in source order.
void Machine::pushInitStores(uint32_t ObjId, const VarDecl *D, QualType Ty,
                             uint64_t Offset, const Expr *Init) {
  const Type *T = Ty.Ty;
  if (const auto *List = dynCast<InitListExpr>(Init)) {
    if (T->isArray()) {
      uint64_t ElemSize = Ctx.Types.sizeOf(T->Pointee);
      // Zero-fill the whole array, then store elements back to front so
      // they execute front to back.
      zeroFill(ObjId, Offset, Ctx.Types.sizeOf(Ty));
      for (size_t I = List->Inits.size(); I-- > 0;)
        pushInitStores(ObjId, D, T->Pointee, Offset + I * ElemSize,
                       List->Inits[I]);
      return;
    }
    if (T->isRecord()) {
      zeroFill(ObjId, Offset, Ctx.Types.sizeOf(Ty));
      const RecordInfo *Record = T->Record;
      size_t Limit = std::min(List->Inits.size(), Record->Fields.size());
      if (Record->IsUnion)
        Limit = std::min<size_t>(Limit, 1);
      for (size_t I = Limit; I-- > 0;)
        pushInitStores(ObjId, D, Record->Fields[I].Ty,
                       Offset + Record->Fields[I].Offset, List->Inits[I]);
      return;
    }
    // Scalar with braces: exactly one element (checked by sema).
    if (!List->Inits.empty())
      pushInitStores(ObjId, D, Ty, Offset, List->Inits[0]);
    return;
  }
  // Character array initialized from a string literal.
  if (T->isArray() && isa<StringLitExpr>(Init)) {
    const auto *Str = cast<StringLitExpr>(Init);
    zeroFill(ObjId, Offset, Ctx.Types.sizeOf(Ty));
    MemObject *Obj = Conf.Mem.mutate(ObjId);
    uint64_t Limit = std::min<uint64_t>(Str->Bytes.size(),
                                        Ctx.Types.sizeOf(Ty));
    for (uint64_t I = 0; I < Limit; ++I)
      Obj->Bytes.mut(Offset + I) =
          Byte::concrete(static_cast<uint8_t>(Str->Bytes[I]));
    return;
  }
  // Scalar (or whole-record copy) initializer expression.
  KItem Store = KItem::simple(KKind::StoreTo);
  Store.D = D;
  Store.Offset = Offset;
  Store.Ty = Ty;
  Store.E = Init;
  Conf.K.push_back(Store);
  Conf.K.push_back(KItem::expr(Init));
}

void Machine::stepStoreTo(KItem &Item) {
  Value V = popValue(Item.E ? Item.E->Loc : SourceLoc());
  if (Conf.Status != RunStatus::Running)
    return;
  uint32_t ObjId = Conf.lookup(Item.D->DeclId);
  if (!ObjId) {
    Conf.Status = RunStatus::Internal;
    return;
  }
  SymPointer Ptr(ObjId, static_cast<int64_t>(Item.Offset));
  SourceLoc Loc = Item.E ? Item.E->Loc : SourceLoc();
  if (Item.Ty.Ty->isRecord())
    storeAgg(Ptr, Item.Ty, V, Loc, /*IsInit=*/true);
  else
    storeScalar(Ptr, Item.Ty, V, Loc, /*IsInit=*/true);
}

void Machine::stepInitVar(KItem &Item) {
  // Retained for symmetry; scalar initialization flows through StoreTo.
  (void)Item;
  Conf.Status = RunStatus::Internal;
}
