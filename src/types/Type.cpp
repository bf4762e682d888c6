//===- types/Type.cpp - C type system -------------------------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "types/Type.h"

#include "support/Strings.h"

using namespace cundef;

bool Type::isUnsignedInteger(const TargetConfig &Config) const {
  switch (Kind) {
  case TypeKind::Bool:
  case TypeKind::UChar:
  case TypeKind::UShort:
  case TypeKind::UInt:
  case TypeKind::ULong:
  case TypeKind::ULongLong:
    return true;
  case TypeKind::Char:
    return !Config.CharIsSigned;
  default:
    return false;
  }
}

unsigned Type::integerRank() const {
  switch (Kind) {
  case TypeKind::Bool:
    return 1;
  case TypeKind::Char:
  case TypeKind::SChar:
  case TypeKind::UChar:
    return 2;
  case TypeKind::Short:
  case TypeKind::UShort:
    return 3;
  case TypeKind::Int:
  case TypeKind::UInt:
  case TypeKind::Enum:
    return 4;
  case TypeKind::Long:
  case TypeKind::ULong:
    return 5;
  case TypeKind::LongLong:
  case TypeKind::ULongLong:
    return 6;
  default:
    return 0;
  }
}

TypeContext::TypeContext(const TargetConfig &Config) : Config(Config) {
  for (int K = 0; K <= (int)TypeKind::Double; ++K)
    Builtins[K] = makeBuiltin(static_cast<TypeKind>(K));
}

const Type *TypeContext::makeBuiltin(TypeKind Kind) {
  OwnedTypes.push_back(std::make_unique<Type>(Kind));
  return OwnedTypes.back().get();
}

const Type *TypeContext::getPointer(QualType Pointee) {
  auto Key = std::make_pair(Pointee.Ty, Pointee.Quals);
  auto It = PointerTypes.find(Key);
  if (It != PointerTypes.end())
    return It->second;
  OwnedTypes.push_back(std::make_unique<Type>(TypeKind::Pointer));
  Type *Ty = OwnedTypes.back().get();
  Ty->Pointee = Pointee;
  PointerTypes[Key] = Ty;
  return Ty;
}

const Type *TypeContext::getArray(QualType Element, uint64_t Size,
                                  bool SizeKnown) {
  auto Key = std::make_tuple(Element.Ty, Element.Quals, Size, SizeKnown);
  auto It = ArrayTypes.find(Key);
  if (It != ArrayTypes.end())
    return It->second;
  OwnedTypes.push_back(std::make_unique<Type>(TypeKind::Array));
  Type *Ty = OwnedTypes.back().get();
  Ty->Pointee = Element;
  Ty->ArraySize = Size;
  Ty->ArraySizeKnown = SizeKnown;
  ArrayTypes[Key] = Ty;
  return Ty;
}

const Type *TypeContext::getFunction(QualType Return,
                                     std::vector<QualType> Params,
                                     bool Variadic, bool NoProto) {
  // Function types are not uniqued (compared structurally when needed);
  // the number of distinct signatures per program is small.
  OwnedTypes.push_back(std::make_unique<Type>(TypeKind::Function));
  Type *Ty = OwnedTypes.back().get();
  Ty->ReturnType = Return;
  Ty->ParamTypes = std::move(Params);
  Ty->Variadic = Variadic;
  Ty->NoProto = NoProto;
  return Ty;
}

Type *TypeContext::createRecord(bool IsUnion, Symbol Tag) {
  OwnedTypes.push_back(std::make_unique<Type>(
      IsUnion ? TypeKind::Union : TypeKind::Struct));
  Type *Ty = OwnedTypes.back().get();
  OwnedRecords.push_back(std::make_unique<RecordInfo>());
  Ty->Record = OwnedRecords.back().get();
  Ty->Record->IsUnion = IsUnion;
  Ty->Record->Tag = Tag;
  return Ty;
}

Type *TypeContext::createEnum(Symbol Tag) {
  OwnedTypes.push_back(std::make_unique<Type>(TypeKind::Enum));
  Type *Ty = OwnedTypes.back().get();
  OwnedEnums.push_back(std::make_unique<EnumInfo>());
  Ty->Enum = OwnedEnums.back().get();
  Ty->Enum->Tag = Tag;
  return Ty;
}

void TypeContext::completeRecord(Type *RecordTy,
                                 std::vector<FieldInfo> Fields) {
  assert(RecordTy->isRecord() && "not a record type");
  RecordInfo *Info = RecordTy->Record;
  assert(!Info->Complete && "record completed twice");
  uint64_t Offset = 0;
  uint64_t Align = 1;
  for (FieldInfo &Field : Fields) {
    uint64_t FieldAlign = alignOf(Field.Ty);
    uint64_t FieldSize = sizeOf(Field.Ty);
    Align = std::max(Align, FieldAlign);
    if (Info->IsUnion) {
      Field.Offset = 0;
      Offset = std::max(Offset, FieldSize);
    } else {
      Offset = (Offset + FieldAlign - 1) / FieldAlign * FieldAlign;
      Field.Offset = Offset;
      Offset += FieldSize;
    }
  }
  // Tail padding to a multiple of the record alignment.
  uint64_t Size = (Offset + Align - 1) / Align * Align;
  if (Size == 0)
    Size = 1; // empty structs are a GNU extension; give them size 1
  Info->Fields = std::move(Fields);
  Info->Size = Size;
  Info->Align = Align;
  Info->Complete = true;
}

uint64_t TypeContext::sizeOf(QualType Ty) const {
  const Type *T = Ty.Ty;
  assert(T && "sizeOf of null type");
  switch (T->Kind) {
  case TypeKind::Void:
    return 1; // GNU-compatible sizeof(void); sema rejects where needed
  case TypeKind::Bool:
    return Config.BoolSize;
  case TypeKind::Char:
  case TypeKind::SChar:
  case TypeKind::UChar:
    return 1;
  case TypeKind::Short:
  case TypeKind::UShort:
    return Config.ShortSize;
  case TypeKind::Int:
  case TypeKind::UInt:
  case TypeKind::Enum:
    return Config.IntSize;
  case TypeKind::Long:
  case TypeKind::ULong:
    return Config.LongSize;
  case TypeKind::LongLong:
  case TypeKind::ULongLong:
    return Config.LongLongSize;
  case TypeKind::Float:
    return Config.FloatSize;
  case TypeKind::Double:
    return Config.DoubleSize;
  case TypeKind::Pointer:
    return Config.PointerSize;
  case TypeKind::Array:
    return sizeOf(T->Pointee) * T->ArraySize;
  case TypeKind::Struct:
  case TypeKind::Union:
    assert(T->Record->Complete && "sizeof incomplete record");
    return T->Record->Size;
  case TypeKind::Function:
    return 1; // GNU extension; never used for real layout
  }
  return 1;
}

uint64_t TypeContext::alignOf(QualType Ty) const {
  const Type *T = Ty.Ty;
  switch (T->Kind) {
  case TypeKind::Array:
    return alignOf(T->Pointee);
  case TypeKind::Struct:
  case TypeKind::Union:
    return T->Record->Align;
  default:
    return std::min<uint64_t>(sizeOf(Ty), Config.MaxAlign);
  }
}

unsigned TypeContext::bitWidthOf(const Type *Ty) const {
  if (Ty->Kind == TypeKind::Bool)
    return 1;
  return static_cast<unsigned>(sizeOf(QualType(Ty)) * 8);
}

uint64_t TypeContext::maxValueOf(const Type *Ty) const {
  unsigned Bits = bitWidthOf(Ty);
  if (Ty->isUnsignedInteger(Config))
    return Bits >= 64 ? ~0ull : ((1ull << Bits) - 1);
  return (1ull << (Bits - 1)) - 1;
}

int64_t TypeContext::minValueOf(const Type *Ty) const {
  if (Ty->isUnsignedInteger(Config))
    return 0;
  unsigned Bits = bitWidthOf(Ty);
  // -(2^(Bits-1) - 1) - 1: negating 2^63 itself would overflow int64_t.
  return -static_cast<int64_t>((1ull << (Bits - 1)) - 1) - 1;
}

QualType TypeContext::promote(QualType Ty) const {
  const Type *T = Ty.Ty;
  if (T->isEnum())
    return QualType(intTy());
  if (!T->isInteger())
    return Ty.unqualified();
  if (T->integerRank() >= intTy()->integerRank())
    return Ty.unqualified();
  // Small types: int can represent all values of every type with lower
  // rank under every configuration we support, except unsigned short
  // when short and int are the same size.
  if (T->isUnsignedInteger(Config) &&
      sizeOf(QualType(T)) >= Config.IntSize)
    return QualType(uintTy());
  return QualType(intTy());
}

QualType TypeContext::usualArithmetic(QualType Lhs, QualType Rhs) const {
  const Type *L = Lhs.Ty;
  const Type *R = Rhs.Ty;
  assert(L->isArithmetic() && R->isArithmetic() &&
         "usual arithmetic conversions require arithmetic types");
  if (L->Kind == TypeKind::Double || R->Kind == TypeKind::Double)
    return QualType(doubleTy());
  if (L->Kind == TypeKind::Float || R->Kind == TypeKind::Float)
    return QualType(floatTy());
  QualType PL = promote(Lhs);
  QualType PR = promote(Rhs);
  const Type *TL = PL.Ty;
  const Type *TR = PR.Ty;
  if (TL == TR)
    return PL;
  bool LUnsigned = TL->isUnsignedInteger(Config);
  bool RUnsigned = TR->isUnsignedInteger(Config);
  unsigned LRank = TL->integerRank();
  unsigned RRank = TR->integerRank();
  if (LUnsigned == RUnsigned)
    return LRank >= RRank ? PL : PR;
  // Mixed signedness (C11 6.3.1.8p1).
  const Type *U = LUnsigned ? TL : TR;
  const Type *S = LUnsigned ? TR : TL;
  if (U->integerRank() >= S->integerRank())
    return QualType(U);
  if (sizeOf(QualType(S)) > sizeOf(QualType(U)))
    return QualType(S); // signed type can represent all unsigned values
  // Otherwise the unsigned counterpart of the signed type.
  switch (S->Kind) {
  case TypeKind::Int:      return QualType(uintTy());
  case TypeKind::Long:     return QualType(ulongTy());
  case TypeKind::LongLong: return QualType(ulongLongTy());
  default:                 return QualType(U);
  }
}

bool TypeContext::compatible(QualType A, QualType B) const {
  const Type *TA = A.Ty;
  const Type *TB = B.Ty;
  if (TA == TB)
    return true;
  if (!TA || !TB || TA->Kind != TB->Kind)
    return false;
  switch (TA->Kind) {
  case TypeKind::Pointer:
    return TA->Pointee.Quals == TB->Pointee.Quals &&
           compatible(TA->Pointee.unqualified(), TB->Pointee.unqualified());
  case TypeKind::Array:
    return (!TA->ArraySizeKnown || !TB->ArraySizeKnown ||
            TA->ArraySize == TB->ArraySize) &&
           compatible(TA->Pointee, TB->Pointee);
  case TypeKind::Function: {
    if (TA->NoProto || TB->NoProto)
      return compatible(TA->ReturnType, TB->ReturnType);
    if (TA->Variadic != TB->Variadic ||
        TA->ParamTypes.size() != TB->ParamTypes.size())
      return false;
    if (!compatible(TA->ReturnType, TB->ReturnType))
      return false;
    for (size_t I = 0; I < TA->ParamTypes.size(); ++I)
      if (!compatible(TA->ParamTypes[I].unqualified(),
                      TB->ParamTypes[I].unqualified()))
        return false;
    return true;
  }
  default:
    // Distinct record/enum types with the same kind are incompatible
    // (nominal typing); builtins with the same kind are identical.
    return false;
  }
}

std::string TypeContext::typeName(QualType Ty,
                                  const StringInterner &Interner) const {
  std::string Quals;
  if (Ty.isConst())
    Quals += "const ";
  if (Ty.isVolatile())
    Quals += "volatile ";
  const Type *T = Ty.Ty;
  if (!T)
    return "<null type>";
  switch (T->Kind) {
  case TypeKind::Void:      return Quals + "void";
  case TypeKind::Bool:      return Quals + "_Bool";
  case TypeKind::Char:      return Quals + "char";
  case TypeKind::SChar:     return Quals + "signed char";
  case TypeKind::UChar:     return Quals + "unsigned char";
  case TypeKind::Short:     return Quals + "short";
  case TypeKind::UShort:    return Quals + "unsigned short";
  case TypeKind::Int:       return Quals + "int";
  case TypeKind::UInt:      return Quals + "unsigned int";
  case TypeKind::Long:      return Quals + "long";
  case TypeKind::ULong:     return Quals + "unsigned long";
  case TypeKind::LongLong:  return Quals + "long long";
  case TypeKind::ULongLong: return Quals + "unsigned long long";
  case TypeKind::Float:     return Quals + "float";
  case TypeKind::Double:    return Quals + "double";
  case TypeKind::Enum:
    return Quals + "enum " +
           (T->Enum->Tag ? Interner.str(T->Enum->Tag) : "<anonymous>");
  case TypeKind::Pointer:
    return typeName(T->Pointee, Interner) + " *" +
           (Quals.empty() ? "" : " " + Quals);
  case TypeKind::Array:
    if (T->ArraySizeKnown)
      return typeName(T->Pointee, Interner) +
             strFormat(" [%llu]", (unsigned long long)T->ArraySize);
    return typeName(T->Pointee, Interner) + " []";
  case TypeKind::Struct:
    return Quals + "struct " +
           (T->Record->Tag ? Interner.str(T->Record->Tag) : "<anonymous>");
  case TypeKind::Union:
    return Quals + "union " +
           (T->Record->Tag ? Interner.str(T->Record->Tag) : "<anonymous>");
  case TypeKind::Function: {
    std::string Out = typeName(T->ReturnType, Interner) + " (";
    for (size_t I = 0; I < T->ParamTypes.size(); ++I) {
      if (I)
        Out += ", ";
      Out += typeName(T->ParamTypes[I], Interner);
    }
    if (T->Variadic)
      Out += T->ParamTypes.empty() ? "..." : ", ...";
    return Out + ")";
  }
  }
  return "<unknown type>";
}
