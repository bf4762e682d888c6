//===- tests/test_memory.cpp - Symbolic memory unit tests ----------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//

#include "mem/SymbolicMemory.h"

#include <gtest/gtest.h>

#include <vector>

using namespace cundef;

namespace {

TEST(SymbolicMemory, CreateAndAccess) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Auto, 8, QualType(), NoSymbol);
  ASSERT_NE(Id, 0u);
  const MemObject *Obj = Mem.find(Id);
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->Size, 8u);
  EXPECT_TRUE(Obj->isAlive());
  ASSERT_EQ(Obj->Bytes.size(), 8u);
  for (uint64_t I = 0; I < Obj->Bytes.size(); ++I)
    EXPECT_TRUE(Obj->Bytes[I].isUnknown()) << "fresh storage is unknown(N)";
}

TEST(SymbolicMemory, ByteRoundTrip) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  EXPECT_EQ(Mem.writeByte(Id, 2, Byte::concrete(0xAB)), MemStatus::Ok);
  Byte Out;
  EXPECT_EQ(Mem.readByte(Id, 2, Out), MemStatus::Ok);
  EXPECT_TRUE(Out.isConcrete());
  EXPECT_EQ(Out.Value, 0xAB);
}

TEST(SymbolicMemory, BoundsChecked) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Auto, 4, QualType(), NoSymbol);
  Byte Out;
  EXPECT_EQ(Mem.readByte(Id, 4, Out), MemStatus::OutOfBounds);
  EXPECT_EQ(Mem.readByte(Id, -1, Out), MemStatus::OutOfBounds);
  EXPECT_EQ(Mem.probe(Id, 0, 5), MemStatus::OutOfBounds);
  EXPECT_EQ(Mem.probe(Id, 0, 4), MemStatus::Ok);
}

TEST(SymbolicMemory, UnallocatedIdsHaveNoObject) {
  // The table is indexed by id - 1: id 0 (null) and the next id to be
  // handed out must both miss, not wrap or read past the end.
  SymbolicMemory Mem;
  EXPECT_EQ(Mem.find(0), nullptr);
  EXPECT_EQ(Mem.find(1), nullptr);
  uint32_t A = Mem.create(StorageKind::Auto, 4, QualType(), NoSymbol);
  uint32_t B = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  ASSERT_EQ(B, A + 1);
  const uint32_t Next = B + 1;
  for (uint32_t Id : {0u, Next, 0xffffffffu}) {
    EXPECT_EQ(Mem.find(Id), nullptr) << Id;
    EXPECT_EQ(Mem.mutate(Id), nullptr) << Id;
    EXPECT_EQ(Mem.probe(Id, 0, 1), MemStatus::NoObject) << Id;
    Byte Out;
    EXPECT_EQ(Mem.readByte(Id, 0, Out), MemStatus::NoObject) << Id;
    EXPECT_EQ(Mem.writeByte(Id, 0, Byte::concrete(1)), MemStatus::NoObject)
        << Id;
  }
  EXPECT_EQ(Mem.find(A)->Id, A);
  EXPECT_EQ(Mem.find(B)->Id, B);
  EXPECT_EQ(Mem.objects().size(), 2u);
}

TEST(SymbolicMemory, LifetimeStates) {
  SymbolicMemory Mem;
  uint32_t Stack = Mem.create(StorageKind::Auto, 4, QualType(), NoSymbol);
  uint32_t Heap = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  Mem.markDead(Stack);
  Mem.markFreed(Heap);
  Byte Out;
  EXPECT_EQ(Mem.readByte(Stack, 0, Out), MemStatus::Dead);
  EXPECT_EQ(Mem.readByte(Heap, 0, Out), MemStatus::Freed);
  EXPECT_EQ(Mem.readByte(999, 0, Out), MemStatus::NoObject);
}

TEST(SymbolicMemory, TombstonesKeepBytes) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Heap, 2, QualType(), NoSymbol);
  Mem.writeByte(Id, 0, Byte::concrete(7));
  Mem.markFreed(Id);
  // The permissive machine still finds the object by address.
  const MemObject *Obj = Mem.find(Id);
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->Bytes[0].Value, 7);
}

TEST(SymbolicMemory, DistinctAddressRegions) {
  SymbolicMemory Mem;
  uint32_t Global = Mem.create(StorageKind::Global, 16, QualType(), NoSymbol);
  uint32_t Heap = Mem.create(StorageKind::Heap, 16, QualType(), NoSymbol);
  uint32_t Stack = Mem.create(StorageKind::Auto, 16, QualType(), NoSymbol);
  uint64_t G = Mem.find(Global)->ConcreteAddr;
  uint64_t H = Mem.find(Heap)->ConcreteAddr;
  uint64_t S = Mem.find(Stack)->ConcreteAddr;
  EXPECT_LT(G, H);
  EXPECT_LT(H, S);
}

TEST(SymbolicMemory, StackGrowsDownContiguously) {
  SymbolicMemory Mem;
  uint32_t First = Mem.create(StorageKind::Auto, 8, QualType(), NoSymbol);
  uint32_t Second = Mem.create(StorageKind::Auto, 8, QualType(), NoSymbol);
  EXPECT_GT(Mem.find(First)->ConcreteAddr, Mem.find(Second)->ConcreteAddr)
      << "later stack objects sit at lower addresses";
  // Overflowing the second object reaches the first: the stack-smash
  // model the permissive machine relies on.
  uint64_t Gap = Mem.find(First)->ConcreteAddr -
                 (Mem.find(Second)->ConcreteAddr + 8);
  EXPECT_LT(Gap, 8u);
}

TEST(SymbolicMemory, FindByAddress) {
  SymbolicMemory Mem;
  uint32_t Id = Mem.create(StorageKind::Heap, 10, QualType(), NoSymbol);
  uint64_t Addr = Mem.find(Id)->ConcreteAddr;
  int64_t Off = -1;
  EXPECT_EQ(Mem.findByAddress(Addr + 3, Off), Id);
  EXPECT_EQ(Off, 3);
  EXPECT_EQ(Mem.findByAddress(Addr + 10, Off), 0u) << "one past: no object";
  EXPECT_EQ(Mem.findByAddress(0, Off), 0u) << "null page unmapped";
}

TEST(SymbolicMemory, CountAlive) {
  SymbolicMemory Mem;
  uint32_t A = Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  Mem.create(StorageKind::Heap, 4, QualType(), NoSymbol);
  EXPECT_EQ(Mem.countAlive(StorageKind::Heap), 2u);
  Mem.markFreed(A);
  EXPECT_EQ(Mem.countAlive(StorageKind::Heap), 1u);
}

//===----------------------------------------------------------------------===//
// Paged copy-on-write bytes (ByteStore).
//===----------------------------------------------------------------------===//

bool sameByte(const Byte &A, const Byte &B) {
  return A.K == B.K && A.Value == B.Value && A.Ptr == B.Ptr &&
         A.FragIndex == B.FragIndex && A.FragCount == B.FragCount;
}

/// A store whose every byte differs from its neighbours, so a fill's
/// effect (and any spill past its range) is visible byte by byte.
ByteStore patterned(uint64_t Size) {
  ByteStore S(Size, Byte::unknown());
  for (uint64_t I = 0; I < Size; ++I)
    S.mut(I) = Byte::concrete(static_cast<uint8_t>(I * 7 + 1));
  return S;
}

TEST(ByteStore, ForkWriteClonesExactlyOnePage) {
  // A 2048-byte object (deepTree's 512-int global) spans 32 pages.
  SymbolicMemory Parent;
  uint32_t Id = Parent.create(StorageKind::Global, 2048, QualType(), NoSymbol);
  for (int64_t I = 0; I < 2048; ++I)
    Parent.writeByte(Id, I, Byte::concrete(static_cast<uint8_t>(I)));
  EXPECT_EQ(Parent.find(Id)->Bytes.sharedPages(), 0u)
      << "every page written: nothing shared before the fork";

  SymbolicMemory Child = Parent; // the search's fork at a choice point
  EXPECT_EQ(Child.find(Id), Parent.find(Id))
      << "until a write, the fork shares the whole object";
  ASSERT_EQ(Child.writeByte(Id, 700, Byte::concrete(0xEE)), MemStatus::Ok);

  const ByteStore &Mine = Child.find(Id)->Bytes;
  const ByteStore &Theirs = Parent.find(Id)->Bytes;
  EXPECT_EQ(Mine.sharedPages(), 31u) << "the write cloned one page";
  EXPECT_EQ(Theirs.sharedPages(), 31u);
  EXPECT_FALSE(Mine.samePage(Theirs, 700));
  EXPECT_TRUE(Mine.samePage(Theirs, 639))
      << "the neighbouring page (bytes 576..639) is still shared";
  EXPECT_EQ(Mine[700].Value, 0xEE);
  EXPECT_EQ(Theirs[700].Value, static_cast<uint8_t>(700))
      << "the snapshot's page is untouched";
  EXPECT_EQ(Mine[701].Value, static_cast<uint8_t>(701))
      << "the clone carries the rest of its page";

  // A second write to the same page clones nothing more.
  Child.writeByte(Id, 640, Byte::concrete(1));
  EXPECT_EQ(Child.find(Id)->Bytes.sharedPages(), 31u);
  EXPECT_EQ(Parent.find(Id)->Bytes[640].Value, static_cast<uint8_t>(640));
}

TEST(ByteStore, UniformObjectsCostOnePage) {
  // create() and zero fills point every whole page at one page; the
  // first write anywhere clones just that page out of the group.
  ByteStore S(4096, Byte::unknown());
  EXPECT_EQ(S.sharedPages(), 64u);
  for (uint64_t I = 1; I < 64; ++I)
    EXPECT_TRUE(S.samePage(S, 0) && S.samePage(S, I * 64));
  ByteStore Copy = S;
  S.mut(130) = Byte::concrete(9);
  EXPECT_EQ(S.sharedPages(), 63u);
  EXPECT_TRUE(Copy[130].isUnknown());
  EXPECT_TRUE(S[129].isUnknown()) << "the uniform page itself is untouched";
  EXPECT_TRUE(S[200].isUnknown());
  EXPECT_EQ(S[130].Value, 9);
}

TEST(ByteStore, FillClipsExactlyLikeTheByteLoop) {
  // The reference is the loop fill replaced:
  //   for (I = 0; I < Len && Off + I < Size; ++I) Bytes[Off + I] = V;
  const uint64_t Sizes[] = {0, 1, 63, 64, 65, 100, 130, 2048};
  const uint64_t Offs[] = {0, 1, 30, 63, 64, 70, 129, 5000};
  const uint64_t Lens[] = {0, 1, 5, 34, 64, 100, 10000, ~0ull};
  const Byte V = Byte::concrete(0);
  for (uint64_t Size : Sizes)
    for (uint64_t Off : Offs)
      for (uint64_t Len : Lens) {
        ByteStore Got = patterned(Size);
        std::vector<Byte> Want(Size);
        for (uint64_t I = 0; I < Size; ++I)
          Want[I] = Got[I];
        for (uint64_t I = 0; I < Len && Off + I < Size; ++I)
          Want[Off + I] = V;
        Got.fill(Off, Len, V);
        ASSERT_EQ(Got.size(), Size);
        for (uint64_t I = 0; I < Size; ++I)
          ASSERT_TRUE(sameByte(Got[I], Want[I]))
              << "size " << Size << " off " << Off << " len " << Len
              << ": byte " << I;
      }
}

TEST(ByteStore, WriteAfterFillStaysInItsPage) {
  ByteStore S = patterned(300);
  S.fill(10, 250, Byte::concrete(0)); // whole pages 1..3 share one page
  EXPECT_TRUE(S.samePage(S, 64) && S.samePage(S, 192));
  S.mut(100) = Byte::concrete(5);
  EXPECT_EQ(S[100].Value, 5);
  EXPECT_EQ(S[70].Value, 0);
  EXPECT_EQ(S[150].Value, 0) << "the sibling pages of the fill keep 0";
  EXPECT_EQ(S[200].Value, 0);
  EXPECT_EQ(S[9].Value, static_cast<uint8_t>(9 * 7 + 1));
  EXPECT_EQ(S[260].Value, static_cast<uint8_t>(260 * 7 + 1));
}

TEST(SymbolicMemory, IncrementalDigestMatchesFullAfterPagedWrites) {
  auto Digest = [](const SymbolicMemory &M, bool Full) {
    Hasher H;
    M.hashInto(H, Full);
    return H.digest();
  };
  SymbolicMemory Mem;
  uint32_t Big = Mem.create(StorageKind::Global, 2048, QualType(), NoSymbol);
  uint32_t Odd = Mem.create(StorageKind::Auto, 100, QualType(), NoSymbol);
  Mem.mutate(Big)->Bytes.fill(0, 2048, Byte::concrete(0));
  EXPECT_EQ(Digest(Mem, false), Digest(Mem, true)) << "after a uniform fill";

  SymbolicMemory Fork = Mem;
  for (int64_t I = 0; I < 2048; I += 97)
    Fork.writeByte(Big, I, Byte::concrete(static_cast<uint8_t>(I)));
  Fork.writeByte(Odd, 99, Byte::ptrFrag(SymPointer(Big, 8), 0, 8));
  EXPECT_EQ(Digest(Fork, false), Digest(Fork, true)) << "after page writes";
  EXPECT_EQ(Digest(Mem, false), Digest(Mem, true)) << "the parent, too";
  EXPECT_NE(Digest(Fork, true), Digest(Mem, true));

  Fork.mutate(Odd)->Bytes.fill(30, 1000, Byte::concrete(0));
  EXPECT_EQ(Digest(Fork, false), Digest(Fork, true)) << "after a clipped fill";

  // A fill and the same bytes written one at a time are the same state.
  SymbolicMemory ByFill, ByWrites;
  uint32_t A = ByFill.create(StorageKind::Heap, 200, QualType(), NoSymbol);
  uint32_t B = ByWrites.create(StorageKind::Heap, 200, QualType(), NoSymbol);
  ByFill.mutate(A)->Bytes.fill(10, 150, Byte::concrete(0));
  for (int64_t I = 10; I < 160; ++I)
    ByWrites.writeByte(B, I, Byte::concrete(0));
  EXPECT_EQ(Digest(ByFill, true), Digest(ByWrites, true));
  EXPECT_EQ(Digest(ByFill, false), Digest(ByWrites, false));

  // SymbolicMemory::fill (memset's path) keeps a valid cached digest
  // current by delta, like writeByte, and is all or nothing.
  SymbolicMemory ByMemFill;
  uint32_t C = ByMemFill.create(StorageKind::Heap, 200, QualType(), NoSymbol);
  Digest(ByMemFill, false); // caches every object digest
  EXPECT_EQ(ByMemFill.fill(C, 150, 51, Byte::concrete(0)),
            MemStatus::OutOfBounds);
  EXPECT_TRUE(ByMemFill.find(C)->Bytes[150].isUnknown());
  EXPECT_EQ(ByMemFill.fill(C, 10, 150, Byte::concrete(0)), MemStatus::Ok);
  EXPECT_EQ(Digest(ByMemFill, false), Digest(ByMemFill, true));
  EXPECT_EQ(Digest(ByMemFill, true), Digest(ByWrites, true));
}

TEST(Byte, Factories) {
  Byte U = Byte::unknown();
  EXPECT_TRUE(U.isUnknown());
  Byte C = Byte::concrete(42);
  EXPECT_TRUE(C.isConcrete());
  EXPECT_EQ(C.Value, 42);
  SymPointer P(7, 3);
  Byte F = Byte::ptrFrag(P, 1, 8);
  EXPECT_TRUE(F.isPtrFrag());
  EXPECT_EQ(F.Ptr, P);
  EXPECT_EQ(F.FragIndex, 1);
  EXPECT_EQ(F.FragCount, 8);
}

TEST(SymPointer, NullAndForged) {
  SymPointer Null = SymPointer::null();
  EXPECT_TRUE(Null.isNull());
  SymPointer Forged = SymPointer::fromInteger(0x1000);
  EXPECT_FALSE(Forged.isNull());
  EXPECT_TRUE(Forged.FromInteger);
  EXPECT_NE(Null, Forged);
  SymPointer Obj(3, 4);
  EXPECT_FALSE(Obj.isNull());
  EXPECT_EQ(Obj, SymPointer(3, 4));
  EXPECT_NE(Obj, SymPointer(3, 5));
  EXPECT_NE(Obj, SymPointer(4, 4));
}

} // namespace
