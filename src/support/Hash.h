//===- support/Hash.h - Incremental configuration hashing ------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one incremental hasher of the project. It fingerprints machine
/// configurations for the evaluation-order search (core/Search.h): two
/// interleavings whose configurations hash equal at the same decision
/// depth are treated as the same state, so the search explores their
/// common subtree once. It also content-addresses translation units,
/// option sets and header registries. 64-bit digests make accidental
/// collisions (which would silently prune a genuinely distinct state)
/// astronomically unlikely at search scales of <= millions of states.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUPPORT_HASH_H
#define CUNDEF_SUPPORT_HASH_H

#include <cstdint>
#include <cstring>
#include <string>

namespace cundef {

/// The splitmix64 finalizer: a full-avalanche 64-bit mix. Every input
/// bit flips each output bit with probability ~1/2. Finalizes every
/// Hasher digest, and is used wherever two quantities are combined into
/// a table key (the search's (depth, fingerprint) visited-set, per-byte
/// memory digests) so that structured inputs do not alias.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Folds \p Word into the table-key hash \p H (cache keys made of
/// several digests).
inline uint64_t hashCombine(uint64_t H, uint64_t Word) {
  return mix64(H ^ (Word * 0x9e3779b97f4a7c15ull));
}

/// Incremental 64-bit hasher that consumes one 64-bit word per round:
/// xor the word in, multiply by an odd constant, fold the high half
/// down. Each round is a bijection of the state for a fixed word and of
/// the word for a fixed state, so two field sequences of equal length
/// that differ in exactly one field always produce different states.
/// Every field, however small, takes one round; byte strings take one
/// round per 8 bytes plus a tail round that carries the length. The
/// digest is the state finalized with mix64.
class Hasher {
public:
  void u64(uint64_t V) {
    H = (H ^ V) * 0x9fb21c651e98df25ull;
    H ^= H >> 32;
  }
  void u8(uint8_t V) { u64(V); }
  void u32(uint32_t V) { u64(V); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    u64(Bits);
  }
  /// Pointer identity. AST nodes and canonical types are shared by every
  /// machine of one search, so their addresses are stable tokens.
  void ptr(const void *P) { u64(reinterpret_cast<uintptr_t>(P)); }
  /// \p Len bytes, 8 at a time. The last round packs the 0-7 trailing
  /// bytes with the low byte of \p Len in the top byte, so prefixes of
  /// one buffer never collide.
  void bytes(const void *Data, size_t Len) {
    const auto *P = static_cast<const unsigned char *>(Data);
    size_t I = 0;
    for (; I + 8 <= Len; I += 8) {
      uint64_t W;
      std::memcpy(&W, P + I, 8);
      u64(W);
    }
    uint64_t Tail = static_cast<uint64_t>(Len & 0xff) << 56;
    for (unsigned Shift = 0; I < Len; ++I, Shift += 8)
      Tail |= static_cast<uint64_t>(P[I]) << Shift;
    u64(Tail);
  }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }

  uint64_t digest() const { return mix64(H); }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

} // namespace cundef

#endif // CUNDEF_SUPPORT_HASH_H
