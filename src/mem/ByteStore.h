//===- mem/ByteStore.h - Paged copy-on-write object bytes -------*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte array of one memory object. An object larger than one page
/// is stored as fixed pages of PageBytes symbolic bytes behind shared
/// pointers: copying the store copies page pointers only, and the first
/// write to a page after a copy clones that one page (the same
/// use_count ownership argument as SymbolicMemory::owned(): a count of
/// one means no snapshot or forked configuration can still see the
/// page, and only the owner could make a new reference). A uniform fill
/// points every page it covers completely at one shared page, so a
/// large zero-initialized or indeterminate object costs a single page
/// until it is written.
///
/// An object of at most one page keeps its bytes inline, exactly sized:
/// SymbolicMemory already clones a written object whole, so paging it
/// would save nothing and cost a full page per scalar.
///
/// Readers index with operator[]; writers go through mut() or fill(),
/// which are the only ways to change a byte.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_MEM_BYTESTORE_H
#define CUNDEF_MEM_BYTESTORE_H

#include "mem/Byte.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace cundef {

class ByteStore {
public:
  static constexpr size_t PageBytes = 64;

  ByteStore() = default;
  /// \p Size bytes, all \p Init.
  ByteStore(uint64_t Size, const Byte &Init) : Size(Size) {
    if (Size <= PageBytes) {
      Inline.assign(Size, Init);
      return;
    }
    Pages.resize((Size + PageBytes - 1) / PageBytes);
    fill(0, Size, Init);
  }

  uint64_t size() const { return Size; }

  const Byte &operator[](uint64_t I) const {
    return Pages.empty() ? Inline[I] : Pages[I / PageBytes]->B[I % PageBytes];
  }

  /// Writable byte \p I, cloning its page first if it is shared.
  Byte &mut(uint64_t I) {
    if (Pages.empty())
      return Inline[I];
    std::shared_ptr<Page> &P = Pages[I / PageBytes];
    if (P.use_count() > 1)
      P = std::make_shared<Page>(*P);
    return P->B[I % PageBytes];
  }

  /// Sets bytes [Off, Off + Len) to \p Value, clipped at size(). Pages
  /// the range covers completely (up to size() for the last page) all
  /// point at one new page holding \p Value; partly covered pages are
  /// written byte by byte.
  void fill(uint64_t Off, uint64_t Len, const Byte &Value) {
    if (Off >= Size)
      return;
    const uint64_t End = Len > Size - Off ? Size : Off + Len;
    if (Pages.empty()) {
      std::fill(Inline.begin() + Off, Inline.begin() + End, Value);
      return;
    }
    std::shared_ptr<Page> Uniform;
    for (uint64_t I = Off; I < End;) {
      const uint64_t PageEnd = std::min<uint64_t>(I / PageBytes * PageBytes +
                                                      PageBytes,
                                                  Size);
      if (I % PageBytes == 0 && End >= PageEnd) {
        if (!Uniform) {
          Uniform = std::make_shared<Page>();
          std::fill(std::begin(Uniform->B), std::end(Uniform->B), Value);
        }
        Pages[I / PageBytes] = Uniform;
        I = PageEnd;
        continue;
      }
      for (; I < std::min(End, PageEnd); ++I)
        mut(I) = Value;
    }
  }

  /// Pages this store shares with another store (a snapshot, a forked
  /// configuration, or a uniform fill's siblings counted once each).
  /// The footprint a copy-on-write fork has not paid yet; for tests.
  size_t sharedPages() const {
    size_t N = 0;
    for (const std::shared_ptr<Page> &P : Pages)
      if (P.use_count() > 1)
        ++N;
    return N;
  }

  /// True when byte \p I of two paged stores lives on the same page.
  bool samePage(const ByteStore &Other, uint64_t I) const {
    return Pages[I / PageBytes] == Other.Pages[I / PageBytes];
  }

private:
  struct Page {
    Byte B[PageBytes];
  };

  uint64_t Size = 0;
  std::vector<Byte> Inline; ///< objects of at most one page
  std::vector<std::shared_ptr<Page>> Pages;
};

} // namespace cundef

#endif // CUNDEF_MEM_BYTESTORE_H
