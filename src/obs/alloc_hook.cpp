// Replacement global operator new/delete: every allocation bumps the
// process-wide counters in obs/resource.hpp.
//
// This translation unit is NOT part of mlcd_obs — it ships as the
// `mlcd_obs_alloc` interface library, which compiles it directly into
// each binary that opts into allocation accounting (perfbench and the
// allocation-guard tests). Replacing the global operators is the one mechanism
// that sees every allocation in the process — STL containers, strings,
// closures — without touching a single call site, and a pair of relaxed
// fetch_adds is cheap enough to leave on for whole benchmark runs.
//
// Rules honored here:
//   * the throwing forms loop over std::get_new_handler() before
//     throwing bad_alloc, as the standard requires;
//   * size 0 allocates 1 byte so distinct objects get distinct pointers;
//   * aligned forms round the size up to the alignment for
//     std::aligned_alloc, and every form frees with std::free (valid
//     for glibc, which backs both malloc and aligned_alloc with the
//     same arena);
//   * counting uses memory_order_relaxed — totals are exact (atomic
//     RMW), only cross-thread ordering is unspecified, which a monotone
//     counter does not need. ASan/TSan still interpose malloc/free
//     underneath, so sanitized builds keep their checking.
#include <cstdlib>
#include <new>

#include "obs/resource.hpp"

namespace {

// Flags the hook as linked before main() so registries know the
// allocation series is real (and not a pair of frozen zeros).
const bool kHookRegistered = [] {
  mlcd::obs::detail::alloc_storage().linked.store(
      true, std::memory_order_relaxed);
  return true;
}();

void* alloc_or_handle(std::size_t size) {
  mlcd::obs::detail::note_alloc(size);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* aligned_alloc_or_handle(std::size_t size, std::size_t alignment) {
  mlcd::obs::detail::note_alloc(size);
  if (size == 0) size = 1;
  // std::aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  for (;;) {
    if (void* p = std::aligned_alloc(alignment, rounded)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return alloc_or_handle(size); }
void* operator new[](std::size_t size) { return alloc_or_handle(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  mlcd::obs::detail::note_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  mlcd::obs::detail::note_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  return aligned_alloc_or_handle(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return aligned_alloc_or_handle(size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  mlcd::obs::detail::note_alloc(size);
  const std::size_t align = static_cast<std::size_t>(alignment);
  const std::size_t wanted = size == 0 ? 1 : size;
  return std::aligned_alloc(align, (wanted + align - 1) / align * align);
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, alignment, tag);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
