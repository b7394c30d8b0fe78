#include "mem/phys_mem.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace whisper::mem {

FrameImage::FrameImage(std::uint64_t first_frame,
                       std::vector<std::uint8_t> bytes)
    : first_frame_(first_frame), bytes_(std::move(bytes)) {
  if (bytes_.size() % kFrameBytes != 0)
    throw std::invalid_argument("FrameImage: bytes are not whole frames");
  hash_.resize(bytes_.size() / kFrameBytes);
  for (std::size_t i = 0; i < hash_.size(); ++i) {
    hash_[i] = PhysicalMemory::frame_hash(first_frame_ + i,
                                          bytes_.data() + i * kFrameBytes);
    digest_ += hash_[i];
  }
}

void PhysicalMemory::attach_base(std::shared_ptr<const FrameImage> image) {
  if (image == base_) return;  // several KernelLayouts over one memory
  if (base_)
    throw std::logic_error("PhysicalMemory: a different base is attached");
  if (has_baseline_)
    throw std::logic_error("PhysicalMemory: attach_base after snapshot()");
  for (const auto& [frame_no, slot] : slot_of_)
    if (image->contains(frame_no))
      throw std::logic_error(
          "PhysicalMemory: attach_base over a private frame");
  base_ = std::move(image);
  base_slot_.assign(base_->frames(), kNoSlot);
}

std::uint32_t PhysicalMemory::alloc_slot(std::uint64_t frame_no) {
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(frame_of_slot_.size());
    frame_of_slot_.push_back(kNotLive);
    slot_epoch_.push_back(0);
    arena_.resize(arena_.size() + kFrameBytes);
  }
  frame_of_slot_[s] = frame_no;
  slot_epoch_[s] = epoch_;
  return s;
}

void PhysicalMemory::free_slot(std::uint32_t s) noexcept {
  frame_of_slot_[s] = kNotLive;
  free_slots_.push_back(s);
}

std::uint32_t* PhysicalMemory::slot_ref(std::uint64_t frame_no) {
  if (base_ && base_->contains(frame_no))
    return &base_slot_[frame_no - base_->first_frame()];
  const auto it = slot_of_.find(frame_no);
  return it == slot_of_.end() ? nullptr : &it->second;
}

const std::uint8_t* PhysicalMemory::frame_if_present(
    std::uint64_t frame_no) const {
  if (base_ && base_->contains(frame_no)) {
    const std::uint32_t s = base_slot_[frame_no - base_->first_frame()];
    return s == kNoSlot ? base_->frame(frame_no) : slot_data(s);
  }
  const auto it = slot_of_.find(frame_no);
  return it == slot_of_.end() ? nullptr : slot_data(it->second);
}

std::uint8_t* PhysicalMemory::frame_for_write(std::uint64_t frame_no) {
  std::uint32_t* ref = slot_ref(frame_no);
  const std::uint32_t cur = ref ? *ref : kNoSlot;
  if (cur != kNoSlot && (!has_baseline_ || slot_epoch_[cur] == epoch_))
    return slot_data(cur);

  // Copy-on-write: the frame's current version (a slot from before the
  // snapshot, the base frame, or nothing) is kept for reset().
  const std::uint32_t s = alloc_slot(frame_no);
  if (cur != kNoSlot) {
    std::memcpy(slot_data(s), slot_data(cur), kFrameBytes);
    frame_of_slot_[cur] = kNotLive;  // kept only as the saved version
  } else if (ref) {
    std::memcpy(slot_data(s), base_->frame(frame_no), kFrameBytes);
  } else {
    std::memset(slot_data(s), 0, kFrameBytes);
  }
  if (has_baseline_) dirty_.push_back({frame_no, cur});
  if (ref)
    *ref = s;  // alloc_slot() touches neither base_slot_ nor slot_of_
  else
    slot_of_.emplace(frame_no, s);
  return slot_data(s);
}

std::uint8_t PhysicalMemory::read8(std::uint64_t paddr) const {
  const std::uint8_t* f = frame_if_present(paddr / kFrameBytes);
  return f ? f[paddr % kFrameBytes] : 0;
}

std::uint64_t PhysicalMemory::read64(std::uint64_t paddr) const {
  std::uint8_t b[8];
  const std::uint64_t off = paddr % kFrameBytes;
  const std::uint8_t* src = b;
  if (off <= kFrameBytes - 8) {  // one frame lookup
    src = frame_if_present(paddr / kFrameBytes);
    if (!src) return 0;
    src += off;
  } else {
    read_bytes(paddr, b);
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | src[i];  // little-endian
  return v;
}

void PhysicalMemory::write8(std::uint64_t paddr, std::uint8_t value) {
  frame_for_write(paddr / kFrameBytes)[paddr % kFrameBytes] = value;
}

void PhysicalMemory::write64(std::uint64_t paddr, std::uint64_t value) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i)
    b[i] = static_cast<std::uint8_t>(value >> (8 * i));
  write_bytes(paddr, b, sizeof b);
}

void PhysicalMemory::write_bytes(std::uint64_t paddr, const std::uint8_t* data,
                                 std::size_t len) {
  while (len > 0) {
    const std::uint64_t off = paddr % kFrameBytes;
    const std::size_t n = std::min<std::size_t>(len, kFrameBytes - off);
    std::memcpy(frame_for_write(paddr / kFrameBytes) + off, data, n);
    paddr += n;
    data += n;
    len -= n;
  }
}

void PhysicalMemory::read_bytes(std::uint64_t paddr,
                                std::span<std::uint8_t> out) const {
  std::uint8_t* dst = out.data();
  std::size_t len = out.size();
  while (len > 0) {
    const std::uint64_t off = paddr % kFrameBytes;
    const std::size_t n = std::min<std::size_t>(len, kFrameBytes - off);
    if (const std::uint8_t* f = frame_if_present(paddr / kFrameBytes))
      std::memcpy(dst, f + off, n);
    else
      std::memset(dst, 0, n);
    paddr += n;
    dst += n;
    len -= n;
  }
}

std::vector<std::uint8_t> PhysicalMemory::read_bytes(std::uint64_t paddr,
                                                     std::size_t len) const {
  std::vector<std::uint8_t> out(len);
  read_bytes(paddr, out);
  return out;
}

std::size_t PhysicalMemory::private_frames() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(frame_of_slot_.begin(), frame_of_slot_.end(),
                    [](std::uint64_t f) { return f != kNotLive; }));
}

std::vector<std::uint64_t> PhysicalMemory::live_frames() const {
  std::vector<std::uint64_t> out;
  out.reserve(allocated_frames());
  for (std::size_t i = 0; base_ && i < base_->frames(); ++i)
    out.push_back(base_->first_frame() + i);
  for (const auto& [frame_no, slot] : slot_of_) out.push_back(frame_no);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t PhysicalMemory::frame_hash(std::uint64_t frame_no,
                                         const std::uint8_t* frame) noexcept {
  // FNV-1a over the frame's 64-bit words, seeded with the frame number.
  std::uint64_t h = 1469598103934665603ull ^ frame_no;
  for (std::uint64_t i = 0; i < kFrameBytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, frame + i, 8);
    h ^= w;
    h *= 1099511628211ull;
  }
  // Final avalanche (splitmix64) so per-frame hashes sum without the
  // low-entropy tails cancelling.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

std::uint64_t PhysicalMemory::digest() const noexcept {
  // Unsigned wrap-around makes the subtraction exact modulo 2^64.
  std::uint64_t acc = base_ ? base_->digest() : 0;
  for (std::uint32_t s = 0; s < frame_of_slot_.size(); ++s) {
    const std::uint64_t frame_no = frame_of_slot_[s];
    if (frame_no == kNotLive) continue;
    acc += frame_hash(frame_no, slot_data(s));
    if (base_ && base_->contains(frame_no)) acc -= base_->frame_hash(frame_no);
  }
  return acc;
}

void PhysicalMemory::corrupt_frame_for_test() {
  if (allocated_frames() == 0) return;
  std::uint64_t victim = base_ ? base_->first_frame() : kNotLive;
  for (const auto& [frame_no, slot] : slot_of_)
    victim = std::min(victim, frame_no);
  std::uint32_t& ref = *slot_ref(victim);
  if (ref == kNoSlot) {
    // Privatise the base frame outside the write log: epoch 0 is never
    // the current one, so the slot counts as a snapshot version.
    ref = alloc_slot(victim);
    slot_epoch_[ref] = 0;
    std::memcpy(slot_data(ref), base_->frame(victim), kFrameBytes);
  }
  slot_data(ref)[0] ^= 0xA5;
}

void PhysicalMemory::snapshot() {
  // The logged frames' current slots become their snapshot versions; the
  // versions they replaced are no longer reachable.
  for (const Dirty& d : dirty_)
    if (d.saved != kNoSlot) free_slot(d.saved);
  dirty_.clear();
  has_baseline_ = true;
  ++epoch_;
}

void PhysicalMemory::reset() {
  if (!has_baseline_)
    throw std::logic_error("PhysicalMemory::reset: no snapshot taken");
  for (const Dirty& d : dirty_) {
    std::uint32_t* ref = slot_ref(d.frame_no);
    free_slot(*ref);
    if (d.saved != kNoSlot) {
      *ref = d.saved;
      frame_of_slot_[d.saved] = d.frame_no;
    } else if (base_ && base_->contains(d.frame_no)) {
      *ref = kNoSlot;
    } else {
      slot_of_.erase(d.frame_no);
    }
  }
  dirty_.clear();
}

}  // namespace whisper::mem
