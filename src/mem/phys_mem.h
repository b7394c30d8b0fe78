// Sparse byte-addressable physical memory: private frames in a pooled arena
// over an optional shared, immutable, copy-on-write base image.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace whisper::mem {

/// Bytes per physical frame.
inline constexpr std::uint64_t kFrameBytes = 4096;

/// An immutable, contiguous run of 4 KiB frames that any number of
/// PhysicalMemory instances share (across threads) as their copy-on-write
/// base. Built once; its digest and per-frame hashes are computed from the
/// bytes at construction, so a memory that attaches it never hashes them.
class FrameImage {
 public:
  /// `bytes` holds whole frames; frame i sits at frame number
  /// first_frame + i. Throws std::invalid_argument on a partial frame.
  FrameImage(std::uint64_t first_frame, std::vector<std::uint8_t> bytes);

  [[nodiscard]] std::uint64_t first_frame() const noexcept {
    return first_frame_;
  }
  [[nodiscard]] std::size_t frames() const noexcept { return hash_.size(); }
  [[nodiscard]] bool contains(std::uint64_t frame_no) const noexcept {
    return frame_no - first_frame_ < hash_.size();
  }
  /// The bytes of frame number `frame_no` (which contains() must hold for).
  [[nodiscard]] const std::uint8_t* frame(std::uint64_t frame_no) const {
    return bytes_.data() + (frame_no - first_frame_) * kFrameBytes;
  }
  [[nodiscard]] std::uint64_t frame_hash(std::uint64_t frame_no) const {
    return hash_[frame_no - first_frame_];
  }
  /// Sum of frame_hash() over every frame: the digest of a memory holding
  /// exactly this image.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::uint64_t first_frame_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint64_t> hash_;
  std::uint64_t digest_ = 0;
};

/// Physical memory of 4 KiB frames. Reads of never-written frames return
/// zero, as DRAM-after-scrub would.
///
/// Each live frame is either a frame of the attached base image (shared,
/// never written) or a private slot of one flat arena. A frame number →
/// slot lookup (a flat vector over the base range, a hash map elsewhere)
/// serves every access; a free list makes slot allocation O(1) and keeps
/// the arena's storage alive across snapshot/reset cycles.
///
/// snapshot()/reset() implement the trial fast path, copy-on-write: after
/// snapshot() the first write to a frame copies its snapshot version (base
/// frame, private slot or zeroes) into a fresh slot and logs the frame.
/// reset() frees those slots and points each logged frame back at its
/// snapshot version. Both cost O(frames written), not O(footprint).
class PhysicalMemory {
 public:
  /// Attach `image` as the copy-on-write base: its frames become live and
  /// read as its bytes until written. Attaching the image already attached
  /// is a no-op. Throws std::logic_error when a different base is attached,
  /// the memory is snapshotted, or a private frame already lies in the
  /// image's range.
  void attach_base(std::shared_ptr<const FrameImage> image);

  [[nodiscard]] std::uint8_t read8(std::uint64_t paddr) const;
  [[nodiscard]] std::uint64_t read64(std::uint64_t paddr) const;
  void write8(std::uint64_t paddr, std::uint8_t value);
  void write64(std::uint64_t paddr, std::uint64_t value);

  /// Bulk helpers (victim data, secrets, line fills): one frame lookup per
  /// frame the range touches.
  void write_bytes(std::uint64_t paddr, const std::uint8_t* data,
                   std::size_t len);
  void read_bytes(std::uint64_t paddr, std::span<std::uint8_t> out) const;
  [[nodiscard]] std::vector<std::uint8_t> read_bytes(std::uint64_t paddr,
                                                     std::size_t len) const;

  /// Mark the current contents as the baseline reset() restores. O(frames
  /// written since the previous snapshot): nothing is copied up front. May
  /// be called again to re-baseline.
  void snapshot();
  /// Restore the baseline: free every slot allocated since the snapshot
  /// and point its frame back at the snapshot version (or drop the frame
  /// if it did not exist). Throws std::logic_error if no snapshot was
  /// taken.
  void reset();
  [[nodiscard]] bool snapshotted() const noexcept { return has_baseline_; }

  /// Number of live frames, base and private (for tests / accounting).
  [[nodiscard]] std::size_t allocated_frames() const noexcept {
    return (base_ ? base_->frames() : 0) + slot_of_.size();
  }
  /// Live frames whose bytes sit in this memory's own arena rather than in
  /// the shared base image.
  [[nodiscard]] std::size_t private_frames() const noexcept;
  /// Live frame numbers in ascending order (for tests).
  [[nodiscard]] std::vector<std::uint64_t> live_frames() const;
  /// Arena capacity in frames: live + snapshot copies + pooled-free. Never
  /// shrinks; a steady snapshot/reset cycle stops growing after the first
  /// trial.
  [[nodiscard]] std::size_t pool_frames() const noexcept {
    return frame_of_slot_.size();
  }
  /// Frames written (or newly allocated) since the last snapshot()/reset().
  [[nodiscard]] std::size_t dirty_frames() const noexcept {
    return dirty_.size();
  }

  /// One live frame's term of digest(): a hash of its frame number and its
  /// 4 KiB of contents.
  [[nodiscard]] static std::uint64_t frame_hash(
      std::uint64_t frame_no, const std::uint8_t* frame) noexcept;
  /// Order-independent digest of the live frame set: the sum of
  /// frame_hash() over every live frame, so allocation history cannot leak
  /// into it. Kept incrementally — the base image's precomputed digest plus,
  /// per private frame, its hash minus the base frame's (if any) — so the
  /// cost is O(private frames), and the value equals a full scan exactly.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Fault-injection hook: flip one byte of the lowest-numbered live frame.
  /// A base frame is privatised first, and the flip is not logged as a
  /// write, so on a clean memory (the runner corrupts right after reset())
  /// reset() cannot restore it — exactly the silent snapshot drift digest()
  /// exists to catch. No-op on an empty memory. Deterministic.
  void corrupt_frame_for_test();

 private:
  /// A frame written since the snapshot and the slot holding its snapshot
  /// version (kNoSlot: the base frame, or nothing).
  struct Dirty {
    std::uint64_t frame_no;
    std::uint32_t saved;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint64_t kNotLive = ~std::uint64_t{0};

  [[nodiscard]] std::uint8_t* slot_data(std::uint32_t s) noexcept {
    return arena_.data() + std::size_t{s} * kFrameBytes;
  }
  [[nodiscard]] const std::uint8_t* slot_data(std::uint32_t s) const noexcept {
    return arena_.data() + std::size_t{s} * kFrameBytes;
  }
  /// The frame's bytes, or nullptr when it is not live (reads as zeroes).
  [[nodiscard]] const std::uint8_t* frame_if_present(
      std::uint64_t frame_no) const;
  [[nodiscard]] std::uint8_t* frame_for_write(std::uint64_t frame_no);
  /// Where the frame's slot number is stored; nullptr when the frame is
  /// outside the base and not live.
  [[nodiscard]] std::uint32_t* slot_ref(std::uint64_t frame_no);
  std::uint32_t alloc_slot(std::uint64_t frame_no);
  void free_slot(std::uint32_t s) noexcept;

  std::shared_ptr<const FrameImage> base_;
  std::vector<std::uint32_t> base_slot_;       // base frame → slot or kNoSlot
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;  // other frames
  std::vector<std::uint8_t> arena_;            // pool_frames() * kFrameBytes
  std::vector<std::uint64_t> frame_of_slot_;   // slot → frame# or kNotLive
  std::vector<std::uint64_t> slot_epoch_;      // slot → epoch allocated in
  std::vector<std::uint32_t> free_slots_;

  bool has_baseline_ = false;
  std::uint64_t epoch_ = 1;
  std::vector<Dirty> dirty_;  // one entry per frame written this epoch
};

}  // namespace whisper::mem
