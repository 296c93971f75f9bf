#pragma once
// Versioned binary checkpoint container — schema `pet.ckpt/1`.
//
// A checkpoint is an ordered list of named sections, each an opaque byte
// payload produced by some component's `save_state`. On disk:
//
//   magic "PETCKPT1" (8 bytes)
//   u32   section count
//   per section:
//     u32  name length, name bytes
//     u64  payload length
//     u32  CRC-32 of payload
//     payload bytes
//
// All integers are little-endian regardless of host order. Readers validate
// the magic, every length against the remaining file size, and every CRC
// before a payload reaches a component's `load_state`, so a truncated or
// bit-flipped file fails loudly instead of resuming from garbage. Files are
// written through `atomic_write_file`, so a crash mid-save leaves the
// previous checkpoint intact.
//
// ByteSink/ByteSource are the section codec: explicit fixed-width fields,
// no padding, no host-endianness leakage. ByteSource is value-returning
// with a sticky fail flag — callers decode unconditionally and check
// `ok()` once at the end (plus any semantic validation of the values).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pet::sim {

class Rng;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

/// Little-endian binary encoder for checkpoint section payloads.
class ByteSink {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // IEEE-754 bit pattern as u64
  void str(std::string_view s);
  void f64_vec(const std::vector<double>& v);
  void i32_vec(const std::vector<std::int32_t>& v);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder. Any read past the end (including
/// a corrupted vector length) sets a sticky fail flag and yields zeros /
/// empties from then on; callers check `ok()` after decoding.
class ByteSource {
 public:
  ByteSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteSource(const std::vector<std::uint8_t>& bytes)
      : ByteSource(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(u32());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<double> f64_vec();
  [[nodiscard]] std::vector<std::int32_t> i32_vec();

  /// True when `count` more elements of `width` bytes each are left to
  /// read; otherwise sets the fail flag. Check a decoded length with this
  /// before reserving for it: the division cannot wrap the way
  /// `count * width` does for a corrupted count.
  [[nodiscard]] bool fits(std::uint64_t count, std::size_t width) {
    if (fail_ || count > (size_ - pos_) / width) {
      fail_ = true;
      return false;
    }
    return true;
  }

  /// True while every read so far was in bounds.
  [[nodiscard]] bool ok() const { return !fail_; }
  /// True when the payload was consumed exactly (no trailing bytes).
  [[nodiscard]] bool at_end() const { return !fail_ && pos_ == size_; }

 private:
  [[nodiscard]] bool take(std::size_t n) {
    if (fail_ || size_ - pos_ < n) {
      fail_ = true;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

/// Ordered named-section container for `pet.ckpt/1` files.
class Checkpoint {
 public:
  static constexpr std::string_view kSchema = "pet.ckpt/1";

  /// Add or replace a section (insertion order preserved on disk).
  void set_section(std::string name, std::vector<std::uint8_t> payload);
  /// Payload lookup; nullptr when the section is absent.
  [[nodiscard]] const std::vector<std::uint8_t>* section(
      std::string_view name) const;
  [[nodiscard]] const std::vector<
      std::pair<std::string, std::vector<std::uint8_t>>>&
  sections() const {
    return sections_;
  }

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static std::optional<Checkpoint> deserialize(
      const std::uint8_t* data, std::size_t size, std::string* error = nullptr);

  /// Atomic (tmp + fsync + rename) durable save.
  [[nodiscard]] bool write_file(const std::string& path) const;
  [[nodiscard]] static std::optional<Checkpoint> read_file(
      const std::string& path, std::string* error = nullptr);

 private:
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

/// Serialize / restore an Rng stream position (4 xoshiro words).
void save_rng(ByteSink& out, const Rng& rng);
[[nodiscard]] bool load_rng(ByteSource& in, Rng& rng);

}  // namespace pet::sim
