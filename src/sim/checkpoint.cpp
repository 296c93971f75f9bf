#include "sim/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#include "sim/fs_atomic.hpp"
#include "sim/rng.hpp"

namespace pet::sim {

namespace {

constexpr std::array<char, 8> kMagic = {'P', 'E', 'T', 'C', 'K', 'P', 'T', '1'};

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ data[i]) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

// --- ByteSink ---------------------------------------------------------------

void ByteSink::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteSink::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteSink::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void ByteSink::i32_vec(const std::vector<std::int32_t>& v) {
  u64(v.size());
  for (std::int32_t x : v) i32(x);
}

// --- ByteSource -------------------------------------------------------------

std::uint8_t ByteSource::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint32_t ByteSource::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteSource::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double ByteSource::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteSource::str() {
  const std::uint32_t len = u32();
  if (!take(len)) return {};
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

std::vector<double> ByteSource::f64_vec() {
  const std::uint64_t len = u64();
  // Validate the declared length against the remaining bytes before
  // reserving, so a corrupted length cannot trigger a giant allocation.
  if (!fits(len, 8)) return {};
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(len));
  for (std::uint64_t i = 0; i < len; ++i) v.push_back(f64());
  return v;
}

std::vector<std::int32_t> ByteSource::i32_vec() {
  const std::uint64_t len = u64();
  if (!fits(len, 4)) return {};
  std::vector<std::int32_t> v;
  v.reserve(static_cast<std::size_t>(len));
  for (std::uint64_t i = 0; i < len; ++i) v.push_back(i32());
  return v;
}

// --- Checkpoint -------------------------------------------------------------

void Checkpoint::set_section(std::string name,
                             std::vector<std::uint8_t> payload) {
  for (auto& [existing, bytes] : sections_) {
    if (existing == name) {
      bytes = std::move(payload);
      return;
    }
  }
  sections_.emplace_back(std::move(name), std::move(payload));
}

const std::vector<std::uint8_t>* Checkpoint::section(
    std::string_view name) const {
  for (const auto& [existing, bytes] : sections_) {
    if (existing == name) return &bytes;
  }
  return nullptr;
}

std::vector<std::uint8_t> Checkpoint::serialize() const {
  ByteSink out;
  for (char c : kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    out.str(name);
    out.u64(payload.size());
    out.u32(crc32(payload.data(), payload.size()));
    for (std::uint8_t b : payload) out.u8(b);
  }
  return out.take();
}

std::optional<Checkpoint> Checkpoint::deserialize(const std::uint8_t* data,
                                                  std::size_t size,
                                                  std::string* error) {
  const auto fail = [error](const char* why) -> std::optional<Checkpoint> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (size < kMagic.size() ||
      std::memcmp(data, kMagic.data(), kMagic.size()) != 0) {
    return fail("bad magic (not a pet.ckpt/1 file)");
  }
  ByteSource in(data + kMagic.size(), size - kMagic.size());
  const std::uint32_t count = in.u32();
  Checkpoint ckpt;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = in.str();
    const std::uint64_t len = in.u64();
    const std::uint32_t expected_crc = in.u32();
    if (!in.ok()) return fail("truncated section header");
    if (!in.fits(len, 1)) return fail("truncated section payload");
    std::vector<std::uint8_t> payload;
    payload.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t b = 0; b < len; ++b) payload.push_back(in.u8());
    if (crc32(payload.data(), payload.size()) != expected_crc) {
      if (error != nullptr) *error = "CRC mismatch in section " + name;
      return std::nullopt;
    }
    ckpt.set_section(std::move(name), std::move(payload));
  }
  if (!in.at_end()) return fail("trailing bytes after last section");
  return ckpt;
}

bool Checkpoint::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  return atomic_write_file(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             bytes.size()));
}

std::optional<Checkpoint> Checkpoint::read_file(const std::string& path,
                                                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 4096> chunk{};
  std::size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    bytes.insert(bytes.end(), chunk.begin(),
                 chunk.begin() + static_cast<std::ptrdiff_t>(got));
  }
  std::fclose(f);
  return deserialize(bytes.data(), bytes.size(), error);
}

void save_rng(ByteSink& out, const Rng& rng) {
  for (std::uint64_t word : rng.state()) out.u64(word);
}

bool load_rng(ByteSource& in, Rng& rng) {
  std::array<std::uint64_t, 4> state{};
  for (auto& word : state) word = in.u64();
  if (!in.ok()) return false;
  rng.set_state(state);
  return true;
}

}  // namespace pet::sim
