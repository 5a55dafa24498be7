// Little-endian byte codec for every binary format prc writes: the sensor
// frames (iot/codec.h), the station checkpoint (BaseStation::serialize) and
// the ledger's write-ahead log (market/wal.h).
//
// Integers are little-endian and fixed-width, doubles travel as their
// IEEE-754 bits in a u64, and strings and blobs as a u32 length and the
// bytes.  ByteWriter fills a buffer it owns and hands it over with take();
// a caller that passes the buffer back in allocates nothing once it has
// grown, and a record costs a few buffer resizes, not one per field.
// ByteReader is a bounds-checked cursor: every short read throws the
// format's own error type, and a count read from the bytes is bounded by
// the bytes left (count()) before it can size an allocation.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prc {

namespace detail {

/// Slice-by-8 tables for the reflected IEEE 802.3 polynomial 0xedb88320:
/// row 0 is the classic byte-at-a-time table, and row k advances a byte
/// through k further zero bytes, so eight rows fold eight input bytes into
/// the register in one step.
inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t row = 1; row < 8; ++row) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[row - 1][i];
      tables[row][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}();

}  // namespace detail

/// CRC-32 (IEEE 802.3 polynomial) over a byte span: the sensor frame
/// header's check and the WAL's record trailer.  Slice-by-8, eight bytes
/// per step with a byte-at-a-time tail; any alignment, any length, and
/// usable in constant expressions.
constexpr std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& table = detail::kCrc32Tables;
  std::uint32_t crc = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    // Two little-endian words; the compiler merges each into one load.
    const std::uint32_t low =
        crc ^ (std::uint32_t{data[0]} | std::uint32_t{data[1]} << 8 |
               std::uint32_t{data[2]} << 16 | std::uint32_t{data[3]} << 24);
    const std::uint32_t high =
        std::uint32_t{data[4]} | std::uint32_t{data[5]} << 8 |
        std::uint32_t{data[6]} << 16 | std::uint32_t{data[7]} << 24;
    crc = table[7][low & 0xffu] ^ table[6][(low >> 8) & 0xffu] ^
          table[5][(low >> 16) & 0xffu] ^ table[4][low >> 24] ^
          table[3][high & 0xffu] ^ table[2][(high >> 8) & 0xffu] ^
          table[1][(high >> 16) & 0xffu] ^ table[0][high >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = table[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

namespace detail {
// The CRC-32/IEEE check value, proved at compile time.
inline constexpr std::uint8_t kCrcCheckInput[] = {'1', '2', '3', '4', '5',
                                                  '6', '7', '8', '9'};
static_assert(crc32(kCrcCheckInput, sizeof(kCrcCheckInput)) == 0xcbf43926u);
}  // namespace detail

/// Writes little-endian fields into a buffer it owns.  The buffer grows
/// ahead of the fields in steps (to at least kGrowBytes, doubling after
/// that, and never past a capacity it already has room in), so a record
/// costs one or a few resizes rather than one per field; take() trims the
/// zeroed slack past size() and hands the bytes over.
class ByteWriter {
 public:
  /// Starts empty, reusing `storage`'s allocation (its contents are
  /// discarded): a caller that hands back what take() returned allocates
  /// nothing once the buffer has held its largest record.
  explicit ByteWriter(std::vector<std::uint8_t> storage = {})
      : out_(std::move(storage)) {
    out_.clear();
  }

  /// Allocates room for `bytes` in one step (a frame that knows its size).
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  void u8(std::uint8_t value) { le(value); }
  void u16(std::uint16_t value) { le(value); }
  void u32(std::uint32_t value) { le(value); }
  void u64(std::uint64_t value) { le(value); }
  void f64(double value) { le(std::bit_cast<std::uint64_t>(value)); }

  /// A u32 length, then the bytes.
  void blob(std::span<const std::uint8_t> bytes) {
    u32(static_cast<std::uint32_t>(bytes.size()));
    const std::size_t offset = grow(bytes.size());
    std::copy(bytes.begin(), bytes.end(),
              out_.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  void str(std::string_view value) {
    blob({reinterpret_cast<const std::uint8_t*>(value.data()), value.size()});
  }

  /// Overwrites the u32 at `offset`: a field known only once what follows
  /// it is written, such as a length or a CRC.
  void patch_u32(std::size_t offset, std::uint32_t value) {
    store(offset, value);
  }

  /// Bytes written so far.
  std::size_t size() const noexcept { return size_; }
  std::span<const std::uint8_t> bytes() const noexcept {
    return std::span(out_).first(size_);
  }

  /// The bytes written, without the growth slack.
  std::vector<std::uint8_t> take() && {
    out_.resize(size_);
    return std::move(out_);
  }

 private:
  static constexpr std::size_t kGrowBytes = 256;

  /// Makes room for `n` more bytes and returns the offset they start at.
  std::size_t grow(std::size_t n) {
    const std::size_t offset = size_;
    size_ += n;
    if (size_ > out_.size()) {
      std::size_t target = std::max(2 * out_.size(), kGrowBytes);
      if (size_ <= out_.capacity()) target = std::min(target, out_.capacity());
      out_.resize(std::max(size_, target));
    }
    return offset;
  }

  template <typename T>
  void le(T value) {
    store(grow(sizeof(T)), value);
  }

  /// A little-endian host already holds `value` in wire order, so one
  /// copy stores it; other hosts shift it out a byte at a time.
  template <typename T>
  void store(std::size_t offset, T value) {
    const auto bytes = std::span(out_).subspan(offset, sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(bytes.data(), &value, sizeof(T));
    } else {
      for (std::uint8_t& byte : bytes) {
        byte = static_cast<std::uint8_t>(value);
        value = static_cast<T>(value >> 8);
      }
    }
  }

  std::vector<std::uint8_t> out_;
  std::size_t size_ = 0;  ///< bytes written; out_ holds zeroed slack past it
};

/// Bounds-checked little-endian cursor over `bytes`.  Every read past the
/// end throws `Error(truncated)`, so each format keeps its own exception
/// type: iot::CodecError, wal::FormatError or std::invalid_argument.
template <typename Error>
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, const char* truncated)
      : bytes_(bytes), truncated_(truncated) {}

  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next `size` bytes, unprefixed.
  std::span<const std::uint8_t> bytes(std::size_t size) {
    if (remaining() < size) throw Error(truncated_);
    const auto taken = bytes_.subspan(position_, size);
    position_ += size;
    return taken;
  }
  /// A u32 length, then that many bytes.
  std::span<const std::uint8_t> blob() { return bytes(u32()); }
  std::string str() {
    const auto taken = blob();
    return {reinterpret_cast<const char*>(taken.data()), taken.size()};
  }

  /// Reads a u32 item count and throws `Error(error)` unless that many
  /// items of at least `min_item_bytes` each fit in the bytes left: a count
  /// from the bytes must not size an allocation the input cannot fill.
  std::uint32_t count(std::size_t min_item_bytes, const char* error) {
    const std::uint32_t items = u32();
    if (items > remaining() / min_item_bytes) throw Error(error);
    return items;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - position_; }

 private:
  template <typename T>
  T le() {
    T value = 0;
    int shift = 0;
    for (const std::uint8_t byte : bytes(sizeof(T))) {
      value = static_cast<T>(value | static_cast<T>(T{byte} << shift));
      shift += 8;
    }
    return value;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t position_ = 0;
  const char* truncated_;
};

}  // namespace prc
