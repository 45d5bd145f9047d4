/// \file bitstream.hpp
/// \brief Bit-granular writer/reader over byte buffers — the substrate of the
/// lossless entropy-coding stage of the in-situ compressor (§5.2).
///
/// Bits are packed LSB-first: the first bit written is bit 0 of byte 0. The
/// writer stages bits in a 64-bit accumulator and appends whole bytes; the
/// reader can hand out the next 64 bits in one word for table-driven
/// decoders. Both move words, but the stream is defined bit by bit, so it
/// does not depend on the host's byte order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace felis::compression {

class BitWriter {
 public:
  void put_bit(bool bit) { put_word(bit ? 1u : 0u, 1); }

  /// Write the low `count` bits of value, LSB first.
  void put_bits(std::uint64_t value, int count) {
    FELIS_CHECK(count >= 0 && count <= 64);
    if (count > 32) {
      put_word(value & 0xffffffffu, 32);
      value >>= 32;
      count -= 32;
    }
    put_word(value & ((1ull << count) - 1), count);
  }

  /// Unsigned Elias-gamma style: unary length prefix + binary payload.
  /// Encodes any value >= 0 compactly when small values dominate.
  void put_gamma(std::uint64_t value) {
    ++value;  // gamma codes are for positive integers
    int nbits = 0;
    for (std::uint64_t v = value; v > 1; v >>= 1) ++nbits;
    put_bits(0, nbits);
    put_bit(true);
    put_bits(value & ((1ull << nbits) - 1), nbits);
  }

  /// Pre-size the buffer for a stream of `bits` bits.
  void reserve_bits(usize bits) { buffer_.reserve((bits + 7) / 8); }

  /// The stream so far, final partial byte included (zero-padded).
  std::vector<std::byte> bytes() const {
    std::vector<std::byte> out = buffer_;
    append_pending(out);
    return out;
  }
  std::vector<std::byte> take() {
    append_pending(buffer_);
    pending_ = 0;
    npending_ = 0;
    return std::move(buffer_);
  }
  usize bit_count() const {
    return buffer_.size() * 8 + static_cast<usize>(npending_);
  }

 private:
  /// Append `count` <= 32 bits; `value` has no bits at or above `count`.
  /// Fewer than 32 bits are pending between calls, so the sum fits the
  /// accumulator, and every 32 staged bits go out as four bytes.
  void put_word(std::uint64_t value, int count) {
    pending_ |= value << npending_;
    npending_ += count;
    if (npending_ >= 32) {
      for (int i = 0; i < 4; ++i)
        buffer_.push_back(static_cast<std::byte>(pending_ >> (8 * i)));
      pending_ >>= 32;
      npending_ -= 32;
    }
  }

  void append_pending(std::vector<std::byte>& out) const {
    for (int i = 0; 8 * i < npending_; ++i)
      out.push_back(static_cast<std::byte>(pending_ >> (8 * i)));
  }

  std::vector<std::byte> buffer_;  ///< whole bytes written so far
  std::uint64_t pending_ = 0;      ///< staged bits, LSB = next stream bit
  int npending_ = 0;               ///< staged bit count, < 32 between calls
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  bool get_bit() {
    FELIS_CHECK_MSG(pos_ / 8 < size_, "BitReader: out of data");
    const bool bit =
        (static_cast<unsigned>(data_[pos_ / 8]) >> (pos_ % 8)) & 1u;
    ++pos_;
    return bit;
  }

  std::uint64_t get_bits(int count) {
    std::uint64_t v = 0;
    for (int i = 0; i < count; ++i)
      if (get_bit()) v |= (1ull << i);
    return v;
  }

  std::uint64_t get_gamma() {
    int nbits = 0;
    while (!get_bit()) {
      ++nbits;
      // A valid writer emits at most 63 leading zeros; more means the
      // stream is corrupt (and 1ull << 64 would be undefined below).
      FELIS_CHECK_MSG(nbits < 64, "BitReader: corrupt gamma code");
    }
    const std::uint64_t payload = get_bits(nbits);
    return ((1ull << nbits) | payload) - 1;
  }

  /// Valid low bits of a peek(): an eight-byte load shifted by up to 7.
  static constexpr int kPeekBits = 57;

  /// True while an eight-byte load at the current byte stays inside the
  /// buffer, i.e. while at least 64 bits are left.
  bool can_peek() const { return size_ * 8 - pos_ >= 64; }

  /// The next stream bits without consuming them, LSB = next bit; the low
  /// kPeekBits are valid. Unchecked: call only when can_peek().
  std::uint64_t peek() const {
    const std::byte* p = data_ + pos_ / 8;
    std::uint64_t word = 0;
    for (int i = 0; i < 8; ++i)
      word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return word >> (pos_ % 8);
  }

  /// Consume `count` bits already inspected through peek().
  void skip(int count) { pos_ += static_cast<usize>(count); }

  usize bit_position() const { return pos_; }

 private:
  const std::byte* data_;  ///< the caller's buffer; must outlive the reader
  usize size_;
  usize pos_ = 0;
};

}  // namespace felis::compression
