#include "compression/huffman.hpp"

#include <algorithm>
#include <array>
#include <queue>

#include "compression/bitstream.hpp"

namespace felis::compression {

namespace {

constexpr int kSymbols = 256;
constexpr int kMaxCodeLength = 32;
/// The decoder resolves any code of up to kTableBits bits in one lookup.
constexpr int kTableBits = 11;

/// Build code lengths with a standard Huffman tree over symbol frequencies.
std::vector<int> build_code_lengths(const std::vector<std::uint64_t>& freq) {
  struct Node {
    std::uint64_t weight;
    int index;  // < kSymbols: leaf; otherwise internal
  };
  const auto cmp = [](const Node& a, const Node& b) {
    return a.weight > b.weight || (a.weight == b.weight && a.index > b.index);
  };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
  std::vector<std::array<int, 2>> children;
  int next_internal = kSymbols;
  int active = 0;
  for (int s = 0; s < kSymbols; ++s) {
    if (freq[static_cast<usize>(s)] > 0) {
      heap.push({freq[static_cast<usize>(s)], s});
      ++active;
    }
  }
  std::vector<int> lengths(kSymbols, 0);
  if (active == 0) return lengths;
  if (active == 1) {
    // Single distinct symbol: give it a 1-bit code.
    for (int s = 0; s < kSymbols; ++s)
      if (freq[static_cast<usize>(s)] > 0) lengths[static_cast<usize>(s)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    const Node a = heap.top();
    heap.pop();
    const Node b = heap.top();
    heap.pop();
    children.push_back({a.index, b.index});
    heap.push({a.weight + b.weight, next_internal++});
  }
  // Depth-first walk to assign depths.
  struct Frame {
    int index;
    int depth;
  };
  std::vector<Frame> stack{{heap.top().index, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.index < kSymbols) {
      lengths[static_cast<usize>(f.index)] = std::max(f.depth, 1);
    } else {
      const auto& ch = children[static_cast<usize>(f.index - kSymbols)];
      stack.push_back({ch[0], f.depth + 1});
      stack.push_back({ch[1], f.depth + 1});
    }
  }
  return lengths;
}

/// Symbols sorted by (code length, symbol): the canonical code order.
std::vector<int> canonical_order(const std::vector<int>& lengths) {
  std::vector<int> order;
  for (int s = 0; s < kSymbols; ++s)
    if (lengths[static_cast<usize>(s)] > 0) order.push_back(s);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int la = lengths[static_cast<usize>(a)];
    const int lb = lengths[static_cast<usize>(b)];
    return la < lb || (la == lb && a < b);
  });
  return order;
}

/// Canonical code assignment from lengths (shorter codes first, then symbol
/// order); returns per-symbol (code, length) with codes in MSB-first order.
void canonical_codes(const std::vector<int>& lengths,
                     std::vector<std::uint32_t>& codes) {
  codes.assign(kSymbols, 0);
  // 64-bit accumulator: with untrusted (decoder-side) lengths the shift can
  // reach 32 bits, which is undefined on uint32; the Kraft check below then
  // rejects over-subscribed length sets before they can mis-decode.
  std::uint64_t code = 0;
  int prev_len = 0;
  for (const int s : canonical_order(lengths)) {
    const int len = lengths[static_cast<usize>(s)];
    code <<= (len - prev_len);
    FELIS_CHECK_MSG((code >> len) == 0,
                    "corrupt Huffman stream: over-subscribed code lengths");
    codes[static_cast<usize>(s)] = static_cast<std::uint32_t>(code);
    ++code;
    prev_len = len;
  }
}

/// The low `len` bits of `code`, mirrored. Codes are defined MSB-first but
/// the bit stream is LSB-first, so a mirrored code is what the stream holds.
std::uint32_t reverse_bits(std::uint32_t code, int len) {
  std::uint32_t r = 0;
  for (int i = 0; i < len; ++i) r |= ((code >> i) & 1u) << (len - 1 - i);
  return r;
}

/// Canonical decoder: per code length, the first code and its symbols.
struct CanonicalTables {
  std::vector<std::vector<int>> by_length;
  std::vector<std::uint32_t> first_code;

  CanonicalTables(const std::vector<int>& lengths,
                  const std::vector<std::uint32_t>& codes)
      : by_length(kMaxCodeLength + 1), first_code(kMaxCodeLength + 1, 0) {
    for (const int s : canonical_order(lengths))
      by_length[static_cast<usize>(lengths[static_cast<usize>(s)])].push_back(s);
    for (int len = 1; len <= kMaxCodeLength; ++len) {
      if (by_length[static_cast<usize>(len)].empty()) continue;
      first_code[static_cast<usize>(len)] =
          codes[static_cast<usize>(by_length[static_cast<usize>(len)].front())];
    }
  }

  /// Read one code a bit at a time. Every corruption check of the payload
  /// lives here: out of data, and no code within kMaxCodeLength bits.
  std::byte walk(BitReader& in) const {
    std::uint32_t code = 0;
    int len = 0;
    for (;;) {
      code = (code << 1) | static_cast<std::uint32_t>(in.get_bit());
      ++len;
      FELIS_CHECK_MSG(len <= kMaxCodeLength, "corrupt Huffman stream");
      const auto& bucket = by_length[static_cast<usize>(len)];
      if (!bucket.empty()) {
        const std::uint32_t offset = code - first_code[static_cast<usize>(len)];
        if (code >= first_code[static_cast<usize>(len)] && offset < bucket.size())
          return static_cast<std::byte>(bucket[static_cast<usize>(offset)]);
      }
    }
  }
};

/// One entry per kTableBits-bit stream window (LSB = next bit): the symbol
/// whose code prefixes the window and that code's length, or length 0 when
/// no code of at most kTableBits bits does.
struct TableEntry {
  std::uint8_t symbol = 0;
  std::uint8_t length = 0;
};

std::vector<TableEntry> build_decode_table(
    const std::vector<int>& lengths, const std::vector<std::uint32_t>& codes) {
  std::vector<TableEntry> table(usize{1} << kTableBits);
  for (int s = 0; s < kSymbols; ++s) {
    const int len = lengths[static_cast<usize>(s)];
    if (len == 0 || len > kTableBits) continue;
    const std::uint32_t rev = reverse_bits(codes[static_cast<usize>(s)], len);
    // Every window that starts with this code, whatever bits follow it.
    for (std::uint32_t tail = 0; tail < (1u << (kTableBits - len)); ++tail)
      table[rev | (tail << len)] = {static_cast<std::uint8_t>(s),
                                    static_cast<std::uint8_t>(len)};
  }
  return table;
}

}  // namespace

std::vector<std::byte> huffman_encode(const std::vector<std::byte>& input) {
  std::vector<std::uint64_t> freq(kSymbols, 0);
  for (const std::byte b : input) ++freq[static_cast<usize>(b)];
  std::vector<int> lengths = build_code_lengths(freq);
  for (const int l : lengths)
    FELIS_CHECK_MSG(l <= kMaxCodeLength, "Huffman code length overflow");
  std::vector<std::uint32_t> codes;
  canonical_codes(lengths, codes);

  // Codes are MSB-first but the stream is LSB-first: a mirrored code puts
  // its first bit first, so each symbol is one put_bits. Local arrays, not
  // the vectors: the byte stores in put_bits may alias anything whose
  // address has escaped, which would force reloads in the loop.
  std::array<std::uint32_t, kSymbols> rev{};
  std::array<int, kSymbols> len{};
  usize payload_bits = 0;
  for (usize s = 0; s < kSymbols; ++s) {
    len[s] = lengths[s];
    rev[s] = reverse_bits(codes[s], lengths[s]);
    payload_bits += freq[s] * static_cast<usize>(lengths[s]);
  }

  BitWriter out;
  // Gamma prefix (at most 2 x 65 bits) + header + payload.
  out.reserve_bits(130 + 6 * kSymbols + payload_bits);
  // Header: payload byte count, then 256 code lengths (6 bits each).
  out.put_gamma(input.size());
  for (int s = 0; s < kSymbols; ++s)
    out.put_bits(static_cast<std::uint64_t>(lengths[static_cast<usize>(s)]), 6);
  for (const std::byte b : input)
    out.put_bits(rev[static_cast<usize>(b)], len[static_cast<usize>(b)]);
  return out.take();
}

std::vector<std::byte> huffman_decode(const std::vector<std::byte>& blob) {
  BitReader in(blob);
  const usize count = in.get_gamma();
  // Every symbol costs at least one payload bit, so a count beyond 8 bits
  // per input byte cannot be genuine — reject before reserving memory.
  FELIS_CHECK_MSG(count <= blob.size() * 8,
                  "corrupt Huffman stream: impossible symbol count");
  std::vector<int> lengths(kSymbols);
  for (int s = 0; s < kSymbols; ++s) {
    lengths[static_cast<usize>(s)] = static_cast<int>(in.get_bits(6));
    FELIS_CHECK_MSG(lengths[static_cast<usize>(s)] <= kMaxCodeLength,
                    "corrupt Huffman stream: code length overflow");
  }
  std::vector<std::uint32_t> codes;
  canonical_codes(lengths, codes);
  const CanonicalTables canonical(lengths, codes);
  const std::vector<TableEntry> table = build_decode_table(lengths, codes);

  // Codes are prefix-free, so a table hit is exactly the code the canonical
  // walk would find. One peek covers four or five table lookups. A miss at
  // the first lookup (a longer code, or a prefix of no code) and the last 64
  // bits, where a peek would overrun the blob, take the walk, which raises
  // every payload error on the same inputs as a pure walk.
  std::vector<std::byte> out(count);
  std::byte* dst = out.data();
  std::byte* const end = dst + count;
  const TableEntry* lookup = table.data();
  constexpr std::uint64_t kMask = (1u << kTableBits) - 1;
  while (dst != end) {
    if (!in.can_peek()) {
      *dst++ = canonical.walk(in);
      continue;
    }
    const std::uint64_t window = in.peek();
    int used = 0;
    while (used <= BitReader::kPeekBits - kTableBits && dst != end) {
      const TableEntry e = lookup[(window >> used) & kMask];
      if (e.length == 0) break;
      *dst++ = static_cast<std::byte>(e.symbol);
      used += e.length;
    }
    in.skip(used);
    if (used == 0) *dst++ = canonical.walk(in);
  }
  return out;
}

}  // namespace felis::compression
