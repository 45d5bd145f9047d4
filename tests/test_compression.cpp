// Tests for the in-situ compression pipeline: bitstream and Huffman
// primitives, known-answer pins of the coded format and CRC-32, hostile
// Huffman streams fed straight to the decoder, modal round trips,
// error-bound enforcement, compression-ratio behaviour on smooth vs rough
// fields, and curved-mesh weighting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>

#include "common/crc32.hpp"
#include "compression/bitstream.hpp"
#include "compression/compressor.hpp"
#include "field/coef.hpp"
#include "compression/huffman.hpp"

namespace felis::compression {
namespace {

TEST(BitStream, BitsRoundTrip) {
  BitWriter w;
  w.put_bits(0b1011001, 7);
  w.put_bit(true);
  w.put_bits(0xdeadbeefcafe, 48);
  // Word-width edges: a full 64-bit write, an empty write, and the widths
  // either side of the writer's 32-bit split, each with stray high bits that
  // must not leak into the stream.
  w.put_bits(0xfedcba9876543210ull, 64);
  w.put_bits(0xffffu, 0);
  w.put_bits(~0ull, 31);
  w.put_bits(0xf89abcdefull, 32);
  w.put_bits(0xf1abcdef01ull, 33);
  w.put_bits(0x5, 3);
  EXPECT_EQ(w.bit_count(), 7u + 1 + 48 + 64 + 0 + 31 + 32 + 33 + 3);
  const auto bytes = w.bytes();
  EXPECT_EQ(bytes.size(), (w.bit_count() + 7) / 8);
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(7), 0b1011001u);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get_bits(48), 0xdeadbeefcafeull);
  EXPECT_EQ(r.get_bits(64), 0xfedcba9876543210ull);
  EXPECT_EQ(r.get_bits(0), 0u);
  EXPECT_EQ(r.get_bits(31), 0x7fffffffu);
  EXPECT_EQ(r.get_bits(32), 0x89abcdefu);
  EXPECT_EQ(r.get_bits(33), 0x1abcdef01ull);
  EXPECT_EQ(r.get_bits(3), 0x5u);
  EXPECT_EQ(r.bit_position(), w.bit_count());
}

TEST(BitStream, GammaRoundTrip) {
  BitWriter w;
  const std::vector<std::uint64_t> values = {0, 1, 2, 3, 7, 8, 100, 12345, 1u << 30};
  for (const auto v : values) w.put_gamma(v);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.get_gamma(), v);
}

TEST(BitStream, ReaderThrowsPastEnd) {
  BitWriter w;
  w.put_bit(true);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  r.get_bits(8);  // within the padded byte
  EXPECT_THROW(r.get_bit(), Error);
}

TEST(Huffman, RoundTripsVariousInputs) {
  std::mt19937 gen(1);
  for (const usize size : {usize(0), usize(1), usize(3), usize(1000), usize(65536)}) {
    std::vector<std::byte> input(size);
    // Skewed distribution — the realistic case for quantized coefficients.
    std::geometric_distribution<int> dist(0.3);
    for (auto& b : input) b = static_cast<std::byte>(dist(gen) & 0xff);
    const auto blob = huffman_encode(input);
    const auto back = huffman_decode(blob);
    ASSERT_EQ(back, input) << "size " << size;
  }
}

TEST(Huffman, SingleSymbolInput) {
  std::vector<std::byte> input(5000, std::byte{42});
  const auto blob = huffman_encode(input);
  EXPECT_EQ(huffman_decode(blob), input);
  // 5000 identical bytes cost ~1 bit each plus the header.
  EXPECT_LT(blob.size(), 1000u);
}

TEST(Huffman, CompressesSkewedData) {
  std::mt19937 gen(2);
  std::geometric_distribution<int> dist(0.5);
  std::vector<std::byte> input(100000);
  for (auto& b : input) b = static_cast<std::byte>(dist(gen) & 0x0f);
  const auto blob = huffman_encode(input);
  EXPECT_LT(blob.size(), input.size() / 2);
}

TEST(Huffman, AllByteValues) {
  std::vector<std::byte> input(4096);
  for (usize i = 0; i < input.size(); ++i)
    input[i] = static_cast<std::byte>(i % 256);
  EXPECT_EQ(huffman_decode(huffman_encode(input)), input);
}

// ---- known answers: the coded format and the checksum are pinned ---------

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::transform(s.begin(), s.end(), out.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  return out;
}

/// CRC-32 straight from its definition: reflected polynomial 0xEDB88320,
/// one bit at a time, no tables.
std::uint32_t crc32_bitwise(const std::byte* data, usize n) {
  std::uint32_t c = 0xffffffffu;
  for (usize i = 0; i < n; ++i) {
    c ^= static_cast<std::uint32_t>(data[i]);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("")), 0u);
}

TEST(Crc32, MatchesBitwiseDefinitionAtEveryLengthAndOffset) {
  // Lengths 0..64 at start offsets 0..7 reach every split between the
  // eight-byte blocks and the byte-at-a-time tail.
  std::mt19937 gen(11);
  std::vector<std::byte> buf(8 + 64);
  for (auto& b : buf) b = static_cast<std::byte>(gen() & 0xffu);
  for (usize offset = 0; offset < 8; ++offset) {
    for (usize len = 0; len <= 64; ++len) {
      const std::byte* p = buf.data() + offset;
      EXPECT_EQ(crc32(p, len), crc32_bitwise(p, len))
          << "offset " << offset << " length " << len;
      // Chaining over a split buffer equals one pass over the whole.
      const usize half = len / 3;
      EXPECT_EQ(crc32(p + half, len - half, crc32(p, half)), crc32(p, len));
    }
  }
}

TEST(Huffman, KnownAnswerPinsTheCodedFormat) {
  const std::vector<std::byte> input = bytes_of("abracadabra");
  const auto blob = huffman_encode(input);
  EXPECT_EQ(blob.size(), 196u);
  EXPECT_EQ(crc32(blob), 0x989E2E19u);
  EXPECT_EQ(huffman_decode(blob), input);
}

// ---- hostile streams fed straight to the decoder -------------------------

/// Symbol s in [0, symbols) appears Fib(s + 1) times, shuffled. Huffman
/// coding of Fibonacci weights is maximally unbalanced: the two rarest
/// symbols get codes of `symbols - 1` bits.
std::vector<std::byte> fibonacci_input(int symbols) {
  std::vector<std::byte> input;
  std::uint64_t a = 1, b = 1;
  for (int s = 0; s < symbols; ++s) {
    input.insert(input.end(), a, static_cast<std::byte>(s));
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  std::shuffle(input.begin(), input.end(), std::mt19937(3));
  return input;
}

/// Longest code length declared in a coded blob's header.
int longest_code(const std::vector<std::byte>& blob) {
  BitReader r(blob);
  r.get_gamma();
  int longest = 0;
  for (int s = 0; s < 256; ++s)
    longest = std::max(longest, static_cast<int>(r.get_bits(6)));
  return longest;
}

/// Decoding a damaged stream may succeed (the damage hit padding, or changed
/// one symbol into another) or throw felis::Error; anything else — another
/// exception type, or a read out of bounds under ASan — is a decoder bug.
void expect_decodes_or_throws(const std::vector<std::byte>& blob,
                              const std::string& what) {
  try {
    (void)huffman_decode(blob);
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": non-felis exception " << e.what();
  }
}

TEST(Huffman, CodesLongerThanTheDecodeTableRoundTrip) {
  const std::vector<std::byte> input = fibonacci_input(16);
  const auto blob = huffman_encode(input);
  EXPECT_GT(longest_code(blob), 11) << "the fallback walk is not exercised";
  EXPECT_LE(longest_code(blob), 32);
  EXPECT_EQ(huffman_decode(blob), input);
}

TEST(Huffman, EveryTruncationAndBitFlipDecodesOrThrows) {
  std::mt19937 gen(4);
  std::geometric_distribution<int> dist(0.4);
  std::vector<std::byte> skewed(300);
  for (auto& b : skewed) b = static_cast<std::byte>(dist(gen) & 0xff);
  for (const auto& input : {fibonacci_input(14), skewed}) {
    const auto blob = huffman_encode(input);
    ASSERT_EQ(huffman_decode(blob), input);
    for (usize len = 0; len < blob.size(); ++len)
      expect_decodes_or_throws(
          std::vector<std::byte>(blob.begin(),
                                 blob.begin() + static_cast<std::ptrdiff_t>(len)),
          "truncation at " + std::to_string(len));
    for (usize bit = 0; bit < blob.size() * 8; ++bit) {
      auto flipped = blob;
      flipped[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      expect_decodes_or_throws(flipped, "flip of bit " + std::to_string(bit));
    }
  }
}

/// A bare Huffman header: the symbol count, then the 256 six-bit code
/// lengths (unlisted symbols get length 0). No payload follows.
std::vector<std::byte> craft_header(std::uint64_t count,
                                    const std::map<int, int>& lengths) {
  BitWriter w;
  w.put_gamma(count);
  for (int s = 0; s < 256; ++s) {
    const auto it = lengths.find(s);
    w.put_bits(it == lengths.end() ? 0u : static_cast<unsigned>(it->second), 6);
  }
  return w.take();
}

void expect_error_naming(const std::vector<std::byte>& blob,
                         const std::string& needle) {
  try {
    (void)huffman_decode(blob);
    ADD_FAILURE() << "accepted a stream that should fail with: " << needle;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Huffman, CraftedHeadersThrowNamedErrors) {
  expect_error_naming(craft_header(1, {{65, 33}}), "code length overflow");
  expect_error_naming(craft_header(1, {{1, 1}, {2, 1}, {3, 1}}),
                      "over-subscribed");
  // The header alone is ~200 bytes, so 2^20 symbols cannot fit in it.
  expect_error_naming(craft_header(1u << 20, {{0, 1}, {1, 1}}),
                      "impossible symbol count");
}

struct CompressorSetup {
  mesh::LocalMesh lmesh;
  field::Space space;
  field::Coef coef;
};

CompressorSetup make_setup(bool cylinder, int degree) {
  CompressorSetup s;
  if (cylinder) {
    mesh::CylinderMeshConfig cfg;
    cfg.nc = 2;
    cfg.nr = 2;
    cfg.nz = 3;
    s.lmesh = mesh::distribute_mesh(mesh::make_cylinder_mesh(cfg), degree, 1).front();
  } else {
    mesh::BoxMeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 3;
    s.lmesh = mesh::distribute_mesh(mesh::make_box_mesh(cfg), degree, 1).front();
  }
  s.space = field::Space::make(degree);
  s.coef = field::build_coef(s.lmesh, s.space, false);
  return s;
}

TEST(CompressorTest, ModalRoundTripIsExact) {
  const CompressorSetup s = make_setup(true, 5);
  const Compressor comp(s.lmesh, s.space);
  RealVec f(s.coef.x.size());
  for (usize i = 0; i < f.size(); ++i)
    f[i] = std::sin(3 * s.coef.x[i]) * s.coef.z[i] + s.coef.y[i];
  RealVec modal, back;
  comp.to_modal(f, modal);
  comp.to_nodal(modal, back);
  for (usize i = 0; i < f.size(); ++i) EXPECT_NEAR(back[i], f[i], 1e-11);
}

TEST(CompressorTest, SmoothFieldCompressesMassively) {
  // A smooth field has nearly all its energy in low modes: reduction should
  // exceed 95% at a 2.5% error bound (the paper reports 97% on real data).
  const CompressorSetup s = make_setup(false, 7);
  const Compressor comp(s.lmesh, s.space);
  RealVec f(s.coef.x.size());
  for (usize i = 0; i < f.size(); ++i)
    f[i] = std::sin(2 * M_PI * s.coef.x[i]) * std::cos(M_PI * s.coef.y[i]) +
           0.3 * s.coef.z[i];
  CompressOptions opt;
  opt.error_bound = 0.025;
  const CompressedField c = comp.compress(f, opt);
  EXPECT_GT(c.reduction(), 0.95);
  const RealVec back = comp.decompress(c);
  EXPECT_LE(comp.relative_error(f, back), opt.error_bound * 1.0001);
}

class ErrorBounds : public ::testing::TestWithParam<double> {};

TEST_P(ErrorBounds, ReconstructionRespectsBound) {
  const real_t bound = GetParam();
  const CompressorSetup s = make_setup(true, 6);
  const Compressor comp(s.lmesh, s.space);
  // Rough, multi-scale field (turbulence-like spectrum).
  std::mt19937 gen(5);
  std::normal_distribution<real_t> noise(0.0, 1.0);
  RealVec f(s.coef.x.size());
  for (usize i = 0; i < f.size(); ++i) {
    const real_t x = s.coef.x[i], y = s.coef.y[i], z = s.coef.z[i];
    f[i] = std::sin(4 * x + 2 * y) * std::cos(5 * z) +
           0.5 * std::sin(11 * x - 7 * z) + 0.1 * noise(gen);
  }
  CompressOptions opt;
  opt.error_bound = bound;
  const CompressedField c = comp.compress(f, opt);
  const RealVec back = comp.decompress(c);
  EXPECT_LE(comp.relative_error(f, back), bound * 1.0001)
      << "reduction " << c.reduction();
  // Tighter bounds keep more coefficients.
  EXPECT_GT(c.retained_coefficients, 0u);
  EXPECT_LE(c.retained_coefficients, c.total_coefficients);
}

INSTANTIATE_TEST_SUITE_P(Bounds, ErrorBounds,
                         ::testing::Values(0.001, 0.01, 0.025, 0.1));

TEST(CompressorTest, TighterBoundMeansLessReduction) {
  const CompressorSetup s = make_setup(false, 6);
  const Compressor comp(s.lmesh, s.space);
  std::mt19937 gen(9);
  std::normal_distribution<real_t> noise(0.0, 0.05);
  RealVec f(s.coef.x.size());
  for (usize i = 0; i < f.size(); ++i)
    f[i] = std::sin(5 * s.coef.x[i]) * std::sin(3 * s.coef.y[i]) + noise(gen);
  real_t prev_reduction = 1.0;
  for (const real_t bound : {0.1, 0.025, 0.005, 0.0005}) {
    CompressOptions opt;
    opt.error_bound = bound;
    const CompressedField c = comp.compress(f, opt);
    EXPECT_LT(c.reduction(), prev_reduction + 1e-12) << "bound " << bound;
    prev_reduction = c.reduction();
  }
}

TEST(CompressorTest, ZeroFieldCompressesToAlmostNothing) {
  const CompressorSetup s = make_setup(false, 5);
  const Compressor comp(s.lmesh, s.space);
  RealVec f(s.coef.x.size(), 0.0);
  CompressOptions opt;
  const CompressedField c = comp.compress(f, opt);
  const RealVec back = comp.decompress(c);
  for (const real_t v : back) EXPECT_EQ(v, 0.0);
  EXPECT_GT(c.reduction(), 0.99);
}

TEST(CompressorTest, StatsAreConsistent) {
  const CompressorSetup s = make_setup(true, 5);
  const Compressor comp(s.lmesh, s.space);
  RealVec f(s.coef.x.size());
  for (usize i = 0; i < f.size(); ++i) f[i] = s.coef.x[i] + 2 * s.coef.z[i];
  CompressOptions opt;
  opt.error_bound = 0.01;
  const CompressedField c = comp.compress(f, opt);
  EXPECT_EQ(c.original_bytes, f.size() * sizeof(real_t));
  EXPECT_EQ(c.compressed_bytes, c.blob.size());
  EXPECT_EQ(c.total_coefficients, f.size());
  EXPECT_LE(c.truncation_error, opt.error_bound);
}

}  // namespace
}  // namespace felis::compression
