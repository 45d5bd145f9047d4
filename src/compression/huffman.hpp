/// \file huffman.hpp
/// \brief Canonical Huffman coding over bytes — the lossless back end of the
/// in-situ compression pipeline.
///
/// "we transform the field, truncate it and encode it through a lossless
/// compression algorithm synchronously at run time" (§5.2). The truncated,
/// quantized modal coefficients are serialized to bytes and entropy-coded
/// here. Canonical codes keep the header small: only the 256 code lengths
/// are stored.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace felis::compression {

/// Encode a byte buffer; output includes a self-describing header (code
/// lengths + payload size). Empty input yields a minimal valid blob.
std::vector<std::byte> huffman_encode(std::span<const std::byte> input);

/// Exact inverse of huffman_encode.
std::vector<std::byte> huffman_decode(std::span<const std::byte> blob);

}  // namespace felis::compression
