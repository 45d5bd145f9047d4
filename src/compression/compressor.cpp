#include "compression/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "compression/bitstream.hpp"
#include "compression/huffman.hpp"
#include "quadrature/basis.hpp"

namespace felis::compression {

namespace {

field::Op1D to_op(const linalg::Matrix& m) {
  field::Op1D op;
  op.rows = m.rows();
  op.cols = m.cols();
  op.a.resize(static_cast<usize>(op.rows) * static_cast<usize>(op.cols));
  for (lidx_t i = 0; i < m.rows(); ++i)
    for (lidx_t j = 0; j < m.cols(); ++j)
      op.a[static_cast<usize>(i) * static_cast<usize>(op.cols) +
           static_cast<usize>(j)] = m(i, j);
  return op;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::uint64_t get_varint(const std::vector<std::byte>& in, usize& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    FELIS_CHECK_MSG(pos < in.size(), "varint: out of data");
    const auto b = static_cast<std::uint64_t>(in[pos++]);
    v |= (b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
  }
}

void put_double(std::vector<std::byte>& out, double v) {
  std::byte raw[sizeof(double)];
  std::memcpy(raw, &v, sizeof(double));
  out.insert(out.end(), raw, raw + sizeof(double));
}

double get_double(const std::vector<std::byte>& in, usize& pos) {
  FELIS_CHECK(pos + sizeof(double) <= in.size());
  double v;
  std::memcpy(&v, in.data() + pos, sizeof(double));
  pos += sizeof(double);
  return v;
}

}  // namespace

Compressor::Compressor(const mesh::LocalMesh& lmesh, const field::Space& space)
    : lmesh_(lmesh), space_(space) {
  const quadrature::ModalTransform t = quadrature::modal_transform(space.gll_pts);
  to_modal_ = to_op(t.to_modal);
  to_nodal_ = to_op(t.to_nodal);
  // Element volume weights from a mid-element Jacobian estimate via the map
  // (cheap; exactness is not required — the weights only shape the norm).
  element_weight_.resize(static_cast<usize>(lmesh.num_elements()));
  const real_t h = 1e-5;
  for (lidx_t e = 0; e < lmesh.num_elements(); ++e) {
    const mesh::ElementMap& map = lmesh.maps[static_cast<usize>(e)];
    const mesh::Point c0 = map.map(-h, 0, 0), c1 = map.map(h, 0, 0);
    const mesh::Point d0 = map.map(0, -h, 0), d1 = map.map(0, h, 0);
    const mesh::Point e0 = map.map(0, 0, -h), e1 = map.map(0, 0, h);
    real_t a[3], b[3], c[3];
    for (int k = 0; k < 3; ++k) {
      a[k] = (c1[static_cast<usize>(k)] - c0[static_cast<usize>(k)]) / (2 * h);
      b[k] = (d1[static_cast<usize>(k)] - d0[static_cast<usize>(k)]) / (2 * h);
      c[k] = (e1[static_cast<usize>(k)] - e0[static_cast<usize>(k)]) / (2 * h);
    }
    const real_t jac = a[0] * (b[1] * c[2] - b[2] * c[1]) -
                       a[1] * (b[0] * c[2] - b[2] * c[0]) +
                       a[2] * (b[0] * c[1] - b[1] * c[0]);
    element_weight_[static_cast<usize>(e)] = std::abs(jac);
  }
}

void Compressor::to_modal(const RealVec& nodal, RealVec& modal) const {
  const int n = space_.n;
  const lidx_t npe = space_.nodes_per_element();
  modal.resize(nodal.size());
  RealVec t1(static_cast<usize>(npe)), t2(static_cast<usize>(npe));
  for (lidx_t e = 0; e < lmesh_.num_elements(); ++e) {
    const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
    kernels_.axis0(to_modal_, nodal.data() + base, t1.data(), n, n);
    kernels_.axis1(to_modal_, t1.data(), t2.data(), n, n);
    kernels_.axis2(to_modal_, t2.data(), modal.data() + base, n, n);
  }
}

void Compressor::to_nodal(const RealVec& modal, RealVec& nodal) const {
  const int n = space_.n;
  const lidx_t npe = space_.nodes_per_element();
  nodal.resize(modal.size());
  RealVec t1(static_cast<usize>(npe)), t2(static_cast<usize>(npe));
  for (lidx_t e = 0; e < lmesh_.num_elements(); ++e) {
    const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
    kernels_.axis0(to_nodal_, modal.data() + base, t1.data(), n, n);
    kernels_.axis1(to_nodal_, t1.data(), t2.data(), n, n);
    kernels_.axis2(to_nodal_, t2.data(), nodal.data() + base, n, n);
  }
}

CompressedField Compressor::compress(const RealVec& field,
                                     const CompressOptions& options) const {
  const lidx_t npe = space_.nodes_per_element();
  const usize nd = static_cast<usize>(lmesh_.num_elements()) *
                   static_cast<usize>(npe);
  FELIS_CHECK(field.size() == nd);
  FELIS_CHECK(options.error_bound > 0 && options.error_bound < 1);
  FELIS_CHECK(options.truncation_share > 0 && options.truncation_share < 1);

  RealVec modal;
  to_modal(field, modal);

  // Weighted energy per coefficient (Parseval in the orthonormal basis).
  RealVec energy(nd);
  real_t total_energy = 0;
  for (lidx_t e = 0; e < lmesh_.num_elements(); ++e) {
    const real_t w = element_weight_[static_cast<usize>(e)];
    const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
    for (lidx_t q = 0; q < npe; ++q) {
      const usize o = base + static_cast<usize>(q);
      energy[o] = w * modal[o] * modal[o];
      total_energy += energy[o];
    }
  }

  CompressedField out;
  out.original_bytes = nd * sizeof(real_t);
  out.total_coefficients = nd;

  // Truncation: drop smallest-energy coefficients until the truncation slice
  // of the squared budget is spent.
  const real_t budget2 = options.error_bound * options.error_bound * total_energy;
  const real_t trunc_budget = options.truncation_share * budget2;
  std::vector<lidx_t> order(nd);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](lidx_t a, lidx_t b) { return energy[static_cast<usize>(a)] < energy[static_cast<usize>(b)]; });
  std::vector<bool> keep(nd, true);
  real_t dropped = 0;
  for (const lidx_t idx : order) {
    if (dropped + energy[static_cast<usize>(idx)] > trunc_budget) break;
    dropped += energy[static_cast<usize>(idx)];
    keep[static_cast<usize>(idx)] = false;
  }
  out.truncation_error =
      total_energy > 0 ? std::sqrt(dropped / total_energy) : 0.0;

  // Quantization of survivors: uniform step sized so the quantization noise
  // (δ²/12 per coefficient, volume-weighted) fits the remaining budget.
  usize kept = 0;
  real_t kept_weight = 0;
  for (lidx_t e = 0; e < lmesh_.num_elements(); ++e) {
    const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
    for (lidx_t q = 0; q < npe; ++q)
      if (keep[base + static_cast<usize>(q)]) {
        ++kept;
        kept_weight += element_weight_[static_cast<usize>(e)];
      }
  }
  out.retained_coefficients = kept;
  const real_t quant_budget = (1.0 - options.truncation_share) * budget2;
  real_t delta = kept_weight > 0 ? std::sqrt(12.0 * quant_budget / kept_weight)
                                 : 1.0;
  if (delta <= 0 || !std::isfinite(delta)) delta = 1.0;
  // The δ²/12 noise estimate is only an expectation; shrink δ until the
  // *measured* total error (truncation + exact quantization error in the
  // orthonormal modal norm) fits the bound, so the user's bound is a
  // guarantee, not an estimate.
  for (int attempt = 0; attempt < 60; ++attempt) {
    real_t quant2 = 0;
    for (lidx_t e = 0; e < lmesh_.num_elements(); ++e) {
      const real_t w = element_weight_[static_cast<usize>(e)];
      const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
      for (lidx_t q = 0; q < npe; ++q) {
        const usize o = base + static_cast<usize>(q);
        if (!keep[o - 0]) continue;
        const real_t rec =
            static_cast<real_t>(std::llround(modal[o] / delta)) * delta;
        const real_t d = modal[o] - rec;
        quant2 += w * d * d;
      }
    }
    if (dropped + quant2 <= budget2 || delta < 1e-300) break;
    delta *= 0.7;
  }

  // Serialize: header, keep-mask run lengths, zigzag varint values.
  std::vector<std::byte> raw;
  put_varint(raw, nd);
  put_double(raw, delta);
  // Keep-mask as alternating run lengths, starting with a "drop" run.
  {
    std::vector<std::byte> runs;
    usize i = 0;
    bool current = false;  // first run counts dropped coefficients
    while (i < nd) {
      usize len = 0;
      while (i < nd && keep[i] == current) {
        ++len;
        ++i;
      }
      put_varint(runs, len);
      current = !current;
    }
    put_varint(raw, runs.size());
    raw.insert(raw.end(), runs.begin(), runs.end());
  }
  for (usize i = 0; i < nd; ++i) {
    if (!keep[i]) continue;
    const auto q = static_cast<std::int64_t>(std::llround(modal[i] / delta));
    put_varint(raw, zigzag(q));
  }

  out.blob = huffman_encode(raw);
  out.compressed_bytes = out.blob.size();
  return out;
}

RealVec Compressor::decompress(const CompressedField& compressed) const {
  const std::vector<std::byte> raw = huffman_decode(compressed.blob);
  usize pos = 0;
  const usize nd = get_varint(raw, pos);
  FELIS_CHECK(nd == static_cast<usize>(lmesh_.num_elements()) *
                        static_cast<usize>(space_.nodes_per_element()));
  const real_t delta = get_double(raw, pos);
  const usize runs_bytes = get_varint(raw, pos);
  // Decode the keep-mask runs.
  std::vector<bool> keep(nd, false);
  {
    const usize runs_end = pos + runs_bytes;
    usize i = 0;
    bool current = false;
    while (pos < runs_end) {
      const usize len = get_varint(raw, pos);
      if (current)
        for (usize k = 0; k < len; ++k) keep[i + k] = true;
      i += len;
      current = !current;
    }
    FELIS_CHECK_MSG(i == nd, "corrupt keep-mask in compressed field");
  }
  RealVec modal(nd, 0.0);
  for (usize i = 0; i < nd; ++i) {
    if (!keep[i]) continue;
    const std::int64_t q = unzigzag(get_varint(raw, pos));
    modal[i] = static_cast<real_t>(q) * delta;
  }
  RealVec nodal;
  to_nodal(modal, nodal);
  return nodal;
}

real_t Compressor::relative_error(const RealVec& original,
                                  const RealVec& reconstructed) const {
  FELIS_CHECK(original.size() == reconstructed.size());
  // Measure in the same norm the budget is spent in: the weighted L² norm of
  // the polynomial fields, which by Parseval (orthonormal modal basis) is
  // the volume-weighted sum of squared modal coefficients.
  RealVec diff(original.size());
  for (usize i = 0; i < diff.size(); ++i) diff[i] = original[i] - reconstructed[i];
  RealVec diff_modal, orig_modal;
  to_modal(diff, diff_modal);
  to_modal(original, orig_modal);
  const lidx_t npe = space_.nodes_per_element();
  real_t err2 = 0, norm2 = 0;
  for (lidx_t e = 0; e < lmesh_.num_elements(); ++e) {
    const real_t w = element_weight_[static_cast<usize>(e)];
    const usize base = static_cast<usize>(e) * static_cast<usize>(npe);
    for (lidx_t q = 0; q < npe; ++q) {
      const usize o = base + static_cast<usize>(q);
      err2 += w * diff_modal[o] * diff_modal[o];
      norm2 += w * orig_modal[o] * orig_modal[o];
    }
  }
  return norm2 > 0 ? std::sqrt(err2 / norm2) : 0.0;
}

}  // namespace felis::compression
