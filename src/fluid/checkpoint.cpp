#include "fluid/checkpoint.hpp"

#include <cstring>
#include <span>

#include "common/crc32.hpp"
#include "compression/huffman.hpp"
#include "io/atomic_file.hpp"

namespace felis::fluid {

namespace {

constexpr std::uint64_t kMagic = 0x46454c4953434b32ull;  // "FELISCK2"
constexpr std::uint64_t kVersion = 2;
constexpr std::uint64_t kFlagCoded = 1ull;
constexpr std::uint64_t kSectionCount = 4;
// Header: magic, version, flags, section count, payload CRC (decoded
// sections), stored CRC (payload bytes as written), header CRC (first 48
// bytes). All u64.
constexpr usize kHeaderBytes = 56;
constexpr usize kHeaderCrcOffset = 48;

enum SectionId : std::uint64_t {
  kSectionState = 1,
  kSectionProjection = 2,
  kSectionStats = 3,
  kSectionInsitu = 4,
};

void store_u64(std::byte* at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

/// Sizes the section stream: encode_sections() run through it gives the
/// exact byte count the SectionWriter's buffer is reserved to.
struct SectionSizer {
  usize bytes = 0;
  void u64(std::uint64_t) { bytes += 8; }
  void vec(const RealVec& v) { bytes += 8 + v.size() * sizeof(real_t); }
  template <class Content>
  void section(std::uint64_t, Content&& content) {
    bytes += 24;
    content();
  }
};

/// Appends the section stream to one buffer. A section's header (id,
/// length, CRC-32 of the content) is written first with the length and CRC
/// zeroed, then patched once the content behind it is complete.
struct SectionWriter {
  std::vector<std::byte>& out;

  void u64(std::uint64_t v) {
    out.resize(out.size() + 8);
    store_u64(out.data() + out.size() - 8, v);
  }
  void vec(const RealVec& v) {
    u64(v.size());
    const auto* raw = reinterpret_cast<const std::byte*>(v.data());
    out.insert(out.end(), raw, raw + v.size() * sizeof(real_t));
  }
  template <class Content>
  void section(std::uint64_t id, Content&& content) {
    u64(id);
    u64(0);
    u64(0);
    const usize begin = out.size();
    content();
    const usize len = out.size() - begin;
    store_u64(out.data() + begin - 16, len);
    store_u64(out.data() + begin - 8, crc32(out.data() + begin, len));
  }
};

/// Bounds-checked cursor over an untrusted byte range. Every length read
/// from the blob is validated against the bytes actually remaining — never
/// by arithmetic on the attacker-controlled value alone — so a hostile
/// length field cannot wrap a multiplication past the end of the buffer.
struct Reader {
  std::span<const std::byte> in;
  const std::string& src;
  usize pos = 0;

  std::uint64_t u64(const char* what) {
    FELIS_CHECK_MSG(in.size() - pos >= 8,
                    "checkpoint " << src << ": truncated " << what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(in[pos + static_cast<usize>(i)])
           << (8 * i);
    pos += 8;
    return v;
  }

  RealVec vec(const char* what) {
    const std::uint64_t n = u64(what);
    // `n <= remaining / sizeof` instead of `pos + n * sizeof <= size`: the
    // latter wraps for large n and the check passes right before an
    // out-of-bounds memcpy.
    FELIS_CHECK_MSG(n <= (in.size() - pos) / sizeof(real_t),
                    "checkpoint " << src << ": field length " << n
                                  << " overruns the blob in " << what);
    RealVec v(static_cast<usize>(n));
    if (n != 0) {
      std::memcpy(v.data(), in.data() + pos,
                  static_cast<usize>(n) * sizeof(real_t));
      pos += static_cast<usize>(n) * sizeof(real_t);
    }
    return v;
  }

  void expect_end(const char* what) {
    FELIS_CHECK_MSG(pos == in.size(), "checkpoint " << src << ": "
                                                    << in.size() - pos
                                                    << " trailing byte(s) after "
                                                    << what);
  }
};

/// The next section's content, checked against its id and CRC, as a reader
/// over the same bytes (no copy).
Reader take_section(Reader& r, std::uint64_t want_id, const char* name) {
  const std::uint64_t id = r.u64("section header");
  FELIS_CHECK_MSG(id == want_id, "checkpoint " << r.src << ": expected section "
                                               << name << " (id " << want_id
                                               << "), found id " << id);
  const std::uint64_t len = r.u64("section header");
  const std::uint64_t want_crc = r.u64("section header");
  FELIS_CHECK_MSG(len <= r.in.size() - r.pos,
                  "checkpoint " << r.src << ": section " << name
                                << " length overruns the blob");
  const std::span<const std::byte> content =
      r.in.subspan(r.pos, static_cast<usize>(len));
  r.pos += content.size();
  FELIS_CHECK_MSG(crc32(content.data(), content.size()) == want_crc,
                  "checkpoint " << r.src << ": section " << name
                                << " checksum mismatch (corrupted file)");
  return Reader{content, r.src};
}

template <class Out>
void encode_state(Out& out, const Checkpoint& ck) {
  out.u64(static_cast<std::uint64_t>(ck.step));
  out.vec(RealVec{ck.time});
  for (const RealVec* f :
       {&ck.u, &ck.v, &ck.w, &ck.temperature, &ck.pressure})
    out.vec(*f);
  for (const auto* arr : {&ck.u_lag1, &ck.u_lag2, &ck.f_lag0, &ck.f_lag1})
    for (const RealVec& f : *arr) out.vec(f);
  for (const RealVec* f : {&ck.t_lag1, &ck.t_lag2, &ck.g_lag0, &ck.g_lag1})
    out.vec(*f);
}

void decode_state(Reader r, Checkpoint& ck) {
  ck.step = static_cast<std::int64_t>(r.u64("state step"));
  const RealVec clock = r.vec("state clock");
  FELIS_CHECK_MSG(clock.size() == 1,
                  "checkpoint " << r.src << ": malformed clock field");
  ck.time = clock[0];
  for (RealVec* f : {&ck.u, &ck.v, &ck.w, &ck.temperature, &ck.pressure})
    *f = r.vec("state field");
  for (auto* arr : {&ck.u_lag1, &ck.u_lag2, &ck.f_lag0, &ck.f_lag1})
    for (RealVec& f : *arr) f = r.vec("state history");
  for (RealVec* f : {&ck.t_lag1, &ck.t_lag2, &ck.g_lag0, &ck.g_lag1})
    *f = r.vec("state history");
  r.expect_end("state section");
}

template <class Out>
void encode_projection(Out& out, const Checkpoint& ck) {
  const auto& p = ck.projection;
  FELIS_CHECK_MSG(p.basis.size() == p.a_basis.size(),
                  "checkpoint: projection basis/a_basis size mismatch");
  out.u64(p.present ? 1 : 0);
  out.u64(p.basis.size());
  for (usize k = 0; k < p.basis.size(); ++k) {
    out.vec(p.basis[k]);
    out.vec(p.a_basis[k]);
  }
}

void decode_projection(Reader r, Checkpoint& ck) {
  auto& p = ck.projection;
  p.present = r.u64("projection flag") != 0;
  const std::uint64_t count = r.u64("projection count");
  p.basis.clear();
  p.a_basis.clear();
  for (std::uint64_t k = 0; k < count; ++k) {
    p.basis.push_back(r.vec("projection basis"));
    p.a_basis.push_back(r.vec("projection A-basis"));
  }
  r.expect_end("projection section");
}

template <class Out>
void encode_stats(Out& out, const Checkpoint& ck) {
  const StepInfo& info = ck.solver_stats.info;
  out.u64(ck.solver_stats.present ? 1 : 0);
  out.u64(static_cast<std::uint64_t>(info.step));
  out.u64(static_cast<std::uint64_t>(info.pressure_iterations));
  out.u64(static_cast<std::uint64_t>(info.velocity_iterations));
  out.u64(static_cast<std::uint64_t>(info.scalar_iterations));
  out.vec(RealVec{info.time, info.cfl, info.pressure_residual, info.divergence});
}

void decode_stats(Reader r, Checkpoint& ck) {
  auto& s = ck.solver_stats;
  s.present = r.u64("stats flag") != 0;
  s.info.step = static_cast<std::int64_t>(r.u64("stats step"));
  s.info.pressure_iterations = static_cast<int>(r.u64("stats iterations"));
  s.info.velocity_iterations = static_cast<int>(r.u64("stats iterations"));
  s.info.scalar_iterations = static_cast<int>(r.u64("stats iterations"));
  const RealVec reals = r.vec("stats reals");
  FELIS_CHECK_MSG(reals.size() == 4,
                  "checkpoint " << r.src << ": malformed stats section");
  s.info.time = reals[0];
  s.info.cfl = reals[1];
  s.info.pressure_residual = reals[2];
  s.info.divergence = reals[3];
  r.expect_end("stats section");
}

template <class Out>
void encode_insitu(Out& out, const Checkpoint& ck) {
  const auto& is = ck.insitu;
  out.u64(is.present ? 1 : 0);
  out.u64(is.pushed);
  out.u64(is.popped);
  out.u64(is.has_pod ? 1 : 0);
  out.u64(is.pod.count);
  out.u64(is.pod.rows);
  out.vec(is.pod.sigma);
  out.vec(is.pod.modes);
  out.vec(RealVec{is.pod.discarded_energy});
}

void decode_insitu(Reader r, Checkpoint& ck) {
  auto& is = ck.insitu;
  is.present = r.u64("insitu flag") != 0;
  is.pushed = r.u64("insitu pushed cursor");
  is.popped = r.u64("insitu popped cursor");
  is.has_pod = r.u64("insitu pod flag") != 0;
  is.pod.count = static_cast<usize>(r.u64("insitu pod count"));
  is.pod.rows = static_cast<usize>(r.u64("insitu pod rows"));
  is.pod.sigma = r.vec("insitu pod sigma");
  is.pod.modes = r.vec("insitu pod modes");
  const usize rank = is.pod.sigma.size();
  // Division-based consistency check: rows × rank can wrap for hostile
  // headers, modes.size()/rank cannot.
  FELIS_CHECK_MSG(rank == 0 ? is.pod.modes.empty()
                            : (is.pod.modes.size() % rank == 0 &&
                               is.pod.modes.size() / rank == is.pod.rows),
                  "checkpoint " << r.src
                                << ": POD mode matrix shape mismatch");
  const RealVec tail = r.vec("insitu pod energy");
  FELIS_CHECK_MSG(tail.size() == 1,
                  "checkpoint " << r.src << ": malformed insitu section");
  is.pod.discarded_energy = tail[0];
  r.expect_end("insitu section");
}

/// The section stream in its fixed id order, through a sizer or a writer.
template <class Out>
void encode_sections(Out& out, const Checkpoint& ck) {
  out.section(kSectionState, [&] { encode_state(out, ck); });
  out.section(kSectionProjection, [&] { encode_projection(out, ck); });
  out.section(kSectionStats, [&] { encode_stats(out, ck); });
  out.section(kSectionInsitu, [&] { encode_insitu(out, ck); });
}

}  // namespace

std::vector<std::byte> Checkpoint::serialize(bool lossless_compress) const {
  // The section stream goes straight into the blob behind a header-sized
  // gap, in one allocation; the header is filled in last.
  SectionSizer size;
  encode_sections(size, *this);
  std::vector<std::byte> blob;
  blob.reserve(kHeaderBytes + size.bytes);
  blob.resize(kHeaderBytes);
  SectionWriter sections{blob};
  encode_sections(sections, *this);
  const std::span<const std::byte> stream =
      std::span<const std::byte>(blob).subspan(kHeaderBytes);
  const std::uint32_t sections_crc = crc32(stream.data(), stream.size());
  if (lossless_compress) {
    const std::vector<std::byte> coded = compression::huffman_encode(stream);
    blob.resize(kHeaderBytes);
    blob.insert(blob.end(), coded.begin(), coded.end());
  }

  std::byte* header = blob.data();
  store_u64(header, kMagic);
  store_u64(header + 8, kVersion);
  store_u64(header + 16, lossless_compress ? kFlagCoded : 0);
  store_u64(header + 24, kSectionCount);
  store_u64(header + 32, sections_crc);
  store_u64(header + 40, crc32(blob.data() + kHeaderBytes,
                               blob.size() - kHeaderBytes));
  store_u64(header + kHeaderCrcOffset, crc32(header, kHeaderCrcOffset));
  return blob;
}

Checkpoint Checkpoint::deserialize(const std::vector<std::byte>& blob,
                                   const std::string& source) {
  Reader hdr{blob, source};
  const std::uint64_t magic = hdr.u64("header");
  FELIS_CHECK_MSG(magic == kMagic,
                  "checkpoint " << source
                                << ": bad magic (not a felis FELISCK2 "
                                   "checkpoint, or a pre-v2 file)");
  const std::uint64_t version = hdr.u64("header");
  FELIS_CHECK_MSG(version == kVersion, "checkpoint "
                                           << source
                                           << ": unsupported container version "
                                           << version);
  const std::uint64_t flags = hdr.u64("header");
  const std::uint64_t nsections = hdr.u64("header");
  const std::uint64_t payload_crc = hdr.u64("header");
  const std::uint64_t stored_crc = hdr.u64("header");
  const std::uint64_t header_crc = hdr.u64("header");
  FELIS_CHECK_MSG(header_crc == crc32(blob.data(), kHeaderCrcOffset),
                  "checkpoint " << source
                                << ": header checksum mismatch (truncated or "
                                   "corrupted file)");
  FELIS_CHECK_MSG(flags == 0 || flags == kFlagCoded,
                  "checkpoint " << source << ": unknown compression flag word "
                                << flags << " (supported: 0 = raw, 1 = "
                                << "Huffman-coded)");
  FELIS_CHECK_MSG(nsections == kSectionCount,
                  "checkpoint " << source << ": expected " << kSectionCount
                                << " sections, header claims " << nsections);

  // The payload is read where it lies in the blob; only a coded payload is
  // decoded into a buffer of its own.
  const std::span<const std::byte> payload =
      std::span<const std::byte>(blob).subspan(kHeaderBytes);
  FELIS_CHECK_MSG(crc32(payload.data(), payload.size()) == stored_crc,
                  "checkpoint " << source
                                << ": payload checksum mismatch (truncated or "
                                   "corrupted file)");
  std::vector<std::byte> decoded;
  std::span<const std::byte> sections = payload;
  if (flags & kFlagCoded) {
    decoded = compression::huffman_decode(payload);
    sections = decoded;
  }
  FELIS_CHECK_MSG(crc32(sections.data(), sections.size()) == payload_crc,
                  "checkpoint " << source
                                << ": decoded payload checksum mismatch");

  Checkpoint ck;
  Reader r{sections, source};
  decode_state(take_section(r, kSectionState, "state"), ck);
  decode_projection(take_section(r, kSectionProjection, "projection"), ck);
  decode_stats(take_section(r, kSectionStats, "stats"), ck);
  decode_insitu(take_section(r, kSectionInsitu, "insitu"), ck);
  r.expect_end("last section");
  return ck;
}

void Checkpoint::save(const std::string& path, bool lossless_compress) const {
  io::atomic_write_file(path, serialize(lossless_compress));
}

Checkpoint Checkpoint::load(const std::string& path) {
  return deserialize(io::read_file(path), path);
}

Checkpoint capture_checkpoint(const FlowSolver& solver) {
  Checkpoint ck;
  ck.step = solver.step_count();
  ck.time = solver.time();
  ck.u = solver.u();
  ck.v = solver.v();
  ck.w = solver.w();
  ck.temperature = solver.temperature();
  ck.pressure = solver.pressure();
  for (int c = 0; c < 3; ++c) {
    ck.u_lag1[static_cast<usize>(c)] = solver.velocity_history(1, c);
    ck.u_lag2[static_cast<usize>(c)] = solver.velocity_history(2, c);
    ck.f_lag0[static_cast<usize>(c)] = solver.forcing_history(0, c);
    ck.f_lag1[static_cast<usize>(c)] = solver.forcing_history(1, c);
  }
  ck.t_lag1 = solver.scalar_history(1);
  ck.t_lag2 = solver.scalar_history(2);
  ck.g_lag0 = solver.scalar_forcing_history(0);
  ck.g_lag1 = solver.scalar_forcing_history(1);
  if (const krylov::ResidualProjection* proj = solver.pressure_projection()) {
    ck.projection.present = true;
    ck.projection.basis = proj->basis();
    ck.projection.a_basis = proj->a_basis();
  }
  ck.solver_stats.present = true;
  ck.solver_stats.info = solver.last_step_info();
  return ck;
}

void restore_checkpoint(FlowSolver& solver, const Checkpoint& ck) {
  FELIS_CHECK_MSG(ck.u.size() == solver.u().size(),
                  "checkpoint dof count does not match the solver");
  solver.u() = ck.u;
  solver.v() = ck.v;
  solver.w() = ck.w;
  solver.temperature() = ck.temperature;
  solver.pressure() = ck.pressure;
  solver.set_velocity_history(1, ck.u_lag1[0], ck.u_lag1[1], ck.u_lag1[2]);
  solver.set_velocity_history(2, ck.u_lag2[0], ck.u_lag2[1], ck.u_lag2[2]);
  solver.set_forcing_history(0, ck.f_lag0[0], ck.f_lag0[1], ck.f_lag0[2]);
  solver.set_forcing_history(1, ck.f_lag1[0], ck.f_lag1[1], ck.f_lag1[2]);
  solver.set_scalar_history(1, ck.t_lag1);
  solver.set_scalar_history(2, ck.t_lag2);
  solver.set_scalar_forcing_history(0, ck.g_lag0);
  solver.set_scalar_forcing_history(1, ck.g_lag1);
  solver.set_step_index(ck.step);
  solver.set_time(ck.time);
  if (krylov::ResidualProjection* proj = solver.pressure_projection()) {
    if (ck.projection.present)
      proj->set_state(ck.projection.basis, ck.projection.a_basis);
    else
      proj->clear();
  }
  if (ck.solver_stats.present) solver.set_last_step_info(ck.solver_stats.info);
}

void attach_insitu_state(Checkpoint& ck, const insitu::SnapshotStream& stream,
                         const insitu::StreamingPod* pod) {
  ck.insitu.present = true;
  ck.insitu.pushed = stream.pushed_total();
  ck.insitu.popped = stream.popped_total();
  ck.insitu.has_pod = pod != nullptr;
  if (pod != nullptr) ck.insitu.pod = pod->capture();
}

void restore_insitu_state(const Checkpoint& ck, insitu::SnapshotStream& stream,
                          insitu::StreamingPod* pod) {
  if (!ck.insitu.present) return;
  stream.restore_cursors(ck.insitu.pushed, ck.insitu.popped);
  if (pod != nullptr && ck.insitu.has_pod) pod->restore(ck.insitu.pod);
}

}  // namespace felis::fluid
