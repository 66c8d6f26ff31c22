#include "fl/protocol.h"

#include <bit>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/rng.h"

namespace fedcl::fl {

namespace {

// Reject implausible wire values before allocating anything: a flipped
// bit in a count or dim field must fail cleanly, not request gigabytes.
constexpr std::uint32_t kMaxTensors = 4096;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::int64_t kMaxElements = std::int64_t{1} << 28;  // 1 GiB of f32

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

// Bounds-checked read cursor over an untrusted buffer. Operating on a
// ByteSpan keeps the cursor zero-copy: the network layer points it at
// a frame inside its receive buffer and the only copy of the payload
// is the memcpy into the destination tensor.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan bytes) : bytes_(bytes) {}

  template <typename T>
  bool read(T& out) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(&out, bytes_.data + offset_, sizeof(T));
    offset_ += sizeof(T);
    return true;
  }

  bool read_floats(float* dst, std::size_t count) {
    const std::size_t nbytes = sizeof(float) * count;
    if (count > std::numeric_limits<std::size_t>::max() / sizeof(float) ||
        nbytes > remaining()) {
      return false;
    }
    std::memcpy(dst, bytes_.data + offset_, nbytes);
    offset_ += nbytes;
    return true;
  }

  std::size_t remaining() const { return bytes_.size - offset_; }

 private:
  ByteSpan bytes_;
  std::size_t offset_ = 0;
};

// Reads one tensor-list blob; on failure returns the reason, leaving
// `out` partially filled (callers discard it).
const char* read_tensor_list(ByteReader& reader, TensorList& out) {
  std::uint32_t count = 0;
  if (!reader.read(count)) return "truncated tensor count";
  if (count > kMaxTensors) return "implausible tensor count";
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t ndim = 0;
    if (!reader.read(ndim)) return "truncated tensor rank";
    if (ndim > kMaxRank) return "implausible tensor rank";
    tensor::Shape shape;
    std::int64_t numel = 1;
    for (std::uint32_t d = 0; d < ndim; ++d) {
      std::int64_t dim = 0;
      if (!reader.read(dim)) return "truncated tensor shape";
      if (dim <= 0 || dim > kMaxElements || numel > kMaxElements / dim) {
        return "implausible tensor dimension";
      }
      numel *= dim;
      shape.push_back(dim);
    }
    // Cheap size check before the allocation the shape implies.
    if (sizeof(float) * static_cast<std::size_t>(numel) >
        reader.remaining()) {
      return "truncated tensor data";
    }
    tensor::Tensor t(shape);
    if (!reader.read_floats(t.data(), static_cast<std::size_t>(t.numel()))) {
      return "truncated tensor data";
    }
    out.push_back(std::move(t));
  }
  return nullptr;
}

std::uint64_t splitmix64_step(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

// The FCL1 keystream: byte 8k+j is XORed with byte j (least significant
// first) of word k, where word k is the SplitMix64 output one step past
// the state reached by k+1 advances from the key. One word covers 8
// bytes, so the body is XORed a word at a time; on a little-endian host
// a memcpy'd word lines its bytes up with that order.
static_assert(std::endian::native == std::endian::little,
              "the FCL1 wire (keystream and f32 payload) is little-endian");

std::uint64_t keystream_word(std::uint64_t& state) {
  splitmix64_step(state);
  std::uint64_t probe = state;
  return splitmix64_step(probe);
}

void apply_keystream(std::vector<std::uint8_t>& bytes, std::uint64_t key) {
  std::uint64_t state = key;
  std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, sizeof(word));
    word ^= keystream_word(state);
    std::memcpy(p + i, &word, sizeof(word));
  }
  if (i < n) {
    const std::uint64_t word = keystream_word(state);
    for (std::size_t j = 0; i + j < n; ++j) {
      p[i + j] ^= static_cast<std::uint8_t>(word >> (j * 8));
    }
  }
}

// Encoded size of a tensor-list blob (docs/PROTOCOL.md): u32 count, then
// per tensor u32 rank, i64 dims and the f32 data.
std::size_t tensor_list_bytes(const TensorList& list) {
  std::size_t n = sizeof(std::uint32_t);
  for (const auto& t : list) {
    n += sizeof(std::uint32_t) + sizeof(std::int64_t) * t.ndim() +
         sizeof(float) * static_cast<std::size_t>(t.numel());
  }
  return n;
}

constexpr std::size_t kTagBytes = sizeof(std::uint64_t);

}  // namespace

void append_tensor_list(std::vector<std::uint8_t>& out,
                        const TensorList& list) {
  append_pod(out, static_cast<std::uint32_t>(list.size()));
  for (const auto& t : list) {
    FEDCL_CHECK(t.defined()) << "undefined tensor in list";
    append_pod(out, static_cast<std::uint32_t>(t.ndim()));
    for (std::size_t d = 0; d < t.ndim(); ++d) {
      append_pod(out, static_cast<std::int64_t>(t.dim(d)));
    }
    const auto* p = reinterpret_cast<const std::uint8_t*>(t.data());
    out.insert(out.end(), p, p + sizeof(float) * t.numel());
  }
}

std::vector<std::uint8_t> serialize_tensor_list(const TensorList& list) {
  std::vector<std::uint8_t> out;
  out.reserve(tensor_list_bytes(list));
  append_tensor_list(out, list);
  return out;
}

Result<TensorList> deserialize_tensor_list(ByteSpan bytes) {
  using R = Result<TensorList>;
  ByteReader reader(bytes);
  TensorList list;
  if (const char* err = read_tensor_list(reader, list)) return R::failure(err);
  if (reader.remaining() != 0) return R::failure("trailing bytes in message");
  return list;
}

std::vector<std::uint8_t> serialize_update(const ClientUpdate& update) {
  std::vector<std::uint8_t> out;
  // Room for the header, the payload and the tag seal() appends, so
  // sealing never reallocates and copies the payload.
  out.reserve(sizeof(update.client_id) + sizeof(update.round) +
              tensor_list_bytes(update.delta) + kTagBytes);
  append_pod(out, update.client_id);
  append_pod(out, update.round);
  append_tensor_list(out, update.delta);
  return out;
}

Result<ClientUpdate> deserialize_update(ByteSpan bytes) {
  using R = Result<ClientUpdate>;
  ByteReader reader(bytes);
  ClientUpdate update;
  if (!reader.read(update.client_id) || !reader.read(update.round)) {
    return R::failure("truncated header");
  }
  if (const char* err = read_tensor_list(reader, update.delta)) {
    return R::failure(err);
  }
  if (reader.remaining() != 0) return R::failure("trailing bytes in message");
  return update;
}

Result<ClientUpdate> deserialize_update(
    const std::vector<std::uint8_t>& bytes) {
  return deserialize_update(ByteSpan(bytes));
}

std::uint64_t client_channel_key(std::uint64_t experiment_seed,
                                 std::int64_t client_id) {
  return experiment_seed ^
         (0x5EC2E7ULL +
          static_cast<std::uint64_t>(client_id) * 0x9E3779B97F4A7C15ULL);
}

std::vector<std::uint8_t> SecureChannel::seal(
    std::vector<std::uint8_t> plaintext) const {
  const std::uint64_t tag = fnv1a(plaintext.data(), plaintext.size());
  append_pod(plaintext, tag);
  apply_keystream(plaintext, key_);
  return plaintext;
}

Result<std::vector<std::uint8_t>> SecureChannel::open(
    std::vector<std::uint8_t> sealed) const {
  using R = Result<std::vector<std::uint8_t>>;
  if (sealed.size() < kTagBytes) return R::failure("short ciphertext");
  apply_keystream(sealed, key_);
  const std::size_t body = sealed.size() - kTagBytes;
  std::uint64_t tag = 0;
  std::memcpy(&tag, sealed.data() + body, sizeof(tag));
  if (tag != fnv1a(sealed.data(), body)) {
    return R::failure("integrity tag mismatch");
  }
  sealed.resize(body);
  return sealed;
}

Result<ClientUpdate> deliver_in_process(ClientUpdate update, FaultType fault,
                                        std::uint64_t channel_key,
                                        Rng& fault_rng) {
  if (fault != FaultType::kBitFlip) return update;
  const SecureChannel channel(channel_key);
  std::vector<std::uint8_t> wire = channel.seal(serialize_update(update));
  flip_random_bits(wire, fault_rng);
  Result<std::vector<std::uint8_t>> opened = channel.open(std::move(wire));
  if (!opened.ok()) return Result<ClientUpdate>::failure(opened.error());
  return deserialize_update(opened.value());
}

}  // namespace fedcl::fl
