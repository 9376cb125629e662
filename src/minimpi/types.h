// Shared vocabulary types of the MiniMPI runtime.
//
// MiniMPI is the MPI substrate of this reproduction: a deterministic
// discrete-event simulation of an MPI library, exposing exactly the surface
// the paper's tool interposes on — nonblocking point-to-point with wildcard
// receives, the Wait/Test matching-function (MF) families, and per-message
// piggyback data. Non-determinism enters through a seeded message-latency
// noise model, mirroring the network/system noise the paper cites as the
// source of message-receive reordering.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <vector>

namespace cdc::minimpi {

using Rank = std::int32_t;

inline constexpr Rank kAnySource = -1;  ///< MPI_ANY_SOURCE
inline constexpr int kAnyTag = -1;      ///< MPI_ANY_TAG

/// Identifies one matching-function call location in the program. The real
/// tool derives this from call-stack analysis (§4.4 "MF identification");
/// simulated applications pass a small stable integer per call site.
using CallsiteId = std::uint32_t;

/// The MPI matching-function families of §3.1.
enum class MFKind : std::uint8_t {
  kWait,
  kWaitall,
  kWaitany,
  kWaitsome,
  kTest,
  kTestall,
  kTestany,
  kTestsome,
};

[[nodiscard]] constexpr bool is_blocking(MFKind kind) noexcept {
  return kind == MFKind::kWait || kind == MFKind::kWaitall ||
         kind == MFKind::kWaitany || kind == MFKind::kWaitsome;
}

/// True for MF kinds that may deliver more than one message per call —
/// exactly the kinds for which the paper records the `with_next` column.
[[nodiscard]] constexpr bool is_multi_delivery(MFKind kind) noexcept {
  return kind == MFKind::kWaitall || kind == MFKind::kWaitsome ||
         kind == MFKind::kTestall || kind == MFKind::kTestsome;
}

[[nodiscard]] constexpr const char* mf_kind_name(MFKind kind) noexcept {
  switch (kind) {
    case MFKind::kWait: return "Wait";
    case MFKind::kWaitall: return "Waitall";
    case MFKind::kWaitany: return "Waitany";
    case MFKind::kWaitsome: return "Waitsome";
    case MFKind::kTest: return "Test";
    case MFKind::kTestall: return "Testall";
    case MFKind::kTestany: return "Testany";
    case MFKind::kTestsome: return "Testsome";
  }
  return "?";
}

/// Request handle returned by isend/irecv. Valid only within the issuing
/// rank. A completed handle stays inactive: an MF call ignores it, as MPI
/// ignores MPI_REQUEST_NULL.
struct Request {
  std::uint64_t id = ~std::uint64_t{0};
  [[nodiscard]] bool valid() const noexcept { return id != ~std::uint64_t{0}; }
};

/// A deliverable message offered to the tool's selection hook.
/// `bound` candidates are matched at the MPI level to a request of the MF
/// call (span_index = that request's position in the call's request array,
/// what MPI_Testsome reports via indices[]). Unbound candidates are
/// arrived-but-unmatched messages whose envelope is compatible with an
/// undelivered request of the call: a replay tool may deliver one on an
/// interchangeable request slot (the PMPI-layer remapping every
/// order-replay tool performs); untooled MPI semantics ignore them.
struct Candidate {
  std::size_t span_index = 0;
  Rank source = -1;
  int tag = -1;
  std::uint64_t piggyback = 0;  ///< Lamport clock attached at send
  bool bound = true;
  /// True the first time this message appears in any candidate list —
  /// tools process sightings only for fresh candidates (dedup is O(1)).
  bool fresh = true;
};

/// A message's bytes. Up to kInlineBytes live inside the object — room
/// for MCB's particle, the largest fixed-size message the apps send — so
/// such a message is sent, matched and delivered without a heap block; a
/// larger payload (Jacobi's halo strips) keeps exactly one. Reads like a
/// byte vector: size(), [i], at(i), and conversion to a span.
class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 40;

  Payload() noexcept = default;
  explicit Payload(std::span<const std::uint8_t> bytes) { assign(bytes); }
  Payload(const Payload& other) { assign(other); }
  Payload(Payload&& other) noexcept { take(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) assign(other);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~Payload() { release(); }

  /// Replaces the contents with a copy of `bytes` (which may alias them).
  void assign(std::span<const std::uint8_t> bytes) {
    std::uint8_t* const old = on_heap() ? block() : nullptr;
    std::uint8_t* dst = bytes_;
    if (bytes.size() > kInlineBytes)
      dst = static_cast<std::uint8_t*>(::operator new(bytes.size()));
    if (!bytes.empty()) std::memmove(dst, bytes.data(), bytes.size());
    if (dst != bytes_) std::memcpy(bytes_, &dst, sizeof dst);
    size_ = static_cast<std::uint32_t>(bytes.size());
    ::operator delete(old);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return on_heap() ? block() : bytes_;
  }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size_;
  }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] std::uint8_t at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("Payload::at");
    return data()[i];
  }
  operator std::span<const std::uint8_t>() const noexcept {
    return {data(), size_};
  }

 private:
  [[nodiscard]] bool on_heap() const noexcept { return size_ > kInlineBytes; }
  /// The heap block's address, kept in the inline bytes while on the heap.
  [[nodiscard]] std::uint8_t* block() const noexcept {
    std::uint8_t* p = nullptr;
    std::memcpy(&p, bytes_, sizeof p);
    return p;
  }
  void release() noexcept {
    if (on_heap()) ::operator delete(block());
    size_ = 0;
  }
  /// Moves `other`'s bytes (or its block) here and leaves it empty.
  void take(Payload& other) noexcept {
    std::memcpy(bytes_, other.bytes_,
                other.on_heap() ? sizeof(std::uint8_t*) : other.size_);
    size_ = other.size_;
    other.size_ = 0;
  }

  std::uint8_t bytes_[kInlineBytes] = {};
  std::uint32_t size_ = 0;
};

/// A delivered receive, as surfaced to the application (and to the tool's
/// on_deliver hook, which records it).
struct Completion {
  std::size_t span_index = 0;
  Rank source = -1;
  int tag = -1;
  std::uint64_t piggyback = 0;
  Payload payload;
};

/// Result of one MF call. `flag` is the MPI_Test-style "anything matched"
/// indicator; for Wait-family calls it is always true on return — unless
/// the call failed (ULFM-style): `failed` reports that the call can never
/// be satisfied because a peer process died (`failed_ranks` lists the
/// implicated dead ranks, MPI_ERR_PROC_FAILED analogue).
/// A failed call delivers nothing; its pending requests stay posted, and
/// the application is expected to drop dead-rank requests from its next
/// wait set (the shrink idiom).
struct MFResult {
  bool flag = false;
  bool failed = false;
  std::vector<Rank> failed_ranks;  ///< sorted, deduplicated
  std::vector<Completion> completions;
};

}  // namespace cdc::minimpi
