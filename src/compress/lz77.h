// LZ77 tokenization over a 32 KiB sliding window with hash-chain match
// search and one-step lazy matching — the front half of DEFLATE.
//
// The match finder's state (head/prev hash chains) lives in an explicit
// Lz77Workspace so the hot path never allocates: workers keep one
// workspace per thread and recycle it across calls. Reset is O(1) via
// generation stamps on the hash heads — stale chain entries from earlier
// inputs are simply never followed — so tokenization is a pure function
// of (input, params) regardless of what the workspace processed before.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cdc::compress {

/// One LZ77 token: either a literal byte or a back-reference.
struct Lz77Token {
  // length == 0 means literal; otherwise a match of `length` in [3, 258]
  // at `distance` in [1, 32768].
  std::uint16_t length = 0;
  std::uint16_t distance = 0;
  std::uint8_t literal = 0;

  [[nodiscard]] bool is_literal() const noexcept { return length == 0; }
};

struct Lz77Params {
  int max_chain = 128;     ///< hash-chain positions probed per match search
  int good_length = 32;    ///< quarter the chain budget beyond this match
  int nice_length = 128;   ///< stop searching once a match this long is found
  bool lazy = true;        ///< one-step lazy matching
};

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;

/// Recyclable match-finder state. Reusing one workspace across calls
/// avoids the ~160 KiB head/prev (re)allocation per compress call the
/// seed paid; results are identical to a fresh workspace.
class Lz77Workspace {
 public:
  Lz77Workspace() = default;

  Lz77Workspace(const Lz77Workspace&) = delete;
  Lz77Workspace& operator=(const Lz77Workspace&) = delete;

 private:
  friend void lz77_tokenize_into(Lz77Workspace&,
                                 std::span<const std::uint8_t>,
                                 const Lz77Params&,
                                 std::vector<Lz77Token>&);

  void begin(std::size_t input_size);

  std::vector<std::int32_t> head_;      ///< kHashSize, lazily sized
  std::vector<std::uint32_t> head_gen_; ///< generation stamp per head slot
  std::vector<std::int32_t> prev_;      ///< >= input_size, grown as needed
  std::uint32_t generation_ = 0;
};

/// Tokenizes `input` into `out` (cleared first) using `workspace` for the
/// match-finder state. The token stream, when expanded in order,
/// reproduces `input` exactly (property-tested); the same (input, params)
/// produce the same tokens on any thread and any workspace history.
void lz77_tokenize_into(Lz77Workspace& workspace,
                        std::span<const std::uint8_t> input,
                        const Lz77Params& params,
                        std::vector<Lz77Token>& out);

/// Convenience wrapper over a thread-local workspace.
std::vector<Lz77Token> lz77_tokenize(std::span<const std::uint8_t> input,
                                     const Lz77Params& params = {});

/// Expands a token stream back into bytes (the reference inverse used by
/// tests; the DEFLATE decoder has its own incremental copy loop).
std::vector<std::uint8_t> lz77_expand(std::span<const Lz77Token> tokens);

}  // namespace cdc::compress
