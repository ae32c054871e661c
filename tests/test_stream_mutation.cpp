/// Seeded mutation tests for the entropy-coded decoders: deflate_decompress
/// and the SZ-like and ZFP-like decompressors, which share the bit reader
/// and the Huffman decoder. Every bit flip, truncation and 8-byte overwrite
/// of a valid stream must end in either a correctly sized output or a
/// corrupt_stream_error: no other exception, no crash, and — under the
/// ASan/UBSan builds — no out-of-bounds access or undefined behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <typeinfo>

#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "compress/lossless/deflate_like.hpp"
#include "sparse/vector_ops.hpp"

namespace lck {
namespace {

/// One seeded mutation, cycling through the three kinds: 1-3 bit flips,
/// a truncation, or an 8-byte overwrite with a random or boundary value.
std::vector<byte_t> mutate(const std::vector<byte_t>& stream, Rng& rng,
                           int k) {
  auto m = stream;
  switch (k % 3) {
    case 0: {
      const auto flips = 1 + rng.uniform_index(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const auto bit = rng.uniform_index(m.size() * 8);
        m[bit / 8] ^= static_cast<byte_t>(0x80u >> (bit % 8));
      }
      break;
    }
    case 1:
      m.resize(rng.uniform_index(m.size()));
      break;
    default: {
      const std::uint64_t specials[] = {0, ~std::uint64_t{0},
                                        std::uint64_t{1} << 40,
                                        std::uint64_t{1} << 63, 0xffffffffu};
      const std::uint64_t v =
          rng.uniform() < 0.5 ? rng() : specials[rng.uniform_index(5)];
      const auto off = rng.uniform_index(m.size() - 7);
      std::memcpy(m.data() + off, &v, sizeof(v));
      break;
    }
  }
  return m;
}

struct Outcomes {
  int decoded = 0;
  int rejected = 0;
};

/// Apply `count` seeded mutations to `stream` and decode each with
/// `decode`, which must fill a correctly sized output or throw.
template <typename Decode>
Outcomes run_mutations(const std::vector<byte_t>& stream, int count,
                       std::uint64_t seed, Decode decode) {
  Rng rng(seed);
  Outcomes o;
  for (int k = 0; k < count; ++k) {
    const auto m = mutate(stream, rng, k);
    try {
      decode(m);
      ++o.decoded;
    } catch (const corrupt_stream_error&) {
      ++o.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << k << ": " << typeid(e).name() << ": "
                    << e.what();
    }
  }
  return o;
}

/// Solver-like doubles: a smooth field with noise in the low mantissa.
Vector field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.01 * static_cast<double>(i)) + 2.0 + 1e-6 * rng.uniform();
  return v;
}

TEST(StreamMutation, DeflateDecodesOrRejects) {
  const Vector v = field(2048, 1);
  std::vector<byte_t> raw(v.size() * sizeof(double));
  std::memcpy(raw.data(), v.data(), raw.size());
  for (std::size_t i = 4096; i < 4800; ++i) raw[i] = 0;  // long matches
  const auto stream = deflate_compress(raw);
  ASSERT_LT(stream.size(), raw.size());  // the Huffman format, not stored
  const auto o = run_mutations(stream, 3000, 11, [&](const auto& m) {
    std::vector<byte_t> out(raw.size());
    deflate_decompress(m, out);
  });
  // Mutations in the payload's tail or in unused code-length slack can
  // leave a stream that still decodes; most must be caught.
  EXPECT_GT(o.decoded, 0);
  EXPECT_GT(o.rejected, o.decoded);
}

TEST(StreamMutation, DeflateStoredDecodesOrRejects) {
  Rng rng(3);
  std::vector<byte_t> raw(1000);
  for (auto& b : raw) b = static_cast<byte_t>(rng());
  const auto stream = deflate_compress(raw);
  ASSERT_GT(stream.size(), raw.size());  // incompressible: stored format
  const auto o = run_mutations(stream, 600, 12, [&](const auto& m) {
    std::vector<byte_t> out(raw.size());
    deflate_decompress(m, out);
  });
  EXPECT_GT(o.decoded, 0);
  EXPECT_GT(o.rejected, 0);
}

struct CodecCase {
  const char* name;
  ErrorBound eb;
  bool spiky;  // sparse data with non-finite entries instead of a field
};

class CodecMutation : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecMutation, DecodesOrRejects) {
  const CodecCase& c = GetParam();
  Vector v = field(1000, 2);
  if (c.spiky) {
    Rng rng(4);
    for (auto& x : v) x = rng.uniform() < 0.8 ? 0.0 : rng.normal(0.0, 1e3);
    v[10] = std::numeric_limits<double>::infinity();
    v[500] = -0.0;
  }
  const auto comp = make_compressor(c.name, c.eb);
  const auto stream = comp->compress(v);
  const auto o = run_mutations(stream, 1000, 13, [&](const auto& m) {
    Vector out(v.size());
    comp->decompress(m, out);
  });
  EXPECT_GT(o.rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(
    SzAndZfp, CodecMutation,
    ::testing::Values(
        CodecCase{"sz", ErrorBound::absolute(1e-6), false},
        CodecCase{"sz", ErrorBound::value_range_rel(1e-4), false},
        CodecCase{"sz", ErrorBound::pointwise_rel(1e-4), true},
        CodecCase{"zfp", ErrorBound::absolute(1e-6), false},
        CodecCase{"zfp", ErrorBound::absolute(0.0), true}),
    [](const auto& info) {
      return std::string(info.param.name) + "_" + std::to_string(info.index);
    });

}  // namespace
}  // namespace lck
