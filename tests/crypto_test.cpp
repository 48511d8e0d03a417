// Tests for src/crypto: SHA-256 vectors, HMAC vectors, SchnorrLite signatures.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sig.hpp"

namespace watchmen::crypto {
namespace {

std::string hex(const Digest& d) {
  static const char* k = "0123456789abcdef";
  std::string out;
  for (auto b : d) {
    out += k[b >> 4];
    out += k[b & 0xf];
  }
  return out;
}

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Deterministic test message: byte i is i*131 + salt*7 + 1 (mod 256).
std::vector<std::uint8_t> pattern(std::size_t len, std::uint8_t salt) {
  std::vector<std::uint8_t> m(len);
  for (std::size_t i = 0; i < len; ++i) {
    m[i] = static_cast<std::uint8_t>(i * 131 + salt * 7 + 1);
  }
  return m;
}

/// SplitMix64 stream for the differential tests' operands.
std::uint64_t next_u64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The scheme's challenge H(r || m) mod q (0 mapped to 1), recomputed here
/// so the forgery tests can build signatures without a secret.
std::uint64_t challenge_for_test(std::uint64_t r, std::span<const std::uint8_t> msg) {
  Sha256 h;
  std::uint8_t r_bytes[8];
  for (int i = 0; i < 8; ++i) r_bytes[i] = static_cast<std::uint8_t>(r >> (8 * i));
  h.update(std::span<const std::uint8_t>(r_bytes, 8));
  h.update(msg);
  const std::uint64_t e = digest_to_u64(h.finish()) % kGroupQ;
  return e == 0 ? 1 : e;
}

// ------------------------------------------------------------- SHA-256
// FIPS 180-4 / NIST test vectors.

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-second-block path.
  const std::string m(64, 'x');
  const Digest a = Sha256::hash(m);
  Sha256 h;  // same message split across updates
  h.update(m.substr(0, 13));
  h.update(m.substr(13));
  EXPECT_EQ(a, h.finish());
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string m = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= m.size(); ++split) {
    Sha256 h;
    h.update(m.substr(0, split));
    h.update(m.substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(m)) << "split=" << split;
  }
}

TEST(Sha256, DigestToU64IsStable) {
  const auto d = Sha256::hash("abc");
  EXPECT_EQ(digest_to_u64(d), digest_to_u64(Sha256::hash("abc")));
  EXPECT_NE(digest_to_u64(d), digest_to_u64(Sha256::hash("abd")));
}

// ------------------------------------------------------------- HMAC
// RFC 4231 test vectors.

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  EXPECT_EQ(hex(hmac_sha256(key, as_bytes(msg))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  EXPECT_EQ(hex(hmac_sha256(as_bytes(key), as_bytes(msg))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  EXPECT_EQ(hex(hmac_sha256(key, as_bytes(msg))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ------------------------------------------------------------- Golden vectors
// Captured from the portable implementation (scalar SHA-256, an HMAC that
// hashes its key blocks on every call, `unsigned __int128 %` arithmetic)
// before any fast path existed. Signatures travel on the wire and in .wmrec
// recordings, so every accelerated path must reproduce these bit for bit.

TEST(Golden, Sha256PaddingEdges) {
  struct Case {
    std::size_t len;
    const char* digest;
  };
  const Case cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "38d095f4084ca3fb39f69d8e78472c5ef6e6c98a0265f4cb7fe20547af2789c2"},
      {56, "65e1ca4ed0746d75a14fcbc41ac386b6d1bf45570c17e0fe49420c82881ea5bd"},
      {63, "22a847a33c6c1b2adda9bbd0afb6415b8620c5ee1e237260a5dc66c887645878"},
      {64, "498abb6682eb10458ab6e111b45ede15ec98ec03f3b0201a10883de718001db6"},
      {65, "9183457d52431d709a80e80c992a6792a4ceec831107aa8afc5e23b52e5d2b5a"},
      {119, "1e22c4cf7bbfa2bcf115625cbdf17827040c69b987eb2eb91343b462ebef9f9d"},
      {120, "c62faba13841cba3b938c8763e020f2c323f3f727467563d7615e70adf50ca37"},
      {200, "3dd77e7c1bb8698f021a2e047128daeaaa99cdb3241e9f7c17afcf673a610297"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(hex(Sha256::hash(pattern(c.len, 3))), c.digest) << "len=" << c.len;
  }
}

TEST(Golden, HmacWithEightByteKey) {
  // The nonce derivation keys HMAC with the secret's 8 little-endian bytes.
  struct Case {
    std::uint64_t key;
    std::size_t len;
    const char* mac;
  };
  const Case cases[] = {
      {0x0000000000000001ULL, 0, "2f8738164025afdddbc18665c6e8f37de9498db7fd194873c61ee30c22192a9a"},
      {0x0000000000000001ULL, 88, "c5f890b9bb99b801cc9babbbaece251d846947c9f56dc1631e42a0f1185c1b52"},
      {0x0000000000000001ULL, 200, "a8265352f1a3b7dfcead0d9c8c0e9fef12eb71c4cbfec5e2b09499e64b2f3ee8"},
      {0x0123456789abcdefULL, 0, "2c6d8309c00b0645c8264a337612eab365fee50c1e754b595c69fe45f2f7cfaf"},
      {0x0123456789abcdefULL, 88, "eaaade48200b9d58afab5d38bf081cfe5dd0288c0dbe4592a13249daaf5b5ecd"},
      {0x0123456789abcdefULL, 200, "c0650cf2fa2310a0d089dccfb34f860cc1eefac8de00d8d8fc970de6dde13aa3"},
  };
  for (const Case& c : cases) {
    std::uint8_t key[8];
    for (int i = 0; i < 8; ++i) key[i] = static_cast<std::uint8_t>(c.key >> (8 * i));
    EXPECT_EQ(hex(hmac_sha256(std::span<const std::uint8_t>(key, 8), pattern(c.len, 5))),
              c.mac)
        << "key=" << c.key << " len=" << c.len;
  }
}

TEST(Golden, RegistrySignatures) {
  struct Case {
    std::uint64_t session_seed;
    PlayerId player;
    std::size_t len;
    std::uint64_t public_key, e, s;
  };
  const Case cases[] = {
      {0x00000000000004d2ULL, 0, 0, 0x1c353a911d028a9cULL, 0x06994c5ebce7dfdcULL, 0x0e835e4bcdcf68e1ULL},
      {0x00000000000004d2ULL, 0, 16, 0x1c353a911d028a9cULL, 0x095025719c8f4167ULL, 0x1955ab905ff35b18ULL},
      {0x00000000000004d2ULL, 0, 88, 0x1c353a911d028a9cULL, 0x025a418cbe10672dULL, 0x0b4929886477b4e2ULL},
      {0x00000000000004d2ULL, 0, 150, 0x1c353a911d028a9cULL, 0x14b9df857daa7477ULL, 0x151cee078bf0d116ULL},
      {0x00000000000004d2ULL, 1, 0, 0x04baf7e2645e52a4ULL, 0x179b4ce321483610ULL, 0x06d0edbb0bd418c9ULL},
      {0x00000000000004d2ULL, 1, 16, 0x04baf7e2645e52a4ULL, 0x04c502c729316fc7ULL, 0x0a864f933c1a93f8ULL},
      {0x00000000000004d2ULL, 1, 88, 0x04baf7e2645e52a4ULL, 0x0a72fcc528b8897dULL, 0x1112c33fe23927e8ULL},
      {0x00000000000004d2ULL, 1, 150, 0x04baf7e2645e52a4ULL, 0x0060ded33d160a34ULL, 0x0719f15eecb5bc93ULL},
      {0x00000000000004d2ULL, 17, 0, 0x06846bfda3f4a908ULL, 0x075147aa2ea0a918ULL, 0x0c4e491ac0201227ULL},
      {0x00000000000004d2ULL, 17, 16, 0x06846bfda3f4a908ULL, 0x1d99133d1f5525dcULL, 0x06f0d877f043967bULL},
      {0x00000000000004d2ULL, 17, 88, 0x06846bfda3f4a908ULL, 0x1020b20ce01b4671ULL, 0x00b3ddb33f97a567ULL},
      {0x00000000000004d2ULL, 17, 150, 0x06846bfda3f4a908ULL, 0x093458e4fd5cac77ULL, 0x0413601aa202228fULL},
      {0x00000000000004d2ULL, 47, 0, 0x10bc09d8254a0c8bULL, 0x08f11c2bd9f28cb7ULL, 0x04fd7af9b9771e9bULL},
      {0x00000000000004d2ULL, 47, 16, 0x10bc09d8254a0c8bULL, 0x151185afe8130899ULL, 0x02c219b609790259ULL},
      {0x00000000000004d2ULL, 47, 88, 0x10bc09d8254a0c8bULL, 0x1871e556f2122e44ULL, 0x06da9b93dbeed984ULL},
      {0x00000000000004d2ULL, 47, 150, 0x10bc09d8254a0c8bULL, 0x18c97922819e3e2cULL, 0x07f40862d6442e6cULL},
      {0x0000000000000007ULL, 0, 0, 0x03ce4f65d59ed8d1ULL, 0x093e339d2f9be414ULL, 0x1db9f00b8db8fb0fULL},
      {0x0000000000000007ULL, 0, 16, 0x03ce4f65d59ed8d1ULL, 0x018872edbd30252bULL, 0x09e6aa4de6762c63ULL},
      {0x0000000000000007ULL, 0, 88, 0x03ce4f65d59ed8d1ULL, 0x1b60fa63506cc8c8ULL, 0x0a741f2557502307ULL},
      {0x0000000000000007ULL, 0, 150, 0x03ce4f65d59ed8d1ULL, 0x1b743261f766d174ULL, 0x03127617f4a5ef99ULL},
      {0x0000000000000007ULL, 1, 0, 0x097dd58e980a4475ULL, 0x06728b68b2565921ULL, 0x039057d629b088b8ULL},
      {0x0000000000000007ULL, 1, 16, 0x097dd58e980a4475ULL, 0x0fd4ab1c0932e150ULL, 0x147bc97ec2cb5dfeULL},
      {0x0000000000000007ULL, 1, 88, 0x097dd58e980a4475ULL, 0x02e79b65e01f0112ULL, 0x0a86d1b20866b00dULL},
      {0x0000000000000007ULL, 1, 150, 0x097dd58e980a4475ULL, 0x15fe7fbd72f5f699ULL, 0x010d28aa24e375dcULL},
      {0x0000000000000007ULL, 17, 0, 0x05c36144ba871252ULL, 0x0948b4eb111a116dULL, 0x136b03acc7a6fab1ULL},
      {0x0000000000000007ULL, 17, 16, 0x05c36144ba871252ULL, 0x1d24429d6983d890ULL, 0x17c44d39805eb6f7ULL},
      {0x0000000000000007ULL, 17, 88, 0x05c36144ba871252ULL, 0x03e392aecb4bf0a6ULL, 0x009d84d940df278cULL},
      {0x0000000000000007ULL, 17, 150, 0x05c36144ba871252ULL, 0x149fca3623403e25ULL, 0x1c34bb812ce5ff15ULL},
      {0x0000000000000007ULL, 47, 0, 0x16cd96a40d6474d1ULL, 0x15deb7a814cb6a3dULL, 0x02625c43d36393d4ULL},
      {0x0000000000000007ULL, 47, 16, 0x16cd96a40d6474d1ULL, 0x1de5a23e7633b202ULL, 0x1721d7bf8141104aULL},
      {0x0000000000000007ULL, 47, 88, 0x16cd96a40d6474d1ULL, 0x1cf6d651e0f35d3cULL, 0x04cd74708af486c0ULL},
      {0x0000000000000007ULL, 47, 150, 0x16cd96a40d6474d1ULL, 0x08fbb302ba8e39eaULL, 0x1c6f6d5a5b0548b7ULL},
      {0xfeedfacecafebeefULL, 0, 0, 0x0289dec7458cf33bULL, 0x1e4556b10ff7a75aULL, 0x116bae5fd4a5bb10ULL},
      {0xfeedfacecafebeefULL, 0, 16, 0x0289dec7458cf33bULL, 0x02b69112ee31052aULL, 0x04865f93c203832cULL},
      {0xfeedfacecafebeefULL, 0, 88, 0x0289dec7458cf33bULL, 0x1a94da5d7c6a9979ULL, 0x17000443be5c790fULL},
      {0xfeedfacecafebeefULL, 0, 150, 0x0289dec7458cf33bULL, 0x02281907e0653885ULL, 0x1a028e9337bca324ULL},
      {0xfeedfacecafebeefULL, 1, 0, 0x1a6be07016a37f6fULL, 0x01cf51fa17763e03ULL, 0x1ced89fcee8cc677ULL},
      {0xfeedfacecafebeefULL, 1, 16, 0x1a6be07016a37f6fULL, 0x0d4736417d3f6eb6ULL, 0x0d5f25a49c38ebacULL},
      {0xfeedfacecafebeefULL, 1, 88, 0x1a6be07016a37f6fULL, 0x0bc4ad20f3723b4fULL, 0x1f4251478601f019ULL},
      {0xfeedfacecafebeefULL, 1, 150, 0x1a6be07016a37f6fULL, 0x02d1b515642e4bf3ULL, 0x00b1b5892e6740c0ULL},
      {0xfeedfacecafebeefULL, 17, 0, 0x04c8840ace6e60e5ULL, 0x0072add19ee7cc1fULL, 0x0dc24962f207b69dULL},
      {0xfeedfacecafebeefULL, 17, 16, 0x04c8840ace6e60e5ULL, 0x1bc711603b8d2e84ULL, 0x1fb4a4c4b98a051dULL},
      {0xfeedfacecafebeefULL, 17, 88, 0x04c8840ace6e60e5ULL, 0x0b4682781b443baaULL, 0x13be5eea524468eaULL},
      {0xfeedfacecafebeefULL, 17, 150, 0x04c8840ace6e60e5ULL, 0x182c89c7c48bb0b6ULL, 0x1edb7628140fdc7aULL},
      {0xfeedfacecafebeefULL, 47, 0, 0x05915b97f5c05a19ULL, 0x01ca65465745b77aULL, 0x11774d41fb39e85cULL},
      {0xfeedfacecafebeefULL, 47, 16, 0x05915b97f5c05a19ULL, 0x0dfbed636b3d644fULL, 0x150bbe363c4b4fbeULL},
      {0xfeedfacecafebeefULL, 47, 88, 0x05915b97f5c05a19ULL, 0x160c89d007e4e55bULL, 0x01d6583fee00bf37ULL},
      {0xfeedfacecafebeefULL, 47, 150, 0x05915b97f5c05a19ULL, 0x1bc6e18f0d29e3f5ULL, 0x04dcf0ca2d0d34eaULL},
  };
  for (const Case& c : cases) {
    const KeyRegistry reg(c.session_seed, 48);
    const auto msg = pattern(c.len, static_cast<std::uint8_t>(c.player));
    SCOPED_TRACE(testing::Message() << "seed=" << c.session_seed
                                    << " player=" << c.player << " len=" << c.len);
    EXPECT_EQ(reg.public_key(c.player), c.public_key);
    EXPECT_EQ(sign(reg.key_pair(c.player), msg), (Signature{c.e, c.s}));
    EXPECT_TRUE(verify(c.public_key, msg, Signature{c.e, c.s}));
  }
}

// ------------------------------------------------------------- Fast paths
// Each accelerated path against its portable reference, both called through
// the detail:: entry points.

std::string digest_with(detail::Sha256Compress compress,
                        std::span<const std::uint8_t> msg, std::size_t split) {
  Sha256 h(compress);
  h.update(msg.first(split));
  h.update(msg.subspan(split));
  return hex(h.finish());
}

TEST(FastPath, DispatchedSha256MatchesScalar) {
  const detail::Sha256Compress fast = detail::sha256_compress();
  for (std::size_t len = 0; len <= 300; ++len) {
    const auto msg = pattern(len, static_cast<std::uint8_t>(len));
    const std::string ref = digest_with(detail::sha256_compress_scalar, msg, 0);
    EXPECT_EQ(hex(Sha256::hash(msg)), ref) << "len=" << len;
    for (std::size_t split : {std::size_t{0}, len / 3, len / 2, len}) {
      EXPECT_EQ(digest_with(fast, msg, split), ref)
          << "len=" << len << " split=" << split;
    }
  }
}

TEST(FastPath, DispatchedCompressionMatchesScalarOnRawBlocks) {
  std::uint64_t rng = 1;
  for (std::size_t n_blocks = 1; n_blocks <= 5; ++n_blocks) {
    std::vector<std::uint8_t> blocks(64 * n_blocks);
    for (auto& b : blocks) b = static_cast<std::uint8_t>(next_u64(rng));
    detail::Sha256State a;
    for (auto& w : a) w = static_cast<std::uint32_t>(next_u64(rng));
    detail::Sha256State b = a;
    detail::sha256_compress_scalar(a, blocks.data(), n_blocks);
    detail::sha256_compress()(b, blocks.data(), n_blocks);
    EXPECT_EQ(a, b) << "blocks=" << n_blocks;
  }
}

TEST(FastPath, MersenneMulMatchesGeneric) {
  const std::uint64_t edges[] = {0,           1,           2,
                                 kGroupG,     kGroupQ,     kGroupP,
                                 kGroupP + 1, 2 * kGroupP, 2 * kGroupP + 1,
                                 1ULL << 61,  1ULL << 63,  ~0ULL - 1,
                                 ~0ULL};
  for (std::uint64_t a : edges) {
    for (std::uint64_t b : edges) {
      EXPECT_EQ(mod_mul(a, b, kGroupP), detail::mod_mul_generic(a, b, kGroupP))
          << a << " * " << b;
    }
  }
  std::uint64_t rng = 2;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t a = next_u64(rng), b = next_u64(rng);
    ASSERT_EQ(mod_mul(a, b, kGroupP), detail::mod_mul_generic(a, b, kGroupP))
        << a << " * " << b;
  }
}

TEST(FastPath, MersennePowMatchesGeneric) {
  const std::uint64_t bases[] = {0,           1,          2,
                                 kGroupG,     kGroupP - 1, kGroupP,
                                 kGroupP + 1, kGroupP + kGroupG, 1ULL << 62,
                                 ~0ULL};
  const std::uint64_t exps[] = {0,       1,           2,           15,
                                16,      255,         256,         kGroupQ - 1,
                                kGroupQ, kGroupP,     1ULL << 63,  ~0ULL};
  for (std::uint64_t b : bases) {
    for (std::uint64_t e : exps) {
      EXPECT_EQ(mod_pow(b, e, kGroupP), detail::mod_pow_generic(b, e, kGroupP))
          << b << " ^ " << e;
    }
  }
  std::uint64_t rng = 3;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t b = next_u64(rng), e = next_u64(rng);
    ASSERT_EQ(mod_pow(b, e, kGroupP), detail::mod_pow_generic(b, e, kGroupP))
        << b << " ^ " << e;
  }
}

TEST(FastPath, OtherModuliKeepTheGenericContract) {
  std::uint64_t rng = 4;
  const std::uint64_t moduli[] = {1, 2, 1000000007ULL, kGroupQ, kGroupP + 2, ~0ULL};
  for (std::uint64_t m : moduli) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t a = next_u64(rng), b = next_u64(rng);
      ASSERT_EQ(mod_mul(a, b, m), detail::mod_mul_generic(a, b, m));
      ASSERT_EQ(mod_pow(a, b, m), detail::mod_pow_generic(a, b, m));
    }
  }
}

TEST(FastPath, GTableMatchesSquareAndMultiply) {
  const std::uint64_t exps[] = {0, 1, 255, 256, kGroupQ - 1, kGroupQ, ~0ULL};
  for (std::uint64_t e : exps) {
    EXPECT_EQ(detail::g_pow(e), detail::mod_pow_generic(kGroupG, e, kGroupP)) << e;
  }
  std::uint64_t rng = 5;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t e = next_u64(rng);
    ASSERT_EQ(detail::g_pow(e), detail::mod_pow_generic(kGroupG, e, kGroupP)) << e;
  }
}

// ------------------------------------------------------------- Signatures

TEST(Sig, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::generate(42);
  const std::string msg = "state update: pos=(1,2,3) frame=17";
  const Signature sig = sign(kp, as_bytes(msg));
  EXPECT_TRUE(verify(kp.public_key(), as_bytes(msg), sig));
}

TEST(Sig, TamperedMessageRejected) {
  const KeyPair kp = KeyPair::generate(42);
  const std::string msg = "state update: pos=(1,2,3) frame=17";
  const Signature sig = sign(kp, as_bytes(msg));
  const std::string tampered = "state update: pos=(9,2,3) frame=17";
  EXPECT_FALSE(verify(kp.public_key(), as_bytes(tampered), sig));
}

TEST(Sig, WrongKeyRejected) {
  const KeyPair alice = KeyPair::generate(1);
  const KeyPair bob = KeyPair::generate(2);
  const std::string msg = "hello";
  const Signature sig = sign(alice, as_bytes(msg));
  EXPECT_FALSE(verify(bob.public_key(), as_bytes(msg), sig));
}

TEST(Sig, TamperedSignatureRejected) {
  const KeyPair kp = KeyPair::generate(7);
  const std::string msg = "hello";
  Signature sig = sign(kp, as_bytes(msg));
  sig.s ^= 1;
  EXPECT_FALSE(verify(kp.public_key(), as_bytes(msg), sig));
  sig.s ^= 1;
  sig.e ^= 1;
  EXPECT_FALSE(verify(kp.public_key(), as_bytes(msg), sig));
}

TEST(Sig, DeterministicSigning) {
  const KeyPair kp = KeyPair::generate(9);
  const std::string msg = "reproducible";
  EXPECT_EQ(sign(kp, as_bytes(msg)), sign(kp, as_bytes(msg)));
}

TEST(Sig, EncodeDecodeRoundTrip) {
  const KeyPair kp = KeyPair::generate(11);
  const Signature sig = sign(kp, as_bytes(std::string("x")));
  const auto bytes = sig.encode();
  EXPECT_EQ(bytes.size(), kSignatureBytes);
  EXPECT_EQ(Signature::decode(bytes), sig);
}

TEST(Sig, RejectsOutOfRangeValues) {
  const KeyPair kp = KeyPair::generate(5);
  const std::string msg = "m";
  EXPECT_FALSE(verify(kp.public_key(), as_bytes(msg), Signature{0, 0}));
  EXPECT_FALSE(verify(kp.public_key(), as_bytes(msg), Signature{kGroupQ, 1}));
  EXPECT_FALSE(verify(0, as_bytes(msg), sign(kp, as_bytes(msg))));
}

TEST(Sig, RejectsIdentityPublicKey) {
  // With y = 1, y^(q-e) = 1 for every e: pick any s, set e = H(g^s || m),
  // and the forgery verifies.
  const std::string msg = "forged under y = 1";
  const std::uint64_t s = 123456789;
  const Signature forged{challenge_for_test(detail::g_pow(s), as_bytes(msg)), s};
  EXPECT_FALSE(verify(1, as_bytes(msg), forged));
}

TEST(Sig, RejectsOrderTwoPublicKey) {
  // With y = p-1, y^(q-e) = 1 whenever q-e is even, i.e. e is even: half of
  // all forgery attempts succeed. Each attempt below would pass without the
  // key check.
  const std::string msg = "forged under y = p-1";
  int attempts = 0;
  for (std::uint64_t s = 1; s < 64; ++s) {
    const std::uint64_t e = challenge_for_test(detail::g_pow(s), as_bytes(msg));
    if (e % 2 != 0) continue;
    ++attempts;
    EXPECT_FALSE(verify(kGroupP - 1, as_bytes(msg), Signature{e, s})) << "s=" << s;
  }
  EXPECT_GT(attempts, 0);
}

TEST(Sig, ModArithmetic) {
  EXPECT_EQ(mod_pow(2, 10, 1000000007ULL), 1024u);
  // Fermat: g^(p-1) == 1 (mod p)
  EXPECT_EQ(mod_pow(kGroupG, kGroupQ, kGroupP), 1u);
  EXPECT_EQ(mod_mul(kGroupP - 1, kGroupP - 1, kGroupP), 1u);
}

class SigManyKeys : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SigManyKeys, RoundTripAcrossSeeds) {
  const KeyPair kp = KeyPair::generate(GetParam());
  ASSERT_NE(kp.secret(), 0u);
  ASSERT_NE(kp.public_key(), 0u);
  // Never one of the small-subgroup keys verify() rejects.
  ASSERT_NE(kp.public_key(), 1u);
  ASSERT_NE(kp.public_key(), kGroupP - 1);
  const std::string msg = "seed " + std::to_string(GetParam());
  const Signature sig = sign(kp, as_bytes(msg));
  EXPECT_TRUE(verify(kp.public_key(), as_bytes(msg), sig));
  const std::string other = "seed x";
  EXPECT_FALSE(verify(kp.public_key(), as_bytes(other), sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SigManyKeys,
                         ::testing::Values(0, 1, 2, 3, 17, 255, 1000, 99999,
                                           0xffffffffffffffffULL));

// ------------------------------------------------------------- KeyRegistry

TEST(KeyRegistry, DistinctKeysPerPlayer) {
  const KeyRegistry reg(1234, 48);
  EXPECT_EQ(reg.size(), 48u);
  for (PlayerId p = 1; p < 48; ++p) {
    EXPECT_NE(reg.public_key(p), reg.public_key(p - 1));
  }
}

TEST(KeyRegistry, KeysAreDeterministic) {
  const KeyRegistry a(1234, 8);
  const KeyRegistry b(1234, 8);
  for (PlayerId p = 0; p < 8; ++p) EXPECT_EQ(a.public_key(p), b.public_key(p));
}

TEST(KeyRegistry, SignaturesInterop) {
  const KeyRegistry reg(99, 4);
  const std::string msg = "cross-check";
  const Signature sig = sign(reg.key_pair(2), as_bytes(msg));
  EXPECT_TRUE(verify(reg.public_key(2), as_bytes(msg), sig));
  EXPECT_FALSE(verify(reg.public_key(3), as_bytes(msg), sig));
}

}  // namespace
}  // namespace watchmen::crypto
