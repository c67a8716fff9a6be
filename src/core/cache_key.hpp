// Cache key generation (paper section 4.1, Tables 2/6/8).
//
// A key identifies (endpoint URL, operation, all parameter names+values).
// Three generators trade generality for speed:
//   XmlMessageKeyGenerator    - serialize the whole request envelope (works
//                               for any type, pays serialization per lookup)
//   SerializationKeyGenerator - binary-serialize the parameters (needs
//                               serializable parameter types, ~10x faster)
//   ToStringKeyGenerator      - concatenate parameter strings (needs usable
//                               toString, fastest; "optimal in many cases")
//
// The Table-6 claim is that key generation is the per-hit cost that decides
// whether caching pays off, so the fast generator must not allocate on the
// hit path: generate_into() builds the key material in a caller-owned
// KeyScratch (a reusable buffer with an incrementally maintained 64-bit
// FNV-1a hash), and the cache accepts the resulting borrowed CacheKeyRef
// for lookups — the owned, heap-allocated CacheKey is only materialized on
// the miss path, where a wire round trip dwarfs one allocation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/representation.hpp"
#include "soap/message.hpp"
#include "util/hash.hpp"
#include "util/mem_footprint.hpp"

namespace wsc::cache {

/// Borrowed key material + its precomputed hash: the one key type
/// ResponseCache::lookup() takes (an owned CacheKey passes its ref()).
/// Valid only while the KeyScratch (or string) it views is alive and
/// unmodified.
struct CacheKeyRef {
  std::string_view material;
  std::uint64_t hash = 0;
};

/// Immutable owned key: opaque bytes + precomputed hash.
class CacheKey {
 public:
  CacheKey() = default;
  explicit CacheKey(std::string material);

  /// Adopt material whose FNV-1a hash the caller already computed (a
  /// KeyScratch's to_key()); trusts, in debug builds verifies, the hash.
  static CacheKey with_hash(std::string material, std::uint64_t hash);

  const std::string& material() const noexcept { return material_; }
  std::uint64_t hash() const noexcept { return hash_; }
  CacheKeyRef ref() const noexcept { return {material_, hash_}; }

  /// Bytes held in the cache table per entry for this key (Table 8): its
  /// inline bytes, which sit in the table's node, plus its material block.
  std::size_t memory_size() const noexcept {
    return sizeof(CacheKey) + util::heap_footprint(material_);
  }

  bool operator==(const CacheKey& other) const noexcept {
    return hash_ == other.hash_ && material_ == other.material_;
  }

  /// Transparent hash/equality so the cache table can be probed with a
  /// borrowed CacheKeyRef without constructing an owned key (C++20
  /// heterogeneous unordered lookup).
  struct Hasher {
    using is_transparent = void;
    std::size_t operator()(const CacheKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash());
    }
    std::size_t operator()(const CacheKeyRef& r) const noexcept {
      return static_cast<std::size_t>(r.hash);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(const CacheKey& a, const CacheKey& b) const noexcept {
      return a == b;
    }
    bool operator()(const CacheKey& a, const CacheKeyRef& b) const noexcept {
      return a.hash() == b.hash && a.material() == b.material;
    }
    bool operator()(const CacheKeyRef& a, const CacheKey& b) const noexcept {
      return (*this)(b, a);
    }
    bool operator()(const CacheKeyRef& a, const CacheKeyRef& b) const noexcept {
      return a.hash == b.hash && a.material == b.material;
    }
  };

 private:
  std::string material_;
  std::uint64_t hash_ = 0;
};

/// Reusable key-material buffer for the zero-allocation fast path.  The
/// caller keeps one per thread (or per call site); after the first few
/// calls the buffer's capacity reaches the workload's steady state and
/// generate_into() performs no heap allocation at all.
///
/// Usage:
///   scratch.reset();
///   ...append material to scratch.buffer()...
///   scratch.finish();                 // incremental FNV over new bytes
///   cache.lookup(scratch.ref(), mode);  // zero-alloc probe, any mode
///   CacheKey key = scratch.to_key();    // owned copy (miss path only)
class KeyScratch {
 public:
  /// The material buffer; generators append directly (capacity is kept
  /// across reset(), which is what makes the steady state allocation-free).
  std::string& buffer() noexcept { return buf_; }

  void reset() noexcept {
    buf_.clear();
    hash_ = util::kFnvOffset;
    hashed_ = 0;
  }

  /// Fold bytes appended since the last finish() into the running hash —
  /// incremental, so no byte of the material is scanned twice and no
  /// temporary is created.  Returns the hash over the whole buffer.
  std::uint64_t finish() noexcept {
    hash_ = util::fnv1a(
        std::string_view(buf_).substr(hashed_), hash_);
    hashed_ = buf_.size();
    return hash_;
  }

  /// Borrowed view for lookups.  finish() must have been called after the
  /// last append.
  CacheKeyRef ref() const noexcept { return {buf_, hash_}; }

  /// Owned key (allocates a copy of the material; miss/store path).
  CacheKey to_key() const { return CacheKey::with_hash(buf_, hash_); }

  /// Adopt an already-built key (fallback for generators without an
  /// append-style implementation).
  void assign(const CacheKey& key) {
    buf_.assign(key.material());
    hash_ = key.hash();
    hashed_ = buf_.size();
  }

 private:
  std::string buf_;
  std::uint64_t hash_ = util::kFnvOffset;
  std::size_t hashed_ = 0;  // prefix of buf_ already folded into hash_
};

class KeyGenerator {
 public:
  virtual ~KeyGenerator() = default;

  /// Build the key for a request.  Throws wsc::SerializationError when the
  /// method cannot handle a parameter type (Table 2's Limitation column).
  virtual CacheKey generate(const soap::RpcRequest& request) const = 0;

  /// Build the key material into `scratch` (resets it first).  The default
  /// delegates to generate() and copies; ToStringKeyGenerator overrides it
  /// with a true zero-allocation implementation.  Both paths produce
  /// byte-identical material, so refs and owned keys always agree.
  virtual void generate_into(const soap::RpcRequest& request,
                             KeyScratch& scratch) const {
    scratch.assign(generate(request));
  }

  virtual KeyMethod method() const = 0;
};

class XmlMessageKeyGenerator final : public KeyGenerator {
 public:
  CacheKey generate(const soap::RpcRequest& request) const override;
  KeyMethod method() const override { return KeyMethod::XmlMessage; }
};

class SerializationKeyGenerator final : public KeyGenerator {
 public:
  CacheKey generate(const soap::RpcRequest& request) const override;
  KeyMethod method() const override { return KeyMethod::Serialization; }
};

class ToStringKeyGenerator final : public KeyGenerator {
 public:
  CacheKey generate(const soap::RpcRequest& request) const override;
  void generate_into(const soap::RpcRequest& request,
                     KeyScratch& scratch) const override;
  KeyMethod method() const override { return KeyMethod::ToString; }
};

/// Factory for a method enum.
std::unique_ptr<KeyGenerator> make_key_generator(KeyMethod method);

}  // namespace wsc::cache
