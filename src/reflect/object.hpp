// Type-erased handle to an application object: shared_ptr<void> + TypeInfo.
//
// This is the currency of the whole system — the deserializer produces
// Objects, the cache stores (copies of) Objects, the client stub returns
// them.  Sharing vs. copying of the underlying storage is exactly the
// side-effect question of section 3.1: `Object` copies share, and it is the
// cache-value representation's job to deep-copy when required.
#pragma once

#include <atomic>
#include <memory>
#include <utility>

#include "reflect/registry.hpp"
#include "reflect/type_info.hpp"
#include "util/error.hpp"

namespace wsc::reflect {

class Object {
 public:
  /// Null object (e.g. a void operation's response).
  Object() = default;

  Object(std::shared_ptr<void> data, const TypeInfo* type)
      : data_(std::move(data)), type_(type) {
    if ((data_ == nullptr) != (type_ == nullptr))
      throw ReflectionError("Object: data and type must be both set or both null");
  }

  /// Wrap an existing shared instance of a registered type.
  template <typename T>
  static Object wrap(std::shared_ptr<T> value) {
    return Object(std::static_pointer_cast<void>(std::move(value)),
                  &type_of<T>());
  }

  /// Move/copy a value into fresh shared storage.
  template <typename T>
  static Object make(T value) {
    return wrap(std::make_shared<T>(std::move(value)));
  }

  bool is_null() const noexcept { return data_ == nullptr; }
  explicit operator bool() const noexcept { return !is_null(); }

  const TypeInfo& type() const {
    if (!type_) throw ReflectionError("Object: type() on null object");
    return *type_;
  }
  const TypeInfo* type_ptr() const noexcept { return type_; }

  void* data() const noexcept { return data_.get(); }
  const std::shared_ptr<void>& storage() const noexcept { return data_; }

  /// Checked typed access.  Throws ReflectionError on type mismatch.
  template <typename T>
  T& as() const {
    require_type(&type_of<T>());
    return *static_cast<T*>(data_.get());
  }

  /// Checked typed extraction that consumes this handle: moves the value
  /// out when this handle is the storage's only owner (a fresh object a
  /// representation built for this caller alone), copies it otherwise (a
  /// pass-by-reference entry still shared with the cache).  Either way the
  /// caller owns the result and the storage is released.
  template <typename T>
  T take() && {
    T& value = as<T>();
    std::shared_ptr<void> storage = std::move(data_);
    type_ = nullptr;
    if (storage.use_count() == 1) {
      // use_count() is a relaxed load.  Every former co-owner released its
      // reference with a release decrement after its last access to the
      // value; this acquire fence pairs with those decrements, so their
      // reads and writes happen-before the move below.
#if defined(__SANITIZE_THREAD__)
      // ThreadSanitizer does not model fences.  Taking and dropping a
      // reference is an acquire read-modify-write on the same counter,
      // which gives it the same edge in a form it sees.
      std::shared_ptr<void>(storage).reset();
#else
      std::atomic_thread_fence(std::memory_order_acquire);
#endif
      return std::move(value);
    }
    return value;
  }

  /// Number of co-owners of the storage (used by tests to prove whether a
  /// representation shared or copied).
  long use_count() const noexcept { return data_.use_count(); }

 private:
  void require_type(const TypeInfo* expected) const {
    if (is_null()) throw ReflectionError("Object: as<>() on null object");
    if (type_ != expected)
      throw ReflectionError("Object: type mismatch, have '" + type_->name +
                            "', want '" + expected->name + "'");
  }

  std::shared_ptr<void> data_;
  const TypeInfo* type_ = nullptr;
};

}  // namespace wsc::reflect
