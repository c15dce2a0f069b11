// Lightweight status / result types used at module boundaries.
//
// The Duet API in the paper mirrors POSIX syscalls (int return codes). We keep
// that flavour for the public Duet calls but use StatusCode/Result internally
// so call sites cannot ignore failure modes accidentally.
#ifndef SRC_UTIL_STATUS_H_
#define SRC_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace duet {

enum class StatusCode {
  kOk = 0,
  kNotFound,        // object does not exist (ENOENT)
  kExists,          // object already exists (EEXIST)
  kInvalidArgument, // bad parameter (EINVAL)
  kNoSpace,         // device or table full (ENOSPC)
  kBusy,            // resource busy (EBUSY)
  kLimit,           // a configured limit was reached
  kCorruption,      // checksum mismatch or invariant violation detected
  kPermission,      // access denied (EACCES)
  kNotSupported,    // operation not implemented for this object
  kIoError,         // device-level I/O failure (EIO), e.g. latent sector error
};

class Status;

// True for failures that a bounded retry-with-backoff may clear (transient
// device conditions), as opposed to hard errors like corruption.
bool IsTransient(const Status& status);

// Human-readable name for a status code, for logs and test failures.
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  explicit Status(StatusCode code) : code_(code) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    std::string s = StatusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> is either a value or an error status. Accessing the value of an
// error result is a programming bug (asserted).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "ok status requires a value");
  }
  Result(StatusCode code) : status_(code) {  // NOLINT
    assert(code != StatusCode::kOk && "ok status requires a value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace duet

#endif  // SRC_UTIL_STATUS_H_
