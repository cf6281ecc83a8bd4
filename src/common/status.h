// Lightweight Status / Result<T> types for recoverable errors.
//
// Modeled after absl::Status but self-contained: os-systems code in this
// repository never throws; fallible operations return Status or Result<T>.
// Both are [[nodiscard]]: a caller that drops one on purpose casts it to
// (void) next to a comment saying why.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace mtm {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kUnavailable,        // transient: the operation may succeed if retried
  kDeadlineExceeded,   // the operation ran out of (simulated) time budget
};

const char* StatusCodeName(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }
  bool operator!=(const Status& other) const { return !(*this == other); }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFoundError(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
inline Status AlreadyExistsError(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status OutOfRangeError(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status ResourceExhaustedError(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status InternalError(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
inline Status UnimplementedError(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status UnavailableError(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status DeadlineExceededError(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}
inline bool IsUnavailable(const Status& s) { return s.code() == StatusCode::kUnavailable; }
inline bool IsDeadlineExceeded(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded;
}

// Result<T> holds either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT: implicit by design
    MTM_CHECK(!status_.ok()) << "Result constructed from OK status without a value";
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    MTM_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    MTM_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    MTM_CHECK(ok()) << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace mtm

#define MTM_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::mtm::Status _status = (expr);          \
    if (!_status.ok()) {                     \
      return _status;                        \
    }                                        \
  } while (false)
