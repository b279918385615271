// Lightweight precondition / invariant checking.
//
// The library reports contract violations via exceptions (support::Error)
// so that callers — tests, benches, long-running sweeps — can recover or
// report context instead of aborting the whole process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace support {

/// Base error type thrown by all subsystems of this library.
class Error : public std::runtime_error {
 public:
  explicit Error(std::string msg) : std::runtime_error(std::move(msg)) {}
};

/// Thrown when a function argument violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(std::string msg) : Error(std::move(msg)) {}
};

/// Thrown when an internal invariant is violated (a library bug).
class InternalError : public Error {
 public:
  explicit InternalError(std::string msg) : Error(std::move(msg)) {}
};

namespace detail {

/// Concatenate arbitrary streamable values into a string.
template <typename... Args>
std::string concat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

}  // namespace detail

}  // namespace support

/// Check a caller-facing precondition; throws support::InvalidArgument.
#define SM_REQUIRE(cond, ...)                                              \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::support::InvalidArgument(::support::detail::concat(          \
          "precondition failed: ", #cond, " — ", __VA_ARGS__));            \
    }                                                                      \
  } while (false)

/// Check a value that arrives from outside the program (a CLI flag, a
/// request field); throws support::InvalidArgument carrying the message
/// alone, so `error:` lines and served replies read as plain text.
#define SM_CHECK_INPUT(cond, ...)                                          \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::support::InvalidArgument(                                    \
          ::support::detail::concat(__VA_ARGS__));                         \
    }                                                                      \
  } while (false)

/// Check an internal invariant; throws support::InternalError.
#define SM_ENSURE(cond, ...)                                               \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::support::InternalError(::support::detail::concat(            \
          "invariant failed: ", #cond, " — ", __VA_ARGS__));               \
    }                                                                      \
  } while (false)
