// Exception types and invariant-checking helpers used across the library.
#pragma once

#include <concepts>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace nocdr {

/// Raised when an input model violates a structural precondition
/// (dangling ids, discontiguous routes, malformed graphs, ...).
class InvalidModelError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Raised when an algorithm exceeds a safety bound (e.g. the deadlock
/// removal iteration cap). Indicates a heuristic livelock, never observed
/// on well-formed inputs but guarded against.
class AlgorithmLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Require is called on hot paths (per table entry, per simulator event),
// so a passing check must cost one branch and nothing else: no formatted
// message is built on the success path. A literal message goes in as a
// `const char*`; a message that needs formatting goes in as a callable
// that returns it, invoked only when the check fails:
//
//   Require(ok, "Route: empty");
//   Require(ok, [&] { return "Route: bad hop " + std::to_string(i); });
//
// There is deliberately no std::string overload, so an eagerly built
// message (`"..." + std::to_string(i)`) does not compile.

/// Throws InvalidModelError with \p message unless \p condition holds.
inline void Require(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throw InvalidModelError(message);
  }
}

/// Throws InvalidModelError with make_message() unless \p condition
/// holds; \p make_message is not invoked when the check passes.
template <typename MakeMessage>
  requires std::invocable<MakeMessage&> &&
           std::convertible_to<std::invoke_result_t<MakeMessage&>,
                               std::string>
inline void Require(bool condition, MakeMessage&& make_message) {
  if (!condition) [[unlikely]] {
    throw InvalidModelError(std::string(make_message()));
  }
}

}  // namespace nocdr
