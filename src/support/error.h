#pragma once

#include <stdexcept>
#include <string>

#include "support/strings.h"

namespace amdrel {

/// Library-wide exception type. All invariant violations and user errors
/// (bad source programs, infeasible mappings, ...) surface as Error.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws Error with the given message.
[[noreturn]] void fail(const std::string& msg);

namespace detail {
// The failing half of require(), kept out of line so a passing check
// inlines to a single branch.
template <typename... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void fail_cat(const Parts&... parts) {
  fail(cat(parts...));
}
}  // namespace detail

/// Throws Error(cat(parts...)) unless cond holds. Used for precondition
/// checks that must stay active in release builds (assert() is reserved
/// for internal consistency checks that are free to compile out). The
/// parts are formatted only when the check fails, so pass them as
/// separate arguments (require(ok, "bad id ", id)) rather than building
/// the message up front.
template <typename... Parts>
inline void require(bool cond, const Parts&... parts) {
  if (!cond) detail::fail_cat(parts...);
}

}  // namespace amdrel
