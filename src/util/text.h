// Allocation-light text rendering shared by the string builders that
// sit on hot paths (the design text codec and the serve cache keys).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

namespace nocdr {

/// Appends the decimal rendering of \p value to \p out.
inline void AppendUnsigned(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace nocdr
