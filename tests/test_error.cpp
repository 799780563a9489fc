// Require's contract: a passing check builds no message, a failing one
// throws InvalidModelError with the message, and an eagerly built
// std::string message does not compile.
#include "util/error.h"

#include <gtest/gtest.h>

#include <string>

namespace nocdr {
namespace {

template <typename Message>
concept RequireAccepts = requires(Message message) { Require(true, message); };

static_assert(RequireAccepts<const char*>);
static_assert(RequireAccepts<std::string (*)()>);
static_assert(!RequireAccepts<std::string>,
              "an eager std::string message must not compile");

TEST(RequireTest, LazyMessageIsNotBuiltWhenTheCheckPasses) {
  int calls = 0;
  const auto make_message = [&] {
    ++calls;
    return std::string("never");
  };
  Require(true, make_message);
  EXPECT_EQ(calls, 0);
}

TEST(RequireTest, LazyMessageIsBuiltOnceWhenTheCheckFails) {
  int calls = 0;
  const int hop = 7;
  try {
    Require(false, [&] {
      ++calls;
      return "route: bad hop " + std::to_string(hop);
    });
    FAIL() << "Require(false, ...) did not throw";
  } catch (const InvalidModelError& e) {
    EXPECT_STREQ(e.what(), "route: bad hop 7");
  }
  EXPECT_EQ(calls, 1);
}

TEST(RequireTest, LiteralMessageThrowsInvalidModelError) {
  EXPECT_NO_THROW(Require(true, "unused"));
  try {
    Require(false, "EventQueue::Top: queue is empty");
    FAIL() << "Require(false, ...) did not throw";
  } catch (const InvalidModelError& e) {
    EXPECT_STREQ(e.what(), "EventQueue::Top: queue is empty");
  }
}

}  // namespace
}  // namespace nocdr
