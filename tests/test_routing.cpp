// Unit tests for routes and route validation.
#include "noc/routing.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace nocdr {
namespace {

class RoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = topo_.AddSwitch("A");
    b_ = topo_.AddSwitch("B");
    c_ = topo_.AddSwitch("C");
    ab_ = topo_.AddLink(a_, b_);
    bc_ = topo_.AddLink(b_, c_);
    ca_ = topo_.AddLink(c_, a_);
    cab_ = *topo_.FindChannel(ab_, 0);
    cbc_ = *topo_.FindChannel(bc_, 0);
    cca_ = *topo_.FindChannel(ca_, 0);
  }

  TopologyGraph topo_;
  SwitchId a_, b_, c_;
  LinkId ab_, bc_, ca_;
  ChannelId cab_, cbc_, cca_;
};

TEST_F(RoutingTest, ValidTwoHopRoute) {
  EXPECT_NO_THROW(ValidateRoute(topo_, {cab_, cbc_}, a_, c_, "t"));
}

TEST_F(RoutingTest, EmptyRouteSameSwitchOk) {
  EXPECT_NO_THROW(ValidateRoute(topo_, {}, a_, a_, "t"));
}

TEST_F(RoutingTest, EmptyRouteDistinctSwitchesRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {}, a_, b_, "t"), InvalidModelError);
}

TEST_F(RoutingTest, WrongStartRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {cbc_}, a_, c_, "t"), InvalidModelError);
}

TEST_F(RoutingTest, WrongEndRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {cab_}, a_, c_, "t"), InvalidModelError);
}

TEST_F(RoutingTest, DiscontiguousRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {cab_, cca_}, a_, a_, "t"),
               InvalidModelError);
}

TEST_F(RoutingTest, RepeatedChannelRejected) {
  // A full loop around the triangle and once more over ab.
  EXPECT_THROW(
      ValidateRoute(topo_, {cab_, cbc_, cca_, cab_}, a_, b_, "t"),
      InvalidModelError);
}

TEST_F(RoutingTest, UnknownChannelRejected) {
  EXPECT_THROW(ValidateRoute(topo_, {ChannelId(99u)}, a_, b_, "t"),
               InvalidModelError);
}

TEST_F(RoutingTest, FullCycleRouteIsValidIfDistinctChannels) {
  // a -> b -> c -> a uses three distinct channels: structurally fine
  // (the CDG analysis decides whether it is safe, not route validation).
  EXPECT_NO_THROW(ValidateRoute(topo_, {cab_, cbc_, cca_}, a_, a_, "t"));
}

TEST_F(RoutingTest, RouteSetAccessors) {
  RouteSet rs(2);
  EXPECT_EQ(rs.FlowCount(), 2u);
  rs.SetRoute(FlowId(0u), {cab_});
  EXPECT_EQ(rs.RouteOf(FlowId(0u)).size(), 1u);
  EXPECT_TRUE(rs.RouteOf(FlowId(1u)).empty());
  rs.MutableRouteOf(FlowId(1u)).push_back(cbc_);
  EXPECT_EQ(rs.RouteOf(FlowId(1u)).size(), 1u);
}

TEST_F(RoutingTest, RouteSetOutOfRangeThrows) {
  RouteSet rs(1);
  EXPECT_THROW((void)rs.RouteOf(FlowId(1u)), InvalidModelError);
  EXPECT_THROW(rs.SetRoute(FlowId(), {}), InvalidModelError);
}

TEST_F(RoutingTest, ResizeGrows) {
  RouteSet rs;
  EXPECT_EQ(rs.FlowCount(), 0u);
  rs.Resize(3);
  EXPECT_EQ(rs.FlowCount(), 3u);
}

/// The message ValidateRoute throws for \p route, or "" when it passes.
std::string RouteError(const TopologyGraph& topo, const Route& route) {
  try {
    const SwitchId src = topo.LinkAt(topo.ChannelAt(route.front()).link).src;
    ValidateRoute(topo, route, src, SwitchId(0u), "t");
  } catch (const InvalidModelError& e) {
    return e.what();
  }
  return "";
}

TEST_F(RoutingTest, FirstBadHopNamesTheErrorOnShortAndLongRoutes) {
  const std::string repeats = "t: route repeats a channel (routing loop)";
  const std::string unknown = "t: route references unknown channel";
  const ChannelId bogus(999u);
  EXPECT_EQ(RouteError(topo_, {cab_, cbc_, cab_, bogus}), repeats);
  EXPECT_EQ(RouteError(topo_, {cab_, cbc_, bogus, cab_}), unknown);
  EXPECT_EQ(RouteError(topo_, {cab_, bogus, bogus}), unknown);

  // Past the quadratic scan's length: 40 distinct VCs of one link.
  Route distinct;
  distinct.push_back(cab_);
  while (distinct.size() < 40) {
    distinct.push_back(topo_.AddVirtualChannel(ab_));
  }
  Route repeat_first = distinct;
  repeat_first.push_back(distinct[5]);
  repeat_first.push_back(bogus);
  EXPECT_EQ(RouteError(topo_, repeat_first), repeats);
  Route unknown_first = distinct;
  unknown_first.push_back(bogus);
  unknown_first.push_back(distinct[5]);
  EXPECT_EQ(RouteError(topo_, unknown_first), unknown);
  Route late_repeat = distinct;
  late_repeat.push_back(distinct.back());
  EXPECT_EQ(RouteError(topo_, late_repeat), repeats);
}

}  // namespace
}  // namespace nocdr
