// Protocol v2 streaming sessions: codec round trips, structured-error
// rejection, session lifecycle, epoch monotonicity and the
// epoch-versioned cert-cache interaction (serve/session,
// serve/protocol, valid/session_campaign).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "deadlock/verify.h"
#include "fault/plan.h"
#include "gen/generators.h"
#include "noc/io.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/session.h"
#include "test_helpers.h"
#include "util/canonical.h"
#include "util/error.h"
#include "valid/session_campaign.h"

namespace nocdr {
namespace {

using serve::CacheOutcome;
using serve::CertificationService;
using serve::CertRequest;
using serve::CertResponse;
using serve::ErrorCode;
using serve::RequestKind;
using serve::ServeStatus;
using serve::ServiceConfig;
using serve::SessionEventSpec;
using serve::SessionOp;
using serve::SessionRequest;
using serve::SessionResponse;
using serve::SessionService;
using serve::SessionServiceConfig;
using testing::MakeRingDesign;
using testing::TempDir;

NocDesign Reparse(const std::string& text) {
  std::istringstream stream(text);
  return ReadDesign(stream);
}

/// A fresh single-threaded service pair for deterministic tests.
struct Stack {
  Stack() : Stack(SessionServiceConfig{}) {}
  explicit Stack(SessionServiceConfig session_config)
      : service(MakeConfig()), sessions(service, session_config) {}

  static ServiceConfig MakeConfig() {
    ServiceConfig config;
    config.threads = 1;
    return config;
  }

  CertificationService service;
  SessionService sessions;
};

SessionRequest OpenText(const NocDesign& design) {
  SessionRequest request;
  request.op = SessionOp::kOpen;
  request.id = "open";
  request.spec.kind = RequestKind::kDesignText;
  request.spec.design_text = DesignText(design);
  request.return_design = true;
  return request;
}

/// A link event naming \p link by its endpoint switch names.
SessionEventSpec LinkEvent(const NocDesign& design, LinkId link) {
  const Link& l = design.topology.LinkAt(link);
  SessionEventSpec spec;
  spec.kind = fault::FaultKind::kLink;
  spec.src = design.topology.SwitchName(l.src);
  spec.dst = design.topology.SwitchName(l.dst);
  return spec;
}

SessionRequest BurstOn(const std::string& session_id,
                       std::vector<SessionEventSpec> events,
                       std::uint64_t expect_epoch) {
  SessionRequest request;
  request.op = SessionOp::kBurst;
  request.id = "burst";
  request.session_id = session_id;
  request.events = std::move(events);
  request.has_expect_epoch = true;
  request.expect_epoch = expect_epoch;
  return request;
}

SessionRequest SnapshotOf(const std::string& session_id) {
  SessionRequest request;
  request.op = SessionOp::kSnapshot;
  request.id = "snap";
  request.session_id = session_id;
  return request;
}

SessionRequest CloseOf(const std::string& session_id) {
  SessionRequest request;
  request.op = SessionOp::kClose;
  request.id = "close";
  request.session_id = session_id;
  return request;
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

void ExpectRoundTrip(const SessionRequest& request) {
  const std::string line = serve::SessionRequestToJsonLine(request);
  const serve::ServeMessage message = serve::ParseMessageLine(line);
  ASSERT_TRUE(message.is_session);
  EXPECT_EQ(serve::SessionRequestToJsonLine(message.session), line);
}

TEST(SessionProtocolTest, AllMessageTypesRoundTrip) {
  SessionRequest open;
  open.op = SessionOp::kOpen;
  open.id = "o1";
  open.spec.kind = RequestKind::kGeneratorSpec;
  open.spec.generator.family = gen::TopologyFamily::kTorus2D;
  open.spec.generator.width = 4;
  open.spec.generator.height = 4;
  open.return_design = true;
  ExpectRoundTrip(open);

  SessionRequest open_seed;
  open_seed.op = SessionOp::kOpen;
  open_seed.spec.kind = RequestKind::kSourceSeed;
  open_seed.spec.source = valid::DesignSource::kMesh;
  open_seed.spec.seed = 42;
  ExpectRoundTrip(open_seed);

  SessionEventSpec link;
  link.kind = fault::FaultKind::kLink;
  link.src = "t0_0";
  link.dst = "t1_0";
  SessionEventSpec dead_switch;
  dead_switch.kind = fault::FaultKind::kSwitch;
  dead_switch.switch_name = "t2_2";

  SessionRequest burst = BurstOn("s1", {link, dead_switch}, 3);
  burst.return_design = true;
  ExpectRoundTrip(burst);
  SessionRequest no_epoch = BurstOn("s1", {link}, 0);
  no_epoch.has_expect_epoch = false;
  ExpectRoundTrip(no_epoch);

  ExpectRoundTrip(SnapshotOf("s9"));
  ExpectRoundTrip(CloseOf("s9"));
}

TEST(SessionProtocolTest, V1LinesStillParseAsStatelessCertify) {
  const serve::ServeMessage message = serve::ParseMessageLine(
      R"({"id":"r1","source":"mesh","seed":5})");
  EXPECT_FALSE(message.is_session);
  EXPECT_EQ(message.certify.protocol_version, serve::kProtocolV1);
  EXPECT_EQ(message.certify.id, "r1");
}

void ExpectProtocolError(const std::string& line, ErrorCode code) {
  try {
    (void)serve::ParseMessageLine(line);
    FAIL() << "line parsed but should have been rejected: " << line;
  } catch (const serve::ProtocolError& e) {
    EXPECT_EQ(e.code(), code) << line;
  }
}

TEST(SessionProtocolTest, RejectsUnknownVersionsTypesAndMalformedFields) {
  // A version this server does not speak, on either message shape.
  ExpectProtocolError(R"({"protocol_version":3,"source":"mesh","seed":1})",
                      ErrorCode::kUnsupportedVersion);
  ExpectProtocolError(R"({"protocol_version":0,"type":"session_open"})",
                      ErrorCode::kUnsupportedVersion);
  // v2 message types the server does not know.
  ExpectProtocolError(R"({"protocol_version":2,"type":"session_reopen"})",
                      ErrorCode::kUnknownType);
  // Typed messages require v2: "type" on a v1 line is malformed.
  ExpectProtocolError(R"({"type":"session_open","source":"mesh","seed":1})",
                      ErrorCode::kInvalidRequest);
  // Session ops without a session id.
  ExpectProtocolError(R"({"protocol_version":2,"type":"fault_burst"})",
                      ErrorCode::kInvalidRequest);
  // Burst events with an unknown kind / missing fields.
  ExpectProtocolError(
      R"({"protocol_version":2,"type":"fault_burst","session":"s1",)"
      R"("events":[{"kind":"router","name":"x"}]})",
      ErrorCode::kInvalidRequest);
  ExpectProtocolError(
      R"({"protocol_version":2,"type":"fault_burst","session":"s1",)"
      R"("events":[{"kind":"link","src":"a"}]})",
      ErrorCode::kInvalidRequest);
  // Open without exactly one design spec.
  ExpectProtocolError(R"({"protocol_version":2,"type":"session_open"})",
                      ErrorCode::kInvalidRequest);
  // Not JSON at all.
  ExpectProtocolError("not json", ErrorCode::kInvalidRequest);
}

TEST(SessionProtocolTest, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode code : serve::kErrorCodeNames.All()) {
    EXPECT_EQ(serve::ParseErrorCode(serve::ErrorCodeName(code)), code);
  }
}

TEST(SessionProtocolTest, DispatcherAnswersMalformedLinesWithStructuredErrors) {
  Stack stack;
  serve::ServeDispatcher dispatcher(stack.service, stack.sessions);
  const std::string reply = dispatcher.HandleLine(
      R"({"protocol_version":2,"type":"session_reopen","id":"x9"})");
  EXPECT_NE(reply.find("\"error\""), std::string::npos);
  EXPECT_NE(reply.find("unknown_type"), std::string::npos);
  EXPECT_NE(reply.find("\"x9\""), std::string::npos);
}

// ---------------------------------------------------------------------
// MaterializeDesign — the one entry point sessions and stateless
// serves share.
// ---------------------------------------------------------------------

TEST(MaterializeDesignTest, AllThreeSpecKindsMaterialize) {
  const valid::DesignEnvelope envelope;
  serve::DesignSpec text_spec;
  text_spec.kind = RequestKind::kDesignText;
  text_spec.design_text = DesignText(MakeRingDesign(6));
  const NocDesign from_text =
      serve::MaterializeDesign(text_spec, envelope);
  EXPECT_EQ(from_text.topology.SwitchCount(), 6u);

  serve::DesignSpec gen_spec;
  gen_spec.kind = RequestKind::kGeneratorSpec;
  gen_spec.generator.family = gen::TopologyFamily::kMesh2D;
  gen_spec.generator.width = 3;
  gen_spec.generator.height = 3;
  NextHopTable table;
  const NocDesign from_gen =
      serve::MaterializeDesign(gen_spec, envelope, &table);
  EXPECT_EQ(from_gen.topology.SwitchCount(), 9u);
  EXPECT_FALSE(table.empty());

  serve::DesignSpec seed_spec;
  seed_spec.kind = RequestKind::kSourceSeed;
  seed_spec.source = valid::DesignSource::kRing;
  seed_spec.seed = 11;
  const NocDesign from_seed =
      serve::MaterializeDesign(seed_spec, envelope, &table);
  EXPECT_GT(from_seed.topology.SwitchCount(), 0u);

  serve::DesignSpec bad;
  bad.kind = RequestKind::kDesignText;
  bad.design_text = "not a design";
  EXPECT_THROW((void)serve::MaterializeDesign(bad, envelope),
               DesignParseError);
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

TEST(SessionServiceTest, OpenBurstSnapshotCloseLifecycle) {
  Stack stack;
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kMesh2D;
  spec.width = 4;
  spec.height = 4;
  SessionRequest open_request;
  open_request.op = SessionOp::kOpen;
  open_request.spec.kind = RequestKind::kGeneratorSpec;
  open_request.spec.generator = spec;
  open_request.return_design = true;

  const SessionResponse open = stack.sessions.Handle(open_request);
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  EXPECT_EQ(open.session_id, "s1");
  EXPECT_EQ(open.epoch, 0u);
  EXPECT_TRUE(open.deadlock_free);
  ASSERT_FALSE(open.design_text.empty());

  // Two bursts: the epoch advances by exactly one each, the key moves,
  // and every epoch's certificate checks against its design.
  const NocDesign epoch0 = Reparse(open.design_text);
  std::uint64_t epoch = 0;
  std::uint64_t last_key = open.key;
  for (const std::size_t link : {std::size_t{0}, std::size_t{5}}) {
    const SessionResponse reply = stack.sessions.Handle(BurstOn(
        open.session_id, {LinkEvent(epoch0, LinkId(link))}, epoch));
    ASSERT_EQ(reply.status, ServeStatus::kOk) << reply.error.message;
    ASSERT_TRUE(reply.feasible);
    ++epoch;
    EXPECT_EQ(reply.epoch, epoch);
    EXPECT_NE(reply.key, last_key);
    EXPECT_TRUE(reply.deadlock_free);
    last_key = reply.key;
  }

  const SessionResponse snapshot =
      stack.sessions.Handle(SnapshotOf(open.session_id));
  ASSERT_EQ(snapshot.status, ServeStatus::kOk);
  EXPECT_EQ(snapshot.epoch, epoch);
  EXPECT_EQ(snapshot.key, last_key);
  EXPECT_EQ(snapshot.failed_links, 2u);
  EXPECT_EQ(snapshot.bursts_applied, 2u);
  ASSERT_FALSE(snapshot.design_text.empty());
  const DeadlockCertificate certificate =
      CertificateFromJson(snapshot.certificate_json);
  EXPECT_TRUE(CheckCertificate(
      CanonicalizeDesign(Reparse(snapshot.design_text)).design,
      certificate));

  const SessionResponse closed =
      stack.sessions.Handle(CloseOf(open.session_id));
  EXPECT_EQ(closed.status, ServeStatus::kOk);
  EXPECT_EQ(closed.bursts_applied, 2u);

  const serve::SessionServiceStats stats = stack.sessions.Stats();
  EXPECT_EQ(stats.opened, 1u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.live_sessions, 0u);
  EXPECT_EQ(stats.bursts_applied, 2u);
}

TEST(SessionServiceTest, LifecycleViolationsAreStructuredErrors) {
  Stack stack;
  const SessionResponse ghost =
      stack.sessions.Handle(SnapshotOf("s404"));
  EXPECT_EQ(ghost.status, ServeStatus::kError);
  EXPECT_EQ(ghost.error.code, ErrorCode::kUnknownSession);

  const SessionResponse open =
      stack.sessions.Handle(OpenText(MakeRingDesign(8)));
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  const NocDesign design = Reparse(open.design_text);

  // Empty burst.
  const SessionResponse empty =
      stack.sessions.Handle(BurstOn(open.session_id, {}, 0));
  EXPECT_EQ(empty.status, ServeStatus::kError);
  EXPECT_EQ(empty.error.code, ErrorCode::kInvalidRequest);

  // Unknown switch names resolve to nothing; the burst is rejected
  // atomically before any state changes.
  SessionEventSpec bogus;
  bogus.kind = fault::FaultKind::kSwitch;
  bogus.switch_name = "no_such_switch";
  const SessionResponse unresolved =
      stack.sessions.Handle(BurstOn(open.session_id, {bogus}, 0));
  EXPECT_EQ(unresolved.status, ServeStatus::kError);
  EXPECT_EQ(unresolved.error.code, ErrorCode::kInvalidRequest);

  // Stale optimistic-concurrency epoch; the error echoes the actual
  // epoch so clients can resync.
  const SessionResponse stale = stack.sessions.Handle(
      BurstOn(open.session_id, {LinkEvent(design, LinkId(0))}, 7));
  EXPECT_EQ(stale.status, ServeStatus::kError);
  EXPECT_EQ(stale.error.code, ErrorCode::kStaleEpoch);
  EXPECT_EQ(stale.epoch, 0u);

  // The session is unharmed by any of the above.
  const SessionResponse snapshot =
      stack.sessions.Handle(SnapshotOf(open.session_id));
  ASSERT_EQ(snapshot.status, ServeStatus::kOk);
  EXPECT_EQ(snapshot.epoch, 0u);
  EXPECT_EQ(snapshot.failed_links, 0u);

  // Close, then everything on the dead session is unknown_session.
  EXPECT_EQ(stack.sessions.Handle(CloseOf(open.session_id)).status,
            ServeStatus::kOk);
  EXPECT_EQ(stack.sessions.Handle(CloseOf(open.session_id)).error.code,
            ErrorCode::kUnknownSession);
  EXPECT_EQ(stack.sessions.Handle(SnapshotOf(open.session_id)).error.code,
            ErrorCode::kUnknownSession);
  EXPECT_EQ(stack.sessions
                .Handle(BurstOn(open.session_id,
                                {LinkEvent(design, LinkId(0))}, 0))
                .error.code,
            ErrorCode::kUnknownSession);
}

TEST(SessionServiceTest, SessionLimitBoundsOpensUntilAClose) {
  SessionServiceConfig config;
  config.max_sessions = 1;
  Stack stack(config);
  const NocDesign design = MakeRingDesign(6);
  const SessionResponse first = stack.sessions.Handle(OpenText(design));
  ASSERT_EQ(first.status, ServeStatus::kOk);

  const SessionResponse rejected = stack.sessions.Handle(OpenText(design));
  EXPECT_EQ(rejected.status, ServeStatus::kError);
  EXPECT_EQ(rejected.error.code, ErrorCode::kSessionLimit);
  EXPECT_EQ(stack.sessions.Stats().open_rejected, 1u);

  EXPECT_EQ(stack.sessions.Handle(CloseOf(first.session_id)).status,
            ServeStatus::kOk);
  EXPECT_EQ(stack.sessions.Handle(OpenText(design)).status,
            ServeStatus::kOk);
}

// ---------------------------------------------------------------------
// Epochs and the cert cache
// ---------------------------------------------------------------------

TEST(SessionServiceTest, InfeasibleBurstIsAnAnswerNotAnEpoch) {
  Stack stack;
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kMesh2D;
  spec.width = 3;
  spec.height = 3;
  SessionRequest open_request;
  open_request.op = SessionOp::kOpen;
  open_request.spec.kind = RequestKind::kGeneratorSpec;
  open_request.spec.generator = spec;
  open_request.return_design = true;
  const SessionResponse open = stack.sessions.Handle(open_request);
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  const NocDesign design = Reparse(open.design_text);

  // Kill a switch with cores attached: its flows cannot re-route, so
  // the burst must be rejected atomically with named witnesses.
  SessionEventSpec kill;
  kill.kind = fault::FaultKind::kSwitch;
  kill.switch_name = design.topology.SwitchName(design.attachment.front());
  const SessionResponse reply =
      stack.sessions.Handle(BurstOn(open.session_id, {kill}, 0));
  ASSERT_EQ(reply.status, ServeStatus::kOk) << reply.error.message;
  EXPECT_FALSE(reply.feasible);
  EXPECT_FALSE(reply.disconnected_flows.empty());
  EXPECT_EQ(reply.epoch, 0u);
  EXPECT_EQ(reply.key, open.key);
  EXPECT_EQ(reply.certificate_json, open.certificate_json);

  // Nothing changed: the session still answers epoch-0 state and a
  // feasible burst still applies afterwards.
  const SessionResponse snapshot =
      stack.sessions.Handle(SnapshotOf(open.session_id));
  EXPECT_EQ(snapshot.epoch, 0u);
  EXPECT_EQ(snapshot.failed_switches, 0u);
  EXPECT_EQ(stack.sessions.Stats().bursts_infeasible, 1u);
}

TEST(SessionServiceTest, EveryEpochIsServableAndNeverStale) {
  Stack stack;
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kMesh2D;
  spec.width = 4;
  spec.height = 4;
  const SessionResponse open =
      stack.sessions.Handle(OpenText(gen::GenerateStandardDesign(spec)));
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  const NocDesign epoch0 = Reparse(open.design_text);

  SessionRequest burst =
      BurstOn(open.session_id, {LinkEvent(epoch0, LinkId(0))}, 0);
  burst.return_design = true;
  const SessionResponse reply = stack.sessions.Handle(burst);
  ASSERT_EQ(reply.status, ServeStatus::kOk) << reply.error.message;
  ASSERT_TRUE(reply.feasible);
  ASSERT_NE(reply.key, open.key);

  // The current epoch's design serves as a cache hit with the
  // session's exact certificate...
  CertRequest current;
  current.kind = RequestKind::kDesignText;
  current.design_text = reply.design_text;
  const CertResponse warm = stack.service.Serve(current);
  ASSERT_EQ(warm.status, ServeStatus::kOk);
  EXPECT_EQ(warm.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.key, reply.key);
  EXPECT_EQ(warm.certificate_json, reply.certificate_json);

  // ...and the *old* epoch's design still serves its *old* certificate
  // — content addressing means a stale certificate can never shadow a
  // fresh one (or vice versa); they are different keys.
  CertRequest old;
  old.kind = RequestKind::kDesignText;
  old.design_text = open.design_text;
  const CertResponse old_reply = stack.service.Serve(old);
  ASSERT_EQ(old_reply.status, ServeStatus::kOk);
  EXPECT_EQ(old_reply.key, open.key);
  EXPECT_EQ(old_reply.certificate_json, open.certificate_json);
  EXPECT_NE(old_reply.key, warm.key);
}

// ---------------------------------------------------------------------
// Publishing from the live proof
// ---------------------------------------------------------------------

/// \p burst as protocol events naming \p design's switches.
std::vector<SessionEventSpec> EventSpecs(const NocDesign& design,
                                         const fault::FaultBurst& burst) {
  std::vector<SessionEventSpec> events;
  for (const fault::FaultEvent& event : burst) {
    if (event.kind == fault::FaultKind::kLink) {
      events.push_back(LinkEvent(design, event.link));
    } else {
      SessionEventSpec spec;
      spec.kind = fault::FaultKind::kSwitch;
      spec.switch_name = design.topology.SwitchName(event.switch_id);
      events.push_back(spec);
    }
  }
  return events;
}

void ExpectSameCachedValue(const serve::CachedCertification& got,
                           const serve::CachedCertification& want) {
  EXPECT_EQ(got.certificate_json, want.certificate_json);
  EXPECT_EQ(got.treated_design_text, want.treated_design_text);
  EXPECT_EQ(got.deadlock_free, want.deadlock_free);
  EXPECT_EQ(got.initially_deadlock_free, want.initially_deadlock_free);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.vcs_added, want.vcs_added);
  EXPECT_EQ(got.flows_rerouted, want.flows_rerouted);
  EXPECT_EQ(got.channels_before, want.channels_before);
  EXPECT_EQ(got.channels_after, want.channels_after);
}

TEST(SessionPublishTest, PublishedEpochsEqualAFromScratchComputation) {
  TempDir dir;
  ServiceConfig config;
  config.threads = 1;
  config.cache_dir = dir.path();
  gen::GeneratorSpec spec;
  spec.family = gen::TopologyFamily::kTorus2D;
  spec.width = 6;
  spec.height = 5;
  spec.uniform_fanout = 4;
  spec.seed = 3;
  SessionRequest open_request;
  open_request.op = SessionOp::kOpen;
  open_request.spec.kind = RequestKind::kGeneratorSpec;
  open_request.spec.generator = spec;
  open_request.return_design = true;

  CertRequest publish_request;
  publish_request.treat = true;
  // Every distinct key the service stores: the open's treatment of the
  // generated design, then each published epoch.
  std::set<std::uint64_t> keys = {CanonicalDesignDigest(
      gen::GenerateStandardDesign(spec), publish_request.options)};
  std::string last_text;
  std::string last_certificate;
  std::uint64_t last_key = 0;
  {
    CertificationService service(config);
    SessionService sessions(service);
    // Two sessions of one design stream the same bursts, so each epoch
    // is published twice; the second publish must find the first.
    const SessionResponse first = sessions.Handle(open_request);
    const SessionResponse second = sessions.Handle(open_request);
    ASSERT_EQ(first.status, ServeStatus::kOk) << first.error.message;
    ASSERT_EQ(second.status, ServeStatus::kOk) << second.error.message;
    EXPECT_EQ(first.key, second.key);
    EXPECT_EQ(first.certificate_json, second.certificate_json);

    const auto expect_published = [&](const SessionResponse& reply) {
      const CanonicalDesign canonical =
          CanonicalizeDesign(Reparse(reply.design_text));
      const CertificationService::Published published = service.Publish(
          canonical.text, publish_request, [] {
            ADD_FAILURE() << "the epoch was not published";
            return serve::CachedCertification{};
          });
      EXPECT_EQ(published.key, reply.key);
      EXPECT_EQ(published.value->certificate_json, reply.certificate_json);
      ExpectSameCachedValue(
          *published.value,
          serve::ComputeCertification(canonical.design, publish_request));
      keys.insert(reply.key);
      last_text = reply.design_text;
      last_certificate = reply.certificate_json;
      last_key = reply.key;
    };
    expect_published(first);

    const NocDesign epoch0 = Reparse(first.design_text);
    fault::FaultPlanOptions plan_options;
    plan_options.bursts = 5;
    const fault::FaultPlan plan = fault::DrawFaultPlan(epoch0, 8, plan_options);
    std::uint64_t epoch = 0;
    std::size_t feasible = 0;
    for (const fault::FaultBurst& burst : plan.bursts) {
      if (burst.empty()) {
        continue;
      }
      SessionRequest request =
          BurstOn(first.session_id, EventSpecs(epoch0, burst), epoch);
      request.return_design = true;
      const SessionResponse a = sessions.Handle(request);
      request.session_id = second.session_id;
      const SessionResponse b = sessions.Handle(request);
      ASSERT_EQ(a.status, ServeStatus::kOk) << a.error.message;
      ASSERT_EQ(b.status, ServeStatus::kOk) << b.error.message;
      ASSERT_EQ(a.feasible, b.feasible);
      if (!a.feasible) {
        continue;
      }
      ++feasible;
      epoch = a.epoch;
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.certificate_json, b.certificate_json);
      expect_published(a);
    }
    EXPECT_GT(feasible, 1u);
    // One disk record per distinct key: the second session's publishes
    // all found the first session's entries.
    const serve::ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.disk.insertions, keys.size());
    EXPECT_EQ(stats.disk.entries, keys.size());
  }

  // A restarted service over the same directory: a stateless serve of
  // the last epoch's text is a disk hit with the session's certificate.
  CertificationService restarted(config);
  CertRequest stateless;
  stateless.kind = RequestKind::kDesignText;
  stateless.design_text = last_text;
  const CertResponse warm = restarted.Serve(stateless);
  ASSERT_EQ(warm.status, ServeStatus::kOk) << warm.error.message;
  EXPECT_EQ(warm.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.key, last_key);
  EXPECT_EQ(warm.certificate_json, last_certificate);
  EXPECT_EQ(restarted.Stats().disk.hits, 1u);
}

TEST(SessionPublishTest, PublishesAreNotRequests) {
  const auto publish_count = [] {
    for (const auto& [name, snapshot] : obs::Metrics().Snapshot().histograms) {
      if (name == "session.publish_us") {
        return snapshot.count;
      }
    }
    return std::uint64_t{0};
  };
  const std::uint64_t publishes_before = publish_count();
  Stack stack;
  const SessionResponse open =
      stack.sessions.Handle(OpenText(MakeRingDesign(8)));
  ASSERT_EQ(open.status, ServeStatus::kOk) << open.error.message;
  const NocDesign design = Reparse(open.design_text);
  std::uint64_t epoch = 0;
  for (const std::size_t link : {std::size_t{1}, std::size_t{4}}) {
    const SessionResponse reply = stack.sessions.Handle(
        BurstOn(open.session_id, {LinkEvent(design, LinkId(link))}, epoch));
    ASSERT_EQ(reply.status, ServeStatus::kOk) << reply.error.message;
    epoch = reply.epoch;
  }
  EXPECT_EQ(stack.sessions.Handle(SnapshotOf(open.session_id)).status,
            ServeStatus::kOk);
  EXPECT_EQ(stack.sessions.Handle(CloseOf(open.session_id)).status,
            ServeStatus::kOk);
  CertRequest stateless;
  stateless.kind = RequestKind::kDesignText;
  stateless.design_text = open.design_text;
  EXPECT_EQ(stack.service.Serve(stateless).cache_outcome, CacheOutcome::kHit);

  // Two requests: the open's treatment and the stateless serve. The
  // open's and the bursts' publishes are not requests.
  const serve::ServiceStats stats = stack.service.Stats();
  EXPECT_EQ(stats.requests, stats.hits + stats.computations + stats.coalesced +
                                stats.rejected + stats.errors);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(publish_count() - publishes_before, 1 + epoch);
}

// ---------------------------------------------------------------------
// Determinism and the differential campaign
// ---------------------------------------------------------------------

TEST(SessionServiceTest, ResponseDigestIsReproducible) {
  std::vector<std::uint64_t> digests;
  for (int run = 0; run < 2; ++run) {
    Stack stack;
    std::vector<SessionResponse> responses;
    const SessionResponse open =
        stack.sessions.Handle(OpenText(MakeRingDesign(8)));
    responses.push_back(open);
    const NocDesign design = Reparse(open.design_text);
    responses.push_back(stack.sessions.Handle(
        BurstOn(open.session_id, {LinkEvent(design, LinkId(2))}, 0)));
    responses.push_back(stack.sessions.Handle(SnapshotOf(open.session_id)));
    responses.push_back(stack.sessions.Handle(CloseOf(open.session_id)));
    digests.push_back(serve::SessionResponseDigest(responses));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(SessionCampaignTest, SmallCampaignHasNoMismatchesAndStableDigest) {
  valid::SessionCampaignConfig config;
  config.trials = 10;
  config.base_seed = 11;
  config.threads = 2;
  const valid::SessionCampaignResult result =
      valid::RunSessionCampaign(config);
  EXPECT_EQ(result.mismatches, 0u)
      << result.rows.front().mismatch;
  for (const valid::SessionTrialRow& row : result.rows) {
    EXPECT_NE(row.verdict, valid::SessionVerdict::kMismatch)
        << "trial " << row.trial_index << ": " << row.mismatch;
  }

  valid::SessionCampaignConfig serial = config;
  serial.threads = 1;
  EXPECT_EQ(valid::RunSessionCampaign(serial).digest, result.digest);
}

}  // namespace
}  // namespace nocdr
