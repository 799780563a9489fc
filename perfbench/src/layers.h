// Pieces the workloads share: the service's miss path replayed one layer
// per span, the correctness checks on served payloads, and the readers
// that turn spans, service statistics and the library's own histograms
// into per-layer metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "deadlock/removal.h"
#include "harness.h"
#include "serve/service.h"

namespace perfbench {

/// Counts from the removal calls a traced phase made.
struct RemovalTally {
  std::uint64_t calls = 0;
  std::uint64_t iterations = 0;
  std::uint64_t vcs_added = 0;
  std::uint64_t bfs_runs = 0;

  void Add(const nocdr::RemovalReport& report);
  /// deadlock.iterations, deadlock.vcs_added, cdg.bfs_runs (means per
  /// removal call) and cdg.bfs_per_iteration.
  void Report(PhaseResult& result) const;
};

/// What the replay of one request's miss path produced: the treated
/// design in the channel numbering its certificate uses, and its text.
struct Replay {
  nocdr::NocDesign treated;
  std::string design_text;
  std::string certificate_json;
};

/// Calls the layers CertificationService::Serve runs for \p request, in
/// its order, one span each (none when \p spans is null): materialize
/// (gen / valid / noc.parse by request kind), canonical, and with
/// \p compute also deadlock.removal, deadlock.certify and serialize
/// (ComputeCertification's steps).
Replay ReplayServePath(SpanRecorder* spans, std::uint64_t op,
                       const nocdr::serve::CertRequest& request,
                       const nocdr::valid::DesignEnvelope& envelope,
                       bool compute, RemovalTally* tally);

/// What the checks need of one served response. The payload text may be
/// dropped for a repeat of a key already kept, since the digest covers it.
struct ServedPayload {
  nocdr::serve::ServeStatus status = nocdr::serve::ServeStatus::kError;
  nocdr::serve::CacheOutcome cache_outcome = nocdr::serve::CacheOutcome::kNone;
  std::string error;
  std::uint64_t key = 0;
  bool deadlock_free = false;
  /// Over certificate, treated design text and the VC counts.
  std::uint64_t digest = 0;
  std::string certificate_json;
  std::string treated_design_text;

  ServedPayload() = default;
  ServedPayload(nocdr::serve::CertResponse&& response, bool keep_text);
};

/// Checks served certification payloads: status, byte-identical payloads
/// for every repeat of a canonical key, and, once per key, a positive
/// certificate that CheckCertificate accepts on the treated design it
/// came with.
///
/// The served design text alone cannot be used for that check: when
/// removal added VCs, the certificate numbers channels in the order the
/// service created them, and ReadDesign of the text numbers them link by
/// link. So the check recomputes the treated design (\p recompute) by
/// running the request's miss path again, requires its certificate and
/// text to equal the served ones byte for byte, and checks the served
/// certificate against it.
class PayloadChecker {
 public:
  /// kRefused for overloaded answers, kError for error answers, kWrong
  /// when a check fails (with the reason in \p why). The first payload of
  /// each key must keep its text.
  Outcome Check(const ServedPayload& payload,
                const std::function<Replay()>& recompute, std::string* why);

  /// The same checks for a session epoch: \p design_text is the epoch's
  /// design in the session's numbering, which is canonicalized before
  /// the certificate (computed on the canonical design) is checked.
  Outcome CheckEpoch(std::uint64_t key, const std::string& certificate_json,
                     const std::string& design_text, std::string* why);

 private:
  bool SameAsEarlier(std::uint64_t key, std::uint64_t payload_digest,
                     std::string* why);

  std::unordered_map<std::uint64_t, std::uint64_t> payload_by_key_;
  std::unordered_set<std::uint64_t> certified_keys_;
};

/// Totals of the library's own histograms (obs::Metrics()), read before
/// and after a phase; the library records them itself, the benchmark
/// only reads them.
class HistogramDelta {
 public:
  HistogramDelta();
  /// Mean recorded value (the histograms record microseconds) of
  /// \p name since construction; 0 when nothing was recorded.
  [[nodiscard]] double MeanSince(const std::string& name) const;

 private:
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  static std::map<std::string, Totals> Read();
  std::map<std::string, Totals> before_;
};

/// deadlock.{cycle_search,score,apply,invalidate}_us: mean microseconds
/// per removal call of each stage, from the removal.*_us histograms.
void ReportRemovalStages(const HistogramDelta& delta, PhaseResult& result);

/// serve.* ratios and counts from the service's own statistics.
void ReportServiceStats(const nocdr::serve::ServiceStats& stats,
                        const HistogramDelta& delta, PhaseResult& result);

/// <layer>.ms for every span-timed layer: self milliseconds per
/// operation over \p ops operations.
void ReportLayerTimes(const SpanRecorder& spans, std::size_t ops,
                      PhaseResult& result);

/// trace.coverage: the share of the entry-point spans' time (\p entry)
/// that the layer spans account for.
void ReportCoverage(const SpanRecorder& spans, const std::string& entry,
                    PhaseResult& result);

/// The span names ReportLayerTimes reports, with their metric names.
const std::vector<std::pair<std::string, std::string>>& LayerSpanMetrics();

}  // namespace perfbench
