// The trial harness under every differential campaign (validation,
// fault, session): fans trial(i) over a private thread pool, stamps the
// rows' trial indices and digests them through the row schema.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runner/parallel_map.h"
#include "util/row_schema.h"

namespace nocdr::valid {

/// The rows and digest of one campaign; campaign results extend it with
/// their per-verdict counts.
template <typename Row>
struct TrialRun {
  std::vector<Row> rows;
  /// FNV-1a over the deterministic row fields; byte-identical for any
  /// thread count.
  std::uint64_t digest = 0;

  /// Number of rows with verdict \p verdict.
  [[nodiscard]] std::size_t Count(decltype(Row::verdict) verdict) const {
    std::size_t count = 0;
    for (const Row& row : rows) {
      count += row.verdict == verdict ? 1 : 0;
    }
    return count;
  }
};

/// Fills \p run with trial(0) .. trial(count - 1), evaluated on
/// \p threads workers (0 = hardware concurrency). \p trial must be a
/// pure function of its index that never throws; it returns the trial's
/// row.
template <typename Row, typename Trial>
void RunTrials(TrialRun<Row>& run, std::size_t count, std::size_t threads,
               Trial&& trial) {
  const auto stamped = [&trial](std::size_t i) {
    Row row = trial(i);
    row.trial_index = i;
    return row;
  };
  run.rows = runner::ParallelMapIndexed<Row>(count, threads, stamped);
  run.digest = schema::RowsDigest(run.rows);
}

}  // namespace nocdr::valid
