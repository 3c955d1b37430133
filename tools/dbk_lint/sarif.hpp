// SARIF 2.1.0 output for dbk_lint (GitHub code-scanning shape).
//
// The emitter produces deterministic bytes: fixed key order, fixed rule
// metadata, findings in the order given, two-space indentation — so the
// golden-file test can pin the exact output and CI diffs stay readable.
//
// Suppressed findings are still emitted, carrying a `suppressions` array
// (kind "inSource" for inline directives, "external" for allowlist/baseline
// grants) so code-scanning shows the audit trail without raising alerts.
//
// verify_sarif() is the round-trip check behind --sarif: the emitted bytes
// are re-parsed with a small standalone JSON reader (the util flat-object
// parser cannot read nested documents) and the per-rule result counts are
// compared against the findings that were serialized. A mismatch is a
// serializer bug, reported with per-rule counts and a nonzero exit.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dbk_lint/lint.hpp"

namespace dbk_lint {

/// Serializes the findings as a SARIF 2.1.0 document. Deterministic bytes.
std::string sarif_report(const std::vector<Finding>& findings);

struct SarifVerification {
  bool ok = false;
  std::string error;  ///< first structural problem or count mismatch
  /// Per-rule result counts: what the findings demand vs what the document
  /// actually contains. Printed on mismatch.
  std::map<std::string, int> expected;
  std::map<std::string, int> emitted;
};

/// Parses `sarif_text` and checks the 2.1.0 shape (version, $schema,
/// runs[0].tool.driver.name/rules, per-result ruleId/message/location) plus
/// per-rule counts against `findings`.
SarifVerification verify_sarif(const std::string& sarif_text,
                               const std::vector<Finding>& findings);

}  // namespace dbk_lint
