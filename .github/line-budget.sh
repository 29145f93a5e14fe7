#!/usr/bin/env bash
# Fails if the product grows past its budget: the non-test lines of
# crates/*/src (by `nontest`'s rule, `.github/nontest.sh`), leaving out
# crates/bench, the experiment harness. Examples, tests and the benchmark
# workspace are not product. A change that deletes product lines lowers
# BUDGET to the new count; a change that must add lines says why in
# CHANGES.md and raises it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
source .github/nontest.sh

BUDGET=21559

count=$(nontest | grep -vc '^crates/bench/' || true)
if [ "$count" -gt "$BUDGET" ]; then
  echo "line-budget: $count non-test product lines, over the budget of $BUDGET"
  exit 1
fi
echo "line-budget: $count non-test product lines (budget $BUDGET)"
