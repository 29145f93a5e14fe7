#!/usr/bin/env bash
# Fails if README.md, DESIGN.md or the verify skill names a file path
# (crates/…, tests/…, examples/…, src/…, .github/…) that does not exist,
# so a change that deletes or moves a file cannot leave a dangling
# reference behind. A path resolves at the repo root or under a crates/*/
# directory (DESIGN.md names some tests crate-relative); a `:line` suffix
# is ignored.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

fail=0
for doc in README.md DESIGN.md .claude/skills/verify/SKILL.md; do
  while IFS=: read -r line path; do
    path=${path#[^a-z.]}
    path=${path%.}
    [ -e "$path" ] && continue
    for dir in crates/*/; do
      [ -e "$dir$path" ] && continue 2
    done
    echo "doc-refs: $doc:$line names $path, which does not exist"
    fail=1
  done < <(grep -noE '(^|[^A-Za-z0-9_./-])(crates|tests|examples|src|\.github)/[A-Za-z0-9_./-]*' "$doc")
done
[ "$fail" -eq 0 ] && echo "doc-refs: every path README.md, DESIGN.md and the verify skill name exists"
exit "$fail"
