#!/usr/bin/env bash
# Fails if README.md, DESIGN.md or the verify skill names a file path
# (crates/…, tests/…, examples/…, src/…, .github/…) that does not exist,
# names in backticks a `scd <command>` that is not in the dispatch of
# crates/cli/src/main.rs, or backticks a lowercase `scd-<crate>::<module>`
# (or `scd_<crate>::<module>`) that is not crates/<crate>/src/<module>.rs
# or <module>/mod.rs, so a change that deletes or moves a file or module or
# renames a command cannot leave a dangling reference behind. A path
# resolves at the repo root or under a crates/*/ directory (DESIGN.md
# names some tests crate-relative); a `:line` suffix is ignored.
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
commands=$(sed -nE 's/^ *"([a-z-]+)" => [a-z_]+\(&flags\),$/\1/p' crates/cli/src/main.rs)
for doc in README.md DESIGN.md .claude/skills/verify/SKILL.md; do
  while IFS=: read -r line named; do
    grep -qxF "${named#\`scd }" <<< "$commands" && continue
    echo "doc-refs: $doc:$line names $named\`, which is not an scd command"
    fail=1
  done < <(grep -noE '`scd [a-z][a-z-]*' "$doc")
done
for doc in README.md DESIGN.md .claude/skills/verify/SKILL.md; do
  while IFS=: read -r line named; do
    crate=${named#\`scd[-_]}
    crate=${crate%%::*}
    module=${named##*::}
    [ -e "crates/$crate/src/$module.rs" ] || [ -e "crates/$crate/src/$module/mod.rs" ] && continue
    echo "doc-refs: $doc:$line names $named\`, which is not a module of crates/$crate"
    fail=1
  done < <(grep -noE '`scd[-_][a-z]+::[a-z][a-z0-9_]*' "$doc")
done
[ "$fail" -eq 0 ] && echo "doc-refs: every path, scd command and crate module README.md, DESIGN.md and the verify skill name exists"
exit "$fail"
