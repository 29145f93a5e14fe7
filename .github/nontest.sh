# Sourced by single-definition.sh and line-budget.sh, from the repo root.
# `nontest` prints every non-test line of crates/*/src as FILE:LINE:TEXT.
# Non-test source = every crates/*/src file up to a `#[cfg(test)]` followed
# by `mod tests {` (a `#[cfg(test)] mod tests;` declaration does not end it,
# and the `tests.rs` it names is all test).
nontest() {
  find crates -path '*/src/*' -name '*.rs' ! -name tests.rs -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { live = 1; held = "" }
      held != "" { if ($0 ~ /^mod tests \{/) live = 0; else print held; held = "" }
      live && /^#\[cfg\(test\)\]/ { held = FILENAME ":" FNR ":" $0; next }
      live { print FILENAME ":" FNR ":" $0 }'
}
