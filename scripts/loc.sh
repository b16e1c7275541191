#!/usr/bin/env bash
# Non-test Rust lines per crate: every `.rs` file counted up to its first
# `#[cfg(test)]` line that stands right above a `mod` line (the unit-test
# module; a `#[cfg(test)]` on any other item is counted with the file), with
# integration-test directories (`crates/*/tests/`)
# left out. One row per directory under `crates/` plus the facade crate's
# `src/`, then the total. Two rows after it give the size of the
# integration suites — every line of every `.rs` file under `tests/` and
# under `crates/*/tests/` — and stay out of the totals. Compare two commits
# by running it in each. Run from anywhere: `scripts/loc.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the summed non-test line count of every `.rs` file under the
# given directories, integration tests excluded (`xargs` may split the
# file list over several `awk` runs, hence the second sum).
count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
        xargs -0 -r awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ {
                n++
                if ((getline line) <= 0) next
                if (line ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { n--; nextfile }
                n++
                next
            }
            { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

crates_total=0
for dir in crates/*/; do
    dir=${dir%/}
    n=$(count "$dir")
    crates_total=$((crates_total + n))
    printf '%-20s %7d\n' "$dir" "$n"
done
src=$(count src)
printf '%-20s %7d\n' "src" "$src"
printf '%-20s %7d\n' "crates/ total" "$crates_total"
printf '%-20s %7d\n' "total" "$((crates_total + src))"

# Every line of the integration-test files under the given directories.
test_lines() {
    find "$@" -name '*.rs' -print0 | xargs -0 -r cat | wc -l
}

printf '%-20s %7d\n' "tests/" "$(test_lines tests)"
printf '%-20s %7d\n' "crates/*/tests/" "$(test_lines crates/*/tests)"
