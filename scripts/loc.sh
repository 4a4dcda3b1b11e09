#!/usr/bin/env bash
# Line counts of the first-party Rust sources.
#
#   ./scripts/loc.sh
#
# For the whole tree and for `crates/*/src`, prints all Rust lines and
# the lines before each file's first `#[cfg(test)]` (the cut the
# no-unwrap guard in scripts/ci.sh makes, without the marker line), so a
# change's code size can be read without its unit tests. The vendored
# crates and build outputs are left out.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<all lines> <lines before the first #[cfg(test)]>" for the
# files named on stdin.
count() {
    local all=0 head=0 f
    while IFS= read -r f; do
        all=$((all + $(wc -l < "$f")))
        head=$((head + $(sed -n '/#\[cfg(test)\]/q;p' "$f" | wc -l)))
    done
    echo "$all $head"
}

report() {
    local name=$1 all head
    read -r all head
    printf '%-14s %8d lines  %8d before #[cfg(test)]\n' "$name" "$all" "$head"
}

find . -name target -prune -o -path ./vendor -prune -o -name '*.rs' -type f -print \
    | sort | count | report "tree"
find crates/*/src -name '*.rs' -type f | sort | count | report "crates/*/src"
