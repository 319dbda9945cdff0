#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repository
# root. All arguments go to the binary: see benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
# One target directory whatever the caller's: a relative CARGO_TARGET_DIR
# is meant relative to the repository root, where this script runs.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# build output goes to stderr: stdout carries only results
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/inl-benchmark" "$@"
