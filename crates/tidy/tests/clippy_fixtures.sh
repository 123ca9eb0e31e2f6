#!/usr/bin/env bash
# The code rules that live in clippy.toml and the workspace lint table,
# shown to bite. Each file in fixtures/clippy/ breaks one rule and names
# the lint that must catch it on its `// expect:` line. The script
# copies the workspace to a scratch directory, injects each file in
# turn as a module of a member crate (hsim-time), runs clippy on that
# crate as the CI lint step does, and requires it to fail naming that
# lint. Exit status 1 if any file gets through.
#
# Usage: crates/tidy/tests/clippy_fixtures.sh [SCRATCH_DIR]
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../../.." && pwd)
work=${1:-$(mktemp -d)}
copy="$work/workspace"
src="$copy/crates/simtime/src"

rm -rf "$copy"
mkdir -p "$copy"
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./crates/bench/e2e/target -cf - . |
    tar -C "$copy" -xf -
cp "$src/lib.rs" "$work/lib.rs.orig"

check() {
    (cd "$copy" && CARGO_TARGET_DIR="$work/target" \
        cargo clippy --offline --quiet -p hsim-time --lib -- -D warnings 2>&1)
}

if ! out=$(check); then
    echo "hsim-time fails clippy before any injection:"
    echo "$out"
    exit 1
fi

status=0
for case in "$here"/fixtures/clippy/*.rs; do
    name=$(basename "$case" .rs)
    want=$(sed -n 's|^// expect: ||p' "$case")
    cp "$case" "$src/injected.rs"
    { cat "$work/lib.rs.orig"; echo "pub mod injected;"; } >"$src/lib.rs"
    # rustc prints a lint's name with `-` or `_` depending on the note.
    if out=$(check); then
        echo "FAIL $name: clippy passed, $want did not fire"
        status=1
    elif grep -qE "${want//_/[-_]}\b" <<<"$out"; then
        echo "ok   $name: $want"
    else
        echo "FAIL $name: clippy failed without naming $want:"
        echo "$out"
        status=1
    fi
done
cp "$work/lib.rs.orig" "$src/lib.rs"
rm -f "$src/injected.rs"
exit $status
