#!/bin/sh
# Check that the working tree writes the same deterministic artifacts as a
# given revision.
#
# Usage: tools/same_outputs.sh REV
#
# Exports REV into a temporary directory and runs the same command set
# there and in the working tree, with OPENBLAS_NUM_THREADS=1 and
# --deterministic: `benign` on the three bundled scenarios, `render
# highway-126`, `optimize highway-72 --iterations 12` followed by
# `evaluate --dump-frames`, `optimize highway-126` at its full budget
# followed by a plain `evaluate`, and `evaluate highway-126
# --identity-patch --dump-frames`.  The 12 highway-72 iterations accept
# only `sign` steps; the highway-126 run converges after 16 iterations
# and accepts scaled steps too, so a change to the scaled direction's
# bits shows.  Prints the file counts and a `diff -r` of the two
# output trees; exits 1 if they differ, or if a command fails.  Writes
# nothing into the repository (the export is `git archive`, not a
# worktree, and no bytecode is written); the temporary directory goes
# when the script ends.
set -eu

rev=${1:?usage: tools/same_outputs.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev" "$tmp/out-rev" "$tmp/out-tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"

# run_set SRC OUT: every command of the set, on the package under SRC,
# into relative directories under OUT, so that no report names OUT.
run_set() {
    (
        cd "$2"
        export PYTHONPATH="$1" OPENBLAS_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1
        rp() {
            python3 -c 'import sys; from roadpatch.cli import main; sys.exit(main())' \
                "$@" --deterministic >/dev/null
        }
        for s in highway-72 highway-105 highway-126; do
            rp benign "$s" --out "benign-$s"
        done
        rp render highway-126 --out render-126
        rp optimize highway-72 --iterations 12 --out attack-72
        rp evaluate highway-72 --out attack-72 --dump-frames attack-72/frames
        rp optimize highway-126 --out attack-126
        rp evaluate highway-126 --out attack-126
        rp evaluate highway-126 --identity-patch --out identity-126 \
            --dump-frames identity-126/frames
    )
}

run_set "$tmp/rev/src" "$tmp/out-rev"
run_set "$root/src" "$tmp/out-tree"
echo "$(find "$tmp/out-rev" -type f | wc -l) files from $rev," \
     "$(find "$tmp/out-tree" -type f | wc -l) from the working tree"
if diff -r "$tmp/out-rev" "$tmp/out-tree"; then
    echo "identical"
else
    echo "the outputs differ"
    exit 1
fi
