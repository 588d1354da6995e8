#!/usr/bin/env sh
# The model digest (cmake/model_digest.cmake) must depend on the
# source tree's contents and relative paths only: a copy of src/ at
# another path hashes the same, and a one-byte edit or a renamed file
# hashes differently. Run by ctest as
#   model_digest_test.sh CMAKE DIGEST_SCRIPT SRC_DIR SCRATCH_DIR
set -eu

cmake="$1"
script="$2"
src="$3"
scratch="$4"

rm -rf "$scratch"
mkdir -p "$scratch/a" "$scratch/elsewhere/b"
cp -R "$src" "$scratch/a/src"
cp -R "$src" "$scratch/elsewhere/b/src"

# Prints the digest of the tree at $1.
digest() {
    "$cmake" -DSRC="$1" -DOUT="$scratch/digest.cc" -P "$script"
    grep -o '"[0-9a-f]\{16\}"' "$scratch/digest.cc" | tr -d '"'
}

a=$(digest "$scratch/a/src")
b=$(digest "$scratch/elsewhere/b/src")
[ -n "$a" ] || { echo "FAIL: no digest generated"; exit 1; }
[ "$a" = "$b" ] ||
    { echo "FAIL: same tree, two paths: $a vs $b"; exit 1; }

printf ' ' >> "$scratch/elsewhere/b/src/common/types.hh"
edited=$(digest "$scratch/elsewhere/b/src")
[ "$edited" != "$a" ] ||
    { echo "FAIL: a one-byte edit left the digest at $a"; exit 1; }

mv "$scratch/a/src/common/types.hh" "$scratch/a/src/common/types2.hh"
renamed=$(digest "$scratch/a/src")
[ "$renamed" != "$a" ] ||
    { echo "FAIL: a renamed file left the digest at $a"; exit 1; }

rm -rf "$scratch"
echo "PASS: digest $a is path-independent and content-sensitive"
