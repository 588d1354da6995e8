#!/usr/bin/env sh
# The NURAPID_* environment-knob list must not drift between the two
# places it is documented, the README knob table and the env section
# of `nurapid_sim --help`, nor from the knobs the code reads: the
# "NURAPID_*" string literals under src/. A knob missing from any of
# the three fails this test. Run by ctest as
#   knob_drift_test.sh SIM_BINARY README_PATH SRC_DIR
set -eu

sim="$1"
readme="$2"
src="$3"

# --help env section: knobs lead their line after two spaces.
help_knobs=$("$sim" --help | grep -o '^  NURAPID_[A-Z_]*' |
    tr -d ' ' | sort -u)

# README table: knob rows look like  | `NURAPID_FOO` | ... |
readme_knobs=$(grep -o '^| `NURAPID_[A-Z_]*`' "$readme" |
    grep -o 'NURAPID_[A-Z_]*' | sort -u)

# Source: every quoted literal naming a knob, in any .cc or .hh file.
src_knobs=$(grep -rhoE --include='*.cc' --include='*.hh' \
    '"NURAPID_[A-Z_]+"' "$src" | tr -d '"' | sort -u)

[ -n "$help_knobs" ] || { echo "FAIL: no knobs in --help"; exit 1; }
[ -n "$readme_knobs" ] || { echo "FAIL: no knobs in README"; exit 1; }
[ -n "$src_knobs" ] || { echo "FAIL: no knobs in $src"; exit 1; }

# Prints the lines of $2 that $1 lacks.
only_in() {
    printf '%s\n' "$2" | grep -vxF "$1" || true
}

if [ "$help_knobs" != "$readme_knobs" ] ||
   [ "$help_knobs" != "$src_knobs" ]; then
    echo "FAIL: knob lists drifted between --help, README and src/"
    echo "missing from --help:"
    only_in "$help_knobs" "$readme_knobs
$src_knobs" | sort -u
    echo "missing from README:"
    only_in "$readme_knobs" "$help_knobs
$src_knobs" | sort -u
    echo "missing from src/ (documented, never read):"
    only_in "$src_knobs" "$help_knobs
$readme_knobs" | sort -u
    exit 1
fi

echo "knob_drift_test: $(printf '%s\n' "$help_knobs" | wc -l)" \
     "knobs identical in --help, README and src/"
