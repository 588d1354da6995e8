#!/usr/bin/env sh
# Compares two run caches entry by entry, ignoring named key fields.
#
# Usage:
#   scripts/cache_identity.sh PARENT CHANGE [FIELD...]
#
# PARENT and CHANGE are run-cache files (NURAPID_RUN_CACHE) written by
# two builds over the same sweep. Each is printed with
# `nurapid_sim --dump-cache` (wall time zeroed, sorted by key); then
# every `FIELD=value;` pair named on the command line and the
# `schema=value;` pair are stripped from every key, and the two dumps
# are diffed. A field is matched by its whole name: `repl` strips
# `repl=0;` but not `drepl=lru;`.
#
# Prints the entry count of each side. Exits 0 when the stripped dumps
# are byte-equal; otherwise prints every stripped key whose entry
# differs (or exists on one side only) and exits 1.
#
# A binary only loads caches of its own kRunCacheSchema, so across a
# schema bump point each side at the build that wrote it:
#   PARENT_SIM  nurapid_sim that dumps PARENT
#               (default: build/src/tools/nurapid_sim)
#   CHANGE_SIM  nurapid_sim that dumps CHANGE (default: the same)
#
# Example (a change that deleted the repl and repl_seed key fields):
#   PARENT_SIM=../parent/build/src/tools/nurapid_sim \
#       scripts/cache_identity.sh parent.json change.json repl repl_seed

set -eu

if [ $# -lt 2 ]; then
    sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1
change=$2
shift 2

default_sim=build/src/tools/nurapid_sim
parent_sim=${PARENT_SIM:-$default_sim}
change_sim=${CHANGE_SIM:-$default_sim}

for field in "$@"; do
    case "$field" in
      ''|*[!A-Za-z0-9_.]*)
        echo "error: bad field name '$field'" >&2; exit 2 ;;
    esac
done

# Drops "schema=...;" and each "FIELD=...;" from the key, the text
# before the first tab of a dump line; the metrics pass through.
strip() {
    awk -v fields="schema $*" '
        BEGIN { n = split(fields, drop, " ") }
        {
            tab = index($0, "\t")
            m = split(substr($0, 1, tab - 1), part, ";")
            key = ""
            for (i = 1; i < m; ++i) {
                name = part[i]
                sub(/=.*/, "", name)
                keep = 1
                for (j = 1; j <= n; ++j)
                    if (name == drop[j])
                        keep = 0
                if (keep)
                    key = key part[i] ";"
            }
            print key part[m] substr($0, tab)
        }'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$parent_sim" --dump-cache "$parent" | strip "$@" | sort > "$tmp/parent"
"$change_sim" --dump-cache "$change" | strip "$@" | sort > "$tmp/change"

parent_n=$(wc -l < "$tmp/parent")
change_n=$(wc -l < "$tmp/change")
echo "entries: parent $parent_n, change $change_n"

if cmp -s "$tmp/parent" "$tmp/change"; then
    echo "identical: all $parent_n entries byte-equal" \
         "(ignoring schema${*:+ $*})"
    exit 0
fi

# comm indents the change-only lines by one tab; print either key.
comm -3 "$tmp/parent" "$tmp/change" |
    awk -F '\t' '{ print ($1 == "" ? $2 : $1) }' | sort -u > "$tmp/keys"
echo "differing keys: $(wc -l < "$tmp/keys")"
cat "$tmp/keys"
exit 1
