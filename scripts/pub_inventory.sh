#!/usr/bin/env bash
# Public-surface inventory: lists every `pub fn` under crates/ whose name
# no other .rs file under crates/, tests/, examples/ or perf/src/ names.
# Such a function is either uncalled (delete it), or called only from its
# own file (make it private). Prints one `file: name` line per hit, skips
# the allowlist below, and exits 1 if anything is printed.
#
# Usage: scripts/pub_inventory.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One entry per line: the function name, then why it stays public.
ALLOWLIST='
register_file  its tests drive recognition and the switch simulator over a decoder + latch array no other generator builds
'

files=$(find crates tests examples perf/src -name '*.rs' | sort)
# Identifiers that occur in exactly one file.
# shellcheck disable=SC2086
once=$(grep -oHE '[A-Za-z_][A-Za-z0-9_]*' $files | sort -u | cut -d: -f2 | sort | uniq -c |
  awk '$1 == 1 { print $2 }')
allowed=$(echo "$ALLOWLIST" | awk 'NF { print $1 }')

hits=$(grep -rHoE --include='*.rs' 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates |
  sed 's/pub fn //' |
  awk -F: -v once="$once" -v allowed="$allowed" '
    BEGIN {
      n = split(once, o, "\n"); for (i = 1; i <= n; i++) single[o[i]] = 1
      n = split(allowed, a, "\n"); for (i = 1; i <= n; i++) skip[a[i]] = 1
    }
    ($2 in single) && !($2 in skip) { print $1 ": " $2 }' |
  sort)

if [ -n "$hits" ]; then
  echo "$hits"
  echo "pub fn(s) above are named by no other file: delete them, make them private, or allowlist them in $0" >&2
  exit 1
fi
