#!/usr/bin/env bash
# engine-size.sh — print the engine's size and fail above checked-in ceilings.
#
# Two numbers ROADMAP counts as debt: the non-test lines of internal/core
# (item 2) and the places there that construct a timer (item 7). The ceilings
# are the values at the last PR that moved them; a PR that lowers a number
# lowers its ceiling, and one that raises it has to say why here.
set -eu
cd "$(dirname "$0")/.."

max_lines=6795
max_timer_sites=8

files=$(git ls-files 'internal/core/*.go' | grep -v _test.go)
# shellcheck disable=SC2086
lines=$(cat $files | wc -l)
# shellcheck disable=SC2086
timer_sites=$(grep -oE 'time\.NewTimer|time\.After\(|time\.NewTicker|time\.AfterFunc' $files | wc -l)

echo "non-test internal/core: ${lines} lines (ceiling ${max_lines})"
echo "timer-construction sites: ${timer_sites} (ceiling ${max_timer_sites})"
status=0
[ "$lines" -le "$max_lines" ] || { echo "engine-size: internal/core grew past its ceiling" >&2; status=1; }
[ "$timer_sites" -le "$max_timer_sites" ] || { echo "engine-size: a new timer site in internal/core" >&2; status=1; }
exit "$status"
