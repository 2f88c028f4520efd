#!/usr/bin/env bash
# engine-size.sh — print the engine's size and fail above checked-in ceilings.
#
# Three numbers ROADMAP counts as debt: the non-test lines of internal/core
# (item 2), the places there that construct a timer (item 7), and the
# //tbon:allow waivers in the repository's own code (item 4; the analyzers'
# testdata fixtures are not waivers). The ceilings are the values at the
# last PR that moved them; a PR that lowers a number lowers its ceiling,
# and one that raises it has to say why here.
set -eu
cd "$(dirname "$0")/.."

max_lines=6522
max_timer_sites=6
max_waivers=3

files=$(git ls-files 'internal/core/*.go' | grep -v _test.go)
# shellcheck disable=SC2086
lines=$(cat $files | wc -l)
# shellcheck disable=SC2086
timer_sites=$(grep -oE 'time\.NewTimer|time\.After\(|time\.NewTicker|time\.AfterFunc' $files | wc -l)
# A directive starts a comment on its own or after code; mentions inside
# prose comments or string literals have a '/' or '"' before them.
# shellcheck disable=SC2046
waivers=$(grep -E '^[^"/]*//tbon:allow [a-z]+ [^ ]' $(git ls-files '*.go' | grep -v '/testdata/') | wc -l)

echo "non-test internal/core: ${lines} lines (ceiling ${max_lines})"
echo "timer-construction sites: ${timer_sites} (ceiling ${max_timer_sites})"
echo "//tbon:allow waivers: ${waivers} (ceiling ${max_waivers})"
status=0
[ "$lines" -le "$max_lines" ] || { echo "engine-size: internal/core grew past its ceiling" >&2; status=1; }
[ "$timer_sites" -le "$max_timer_sites" ] || { echo "engine-size: a new timer site in internal/core" >&2; status=1; }
[ "$waivers" -le "$max_waivers" ] || { echo "engine-size: a new //tbon:allow waiver" >&2; status=1; }
exit "$status"
