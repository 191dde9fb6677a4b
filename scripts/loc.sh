#!/bin/sh
# loc.sh — count the lines of the tracked non-test Go files outside
# perfbench/: code-only lines (neither blank nor a line that starts with
# // after leading whitespace) and raw lines.
#
# Usage:
#   scripts/loc.sh        # the tracked files as they are in the working tree
#   scripts/loc.sh REV    # the files of commit REV, e.g. scripts/loc.sh HEAD~1
#
# POSIX sh; needs git and awk.
set -eu

cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
	files="$(git ls-tree -r --name-only "$rev")"
else
	files="$(git ls-files)"
fi

printf '%s\n' "$files" | grep '\.go$' | grep -v '_test\.go$' | grep -v '^perfbench/' |
	while IFS= read -r f; do
		if [ -n "$rev" ]; then
			git show "$rev:$f"
		else
			cat "$f"
		fi
	done |
	awk '{ raw++ } !/^[ \t]*$/ && !/^[ \t]*\/\// { code++ }
		END { printf "code-only %d\nraw %d\n", code, raw }'
