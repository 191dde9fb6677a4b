#!/bin/sh
# deadcode.sh — list the functions that no binary links.
#
# A root is a main package users run: every main package of the module
# (cmd/randpriv, cmd/randprivd and the examples/* programs) and
# perfbench. Each root is built with inlining off (-gcflags=all=-l), so
# every function it can reach keeps a symbol of its own, and
# `go tool nm` lists what the linker kept.
#
# The script prints `file:line symbol` for each function declared in a
# tracked non-test .go file outside perfbench/ (package main files
# excluded) that no root links. A value-receiver method T.M counts as
# linked when T.M or its (*T).M wrapper is linked. Functions that
# scripts/deadcode.allow matches are printed with their kind; the script
# exits 1 if any printed function is not matched.
#
# scripts/deadcode.allow holds one entry per line: a symbol as printed
# here, or a prefix ending in "." such as `faultfs.(*Injector).`, then
# its kind, (a) to (d), then one test that calls it. The file's header
# defines the kinds.
#
# Usage:
#   scripts/deadcode.sh
#
# POSIX sh; needs go, git and awk.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

mod="$(awk '$1 == "module" { print $2; exit }' go.mod)"
allow=scripts/deadcode.allow

mkdir "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" \
	$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
(cd perfbench && go build -gcflags=all=-l -o "$tmp/bin/perfbench.bin" .)

# The module's linked text symbols, each once.
for b in "$tmp"/bin/*; do
	go tool nm "$b"
done | awk -v mod="$mod" '$2 == "T" || $2 == "t" {
	s = $0
	sub(/^ *[0-9a-f]+ [Tt] /, "", s)
	if (index(s, mod "/") == 1 || index(s, mod ".") == 1)
		print s
}' | sort -u >"$tmp/linked"

git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^perfbench/' >"$tmp/files"

# Every declared function no root links, as `file:line symbol`.
awk -v mod="$mod" '
FILENAME == ARGV[1] { linked[$0] = 1; next }
FNR == 1 {
	dir = FILENAME
	if (sub(/\/[^\/]*$/, "", dir) == 0)
		dir = ""
	path = dir == "" ? mod : mod "/" dir
	short = path
	sub(/.*\//, "", short)
	skip = 0
}
/^package main([ \t]|$)/ { skip = 1 }
skip || !/^func / { next }
{
	s = substr($0, 6)
	recv = ""
	ptr = 0
	if (substr(s, 1, 1) == "(") {
		n = split(substr(s, 2, index(s, ")") - 2), f, " ")
		recv = f[n]
		sub(/\[.*/, "", recv)
		if (substr(recv, 1, 1) == "*") {
			ptr = 1
			recv = substr(recv, 2)
		}
		s = substr(s, index(s, ")") + 2)
	}
	match(s, /^[A-Za-z_0-9]+/)
	name = substr(s, 1, RLENGTH)
	if (recv == "" && (name == "init" || name == "_"))
		next
	if (recv == "")
		sym = name
	else if (ptr)
		sym = "(*" recv ")." name
	else
		sym = recv "." name
	if ((path "." sym) in linked)
		next
	if (recv != "" && !ptr && ((path ".(*" recv ")." name) in linked))
		next
	print FILENAME ":" FNR " " short "." sym
}' "$tmp/linked" $(cat "$tmp/files") >"$tmp/dead"

# Each allow-list entry must name a kind and a test that exists.
status=0
grep -v -E '^[[:space:]]*(#|$)' "$allow" >"$tmp/allow" || true
while read -r entry kind test rest; do
	case "$kind" in
	'(a)' | '(b)' | '(c)' | '(d)') ;;
	*)
		echo "deadcode.sh: $allow: $entry: kind must be (a), (b), (c) or (d)" >&2
		status=1
		;;
	esac
	if [ -z "$test" ] || [ -n "$rest" ]; then
		echo "deadcode.sh: $allow: $entry: want one test name after the kind" >&2
		status=1
	elif ! git grep -q -E "^func $test\(" -- '*_test.go'; then
		echo "deadcode.sh: $allow: $entry: no test named $test" >&2
		status=1
	fi
done <"$tmp/allow"

awk -v allowfile="$allow" '
FILENAME == ARGV[1] { entry[FNR] = $1; kind[FNR] = $2; n = FNR; next }
{
	sym = $2
	hit = 0
	for (i = 1; i <= n; i++) {
		e = entry[i]
		if (sym == e || (substr(e, length(e)) == "." && index(sym, e) == 1)) {
			hit = i
			break
		}
	}
	if (hit) {
		used[hit] = 1
		print $0 " " kind[hit]
	} else {
		print
		bad++
	}
}
END {
	for (i = 1; i <= n; i++)
		if (!(i in used))
			printf "deadcode.sh: %s: %s matches no unlinked function\n", allowfile, entry[i] > "/dev/stderr"
	if (bad) {
		printf "deadcode.sh: %d unlinked functions are not in %s\n", bad, allowfile > "/dev/stderr"
		exit 1
	}
}' "$tmp/allow" "$tmp/dead" || status=1

exit "$status"
