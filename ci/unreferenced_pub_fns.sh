#!/usr/bin/env bash
# Lists the `pub` items under crates/*/src that nothing uses, not even a
# test, by two rules over crates/, tests/, examples/ and benchmark/:
#
# 1. a `pub` item — fn (including `const fn`), struct, enum, trait,
#    const, type or static — whose name occurs only once as a word: that
#    one occurrence is its own declaration;
# 2. a `pub fn` whose name never occurs the way a call or a path does
#    (`.name`, `::name` or `name(`) except in `fn name` declarations:
#    a common word used elsewhere hides it from rule 1, but nothing calls
#    it.
#
# Exits nonzero when either list is not empty. A text search cannot tell
# which type a method belongs to: a `pub fn` that shares its name with a
# method called on another type (say `forward` or `server`) passes both
# rules even when no caller reaches it.
#
# Usage: ci/unreferenced_pub_fns.sh (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

dirs=(crates tests examples benchmark)
kinds='(const fn|fn|struct|enum|trait|const|type|static)'

# word counts over every file in the searched trees (build outputs
# excluded), then the declared names whose count is at most one
unreferenced=$(
    awk 'NR == FNR { count[$2] = $1; next } count[$1] <= 1' \
        <(grep -rhoE --exclude-dir=target '[A-Za-z0-9_]+' "${dirs[@]}" | sort | uniq -c) \
        <(grep -rhoE "\bpub $kinds [A-Za-z_][A-Za-z0-9_]*" crates/*/src | awk '{print $NF}' | sort -u)
)

# every word with what precedes and follows it, then the `pub fn` names
# no `.name`, `::name` or `name(` reaches but a `fn name` declaration
uncalled=$(
    awk 'NR == FNR {
             if ($0 !~ /^fn / && ($0 ~ /^(\.|::)/ || $0 ~ /\($/)) {
                 sub(/^(\.|::)/, ""); sub(/\($/, ""); called[$0] = 1
             }
             next
         }
         !($1 in called)' \
        <(grep -rhoE --exclude-dir=target '(\bfn |\.|::)?\b[A-Za-z_][A-Za-z0-9_]*\(?' "${dirs[@]}") \
        <(grep -rhoE '\bpub (const )?fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src | awk '{print $NF}' | sort -u)
)

flagged=$(printf '%s\n%s\n' "$unreferenced" "$uncalled" | sed '/^$/d' | sort -u)
if [ -n "$flagged" ]; then
    echo "pub items named nowhere but their own declaration, or pub fns nothing calls:"
    for name in $flagged; do
        grep -rnE --include='*.rs' "\bpub $kinds $name\b" crates/*/src | sed 's/^/  /'
    done
    exit 1
fi
echo "every pub item under crates/*/src is named somewhere else, and every pub fn is called"
