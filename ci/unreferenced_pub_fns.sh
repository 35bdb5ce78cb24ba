#!/usr/bin/env bash
# Lists every `pub` item — fn (including `const fn`), struct, enum, trait,
# const, type or static — declared under crates/*/src whose name occurs
# only once as a word across crates/, tests/, examples/ and benchmark/:
# that one occurrence being its own declaration, so nothing uses it, not
# even a test. Exits nonzero when the list is not empty.
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

if [ -n "$unreferenced" ]; then
    echo "pub items named nowhere but their own declaration:"
    for name in $unreferenced; do
        grep -rnE --include='*.rs' "\bpub $kinds $name\b" crates/*/src | sed 's/^/  /'
    done
    exit 1
fi
echo "every pub item under crates/*/src is named somewhere else"
