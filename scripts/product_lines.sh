#!/usr/bin/env bash
# Count the product (non-test) lines of the three product crates, two ways.
#
#   old  ROADMAP's historical yardstick: every line of every .rs file up to
#        its first `#[cfg(test)]` line.
#   new  the same count without what does not ship as product code:
#          * `compat.rs` files (names only the benchmark calls), and
#          * the files of modules declared under `#[cfg(test)]`
#            (`#[cfg(test)] mod name;`), whose declaration no longer ends
#            the count of the file that declares them.
#
# A move into `compat.rs` lowers `new` but not `old`; a deletion lowers
# both. Report both, so a move is never read as a cut.
#
# Usage: scripts/product_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines up to the first `#[cfg(test)]` of each file, summed.
old_count() {
    find "$1" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile} {n++} END{print n+0}' {} +
}

# Files of the modules declared as `#[cfg(test)] mod name;` under $1.
test_module_files() {
    find "$1" -name '*.rs' | while read -r f; do
        awk '/^#\[cfg\(test\)\]$/{getline; if ($0 ~ /^(pub )?mod [A-Za-z0-9_]+;$/) {sub(/^(pub )?mod /, ""); sub(/;$/, ""); print}}' "$f" |
            while read -r m; do
                dir=$(dirname "$f")
                stem=$(basename "$f" .rs)
                case "${stem}" in
                    lib | main | mod) base="${dir}" ;;
                    *) base="${dir}/${stem}" ;;
                esac
                for cand in "${base}/${m}.rs" "${base}/${m}/mod.rs"; do
                    [ -f "${cand}" ] && echo "${cand}"
                done
            done
    done
}

new_count() {
    local skip
    skip=$(test_module_files "$1")
    find "$1" -name '*.rs' ! -name compat.rs | grep -vxF -f <(printf '%s\n' "${skip:-/nonexistent}") |
        xargs awk '
            FNR == 1 { stop = 0 }
            stop { next }
            /^#\[cfg\(test\)\]$/ {
                if ((getline line) > 0 && line ~ /^(pub )?mod [A-Za-z0-9_]+;$/) next
                stop = 1; next
            }
            { n++ }
            END { print n + 0 }'
}

printf '%-22s %7s %7s\n' tree old new
total_old=0
total_new=0
for tree in crates/storage/src crates/core/src src; do
    o=$(old_count "${tree}")
    n=$(new_count "${tree}")
    printf '%-22s %7d %7d\n' "${tree}" "${o}" "${n}"
    if [ "${tree}" != crates/core/src ]; then
        total_old=$((total_old + o))
        total_new=$((total_new + n))
    fi
done
printf '%-22s %7d %7d\n' "storage + src" "${total_old}" "${total_new}"
