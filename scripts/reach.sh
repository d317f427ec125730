#!/bin/sh
# reach.sh — how much of the program code do the programs reach?
#
# Builds every command and example, and the bench/ harness, with coverage
# counters over the whole module, runs one fixed set of invocations, and
# prints the share of statements each package reached and the functions no
# program entered. Tests are not run: a statement only a test reaches is
# not reached here.
#
# Every invocation must exit with the status written next to it, so a
# program that breaks fails the script instead of shrinking the set.
#
# Usage: scripts/reach.sh
# Prints "reach <package> <percent>" lines, then the unreached functions.

set -eu

cd "$(dirname "$0")/.."

mod=$(go list -m)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/cov"

# The main package must be inside -coverpkg, or its binary writes no
# counters: "$mod/..." matches the commands and examples, and bench's own
# module path too.
for dir in cmd/* examples/*; do
    go build -cover -coverpkg="$mod/..." -o "$work/bin/${dir#*/}" "./$dir"
done
(cd bench && go build -cover -coverpkg="$mod/..." -o "$work/bin/bench" .)

# expect STATUS PROGRAM ARGS...: run under GOCOVERDIR, fail unless the
# program exits with STATUS.
expect() {
    want=$1
    shift
    status=0
    (cd "$work" && GOCOVERDIR="$work/cov" "$work/bin/$@") >"$work/log" 2>&1 || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "reach: '$*' exited $status, want $want" >&2
        tail -n 20 "$work/log" >&2
        exit 1
    fi
}

sfw="SELECT C.cid, P.cons FROM Power P, Consumer C WHERE C.cid = P.cid AND P.cons > 55"

# The five protocols.
expect 0 tdsnet -fleet 60 -protocol basic -query "$sfw"
for proto in s_agg rnf_noise c_noise ed_hist; do
    expect 0 tdsnet -fleet 60 -protocol "$proto"
done
# SSI misbehaviour under churn, live rotation, revocation and audit.
expect 0 tdsnet -fleet 60 -ssi-adversary drop-tuple -churn-offline 0.15 -churn-drop 0.1 \
    -churn-corrupt 0.05 -churn-slow 0.2 -churn-crash 0.3 -fault-seed 21 -coverage-floor 0.3 \
    -compromised 0.1 -audit 3 -rotate-every 10 -revoke-ids tds-00003
expect 0 tdsnet -fleet 60 -protocol c_noise -ssi-adversary equivocate-partitioning
expect 1 tdsnet -fleet 60 -ssi-adversary forge-coverage
expect 1 tdsnet -fleet 60 -timeout 1ns
# The multi-tenant server, with every output file.
expect 0 tdsnet -fleet 30 -concurrent 2 -metrics-out m.prom -trace-out t.jsonl \
    -journal-out j.jsonl -trace-summary
expect 0 benchtool -fig all
# "all" is Figs 9b-11; the exposure figures, their sweeps, the phase
# decomposition and the live cost-model check run on their own.
for fig in 7 8 8h 8nf phases validate; do
    expect 0 benchtool -fig "$fig"
done
for dir in examples/*; do
    expect 0 "${dir#*/}"
done
# The per-layer pass runs the engine and replays each layer's kernels. The
# end-to-end pass reaches no further statement, and needs 100 queries in
# its window, which a slow box running coverage counters can miss.
for workload in wide_fleet deep_device noise_tagged server_mix; do
    expect 0 bench -workload "$workload" -seconds 1 -seed 3 -trace 1
done

# bench/ is the harness, not program code: its own package leaves the
# profile. A block counts once, reached if any binary reached it.
go tool covdata textfmt -i="$work/cov" -o="$work/all.out"
grep -v "^$mod/bench/" "$work/all.out" >"$work/profile.out"

awk -v mod="$mod/" 'NR > 1 {
    block = $1
    stmts[block] = $2
    if ($3 > 0) hit[block] = 1
}
END {
    for (block in stmts) {
        pkg = block
        sub(/:.*/, "", pkg)
        sub(/\/[^\/]*$/, "", pkg)
        sub(mod, "", pkg)
        total[pkg] += stmts[block]
        if (block in hit) reached[pkg] += stmts[block]
    }
    for (pkg in total) printf "reach %s %.1f\n", pkg, 100 * reached[pkg] / total[pkg]
}' "$work/profile.out" | sort

echo "unreached functions:"
go tool cover -func="$work/profile.out" | awk '$NF == "0.0%" { sub(".*" "'"$mod"'/", "", $1); print "  " $1, $2 }'
