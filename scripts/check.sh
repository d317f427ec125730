#!/bin/sh
# check.sh — the repository's pre-merge gate: formatting, static analysis,
# build, the full test suite, and the same suite under the race detector
# (the engine runs collection waves and phase pools concurrently; a clean
# -race run is part of the contract, not an optional extra).
#
# Usage: scripts/check.sh [-short]
#   -short  skip the race-detector pass (it is the slow half)

set -eu

cd "$(dirname "$0")/.."

short=0
[ "${1:-}" = "-short" ] && short=1

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test"
go test ./...

# bench/ is its own module, replaced onto this one: vetting and testing it
# here turns "every signature bench/ compiles against is kept" into a red
# build.
echo "==> bench/ (go vet + go test)"
(cd bench && go vet ./... && go test ./...)

# ROADMAP's "number to push down", ratcheted rather than remembered: Go
# lines may not grow past what the last simplifying PR reached (rounded up
# to the next 50), test lines included. Lower the ceilings when a PR lowers
# the counts.
echo "==> line budget"
core_ssi=$(find internal/core internal/ssi -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)
repo=$(find . \( -path ./bench -o -path ./.bench_build \) -prune -o \
    -name '*.go' -not -name '*_test.go' -print | xargs cat | wc -l)
tests=$(find . \( -path ./bench -o -path ./.bench_build \) -prune -o \
    -name '*_test.go' -print | xargs cat | wc -l)
echo "internal/core + internal/ssi: $core_ssi (ceiling 5250); repo outside bench/: $repo (ceiling 17050);" \
    "tests outside bench/: $tests (ceiling 16350)"
if [ "$core_ssi" -gt 5250 ] || [ "$repo" -gt 17050 ] || [ "$tests" -gt 16350 ]; then
    echo "line budget exceeded" >&2
    exit 1
fi

# One generator stays one: every engine-side seeded stream is internal/rng's
# two-word source (DESIGN.md §16). Only the data generator and the offline
# exposure Monte Carlo — inputs and analysis, never on a query path — may
# still build a math/rand source. Likewise rng.Hash is the one 32-bit
# FNV-1a: its offset basis appears nowhere else.
echo "==> one generator (no rand.NewSource outside workload/ and exposure/, no FNV-1a outside rng/)"
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
    'rand\.NewSource(' . | grep -v '^\./internal/workload/\|^\./internal/exposure/'; then
    echo "engine code must draw from internal/rng, not a math/rand source" >&2
    exit 1
fi
if grep -rn --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build '2166136261' . |
    grep -v '^\./internal/rng/'; then
    echo "hash with rng.Hash, not a copy of FNV-1a" >&2
    exit 1
fi

# A gate's -run pattern must keep selecting tests, or renaming or deleting
# one silently empties the gate: every package listed must have a test the
# pattern selects, and every |-alternative must select one in some package.
selects() {
    pattern=$1
    shift
    names=""
    for pkg in "$@"; do
        listed=$(go test -list "$pattern" "$pkg" | grep -E '^(Test|Fuzz)' || true)
        if [ -z "$listed" ]; then
            echo "-run '$pattern' selects no test in $pkg" >&2
            exit 1
        fi
        names="$names
$listed"
    done
    for alt in $(echo "$pattern" | tr '|' ' '); do
        if ! echo "$names" | grep -qE "$alt"; then
            echo "-run '$pattern': '$alt' selects no test in $*" >&2
            exit 1
        fi
    done
}

# gate PATTERN PKG...: the packages' tests PATTERN selects, under -race.
gate() {
    selects "$@"
    pattern=$1
    shift
    go test -race -count=1 -run "$pattern" "$@"
}

# CollectWorkers defaults to GOMAXPROCS, so the core suite's default-worker
# tests run a different walk shape on every box. Pin the shapes: a 1-CPU
# box must not be able to hide a worker-count divergence. The allocation
# budgets of the device path (per tuple, per admission, per row into a
# reused Out), the SSI's observe, the commitment streams, the deposit
# leaf, and aiming a stream and scripting a device's faults (both 0) ride
# along: an allocation count must not depend on the core count either.
budgets="./internal/sqlexec ./internal/tds ./internal/ssi ./internal/tdscrypto ./internal/protocol
    ./internal/faultplan ./internal/rng"
selects 'AllocBudget|DoesNotAllocate' $budgets
for procs in 1 2 8; do
    echo "==> go test ./internal/core + allocation budgets (GOMAXPROCS=$procs)"
    GOMAXPROCS=$procs go test -count=1 ./internal/core
    GOMAXPROCS=$procs go test -count=1 -run 'AllocBudget|DoesNotAllocate' $budgets
done

echo "==> obslint (no direct time.Now() in internal/)"
go run ./scripts/obslint.go

# TestComposedFaults rides along: its seeded compositions of churn, SSI
# misbehaviour, rotation, compromise and collection bounds each run on two
# or more worker counts, fleet representations and SSI stripe counts. Nor
# may which failure a failing phase reports depend on the worker count
# (TestPhaseErrorDeterminism).
echo "==> churn determinism gate"
gate 'Churn|Determinism|ComposedFaults' ./internal/core

echo "==> trace determinism gate"
gate 'GoldenTrace|SSIVisibility' ./internal/core

# TestAdversaryFanOutWorkersAgree and TestIntegrityWorkersAgree run the
# verifier's leaf MACs on eight workers here, under the race detector;
# TestIntegrityReferenceIsWhatWasVerified holds every protocol's first
# build to the tuples the verifier checked, not to what the SSI's other
# reads serve.
# What the fleet shares rides along: store views read while a goroutine
# deposits, the SSI's one epoch policy flipped under eight depositors, the
# Det_Enc tag table and the admission records filled by devices of two
# epochs at once, and one credential authority verifying from eight
# goroutines. So does what the walk's reused slot buffers rest on: no SSI
# keeps a depositor's slice, a Collect into the caller's buffer answers as
# one that allocates, and batched nonces never repeat.
echo "==> adversary determinism gate"
gate 'Adversary|Integrity|ComposedFaults' ./internal/core
gate 'Adversary|StoreViews|Repartition|Stripes|EpochPolicy|DepositDoesNotRetain' ./internal/ssi
gate 'DetTagTable|AdmissionTable|CollectIntoOut' ./internal/tds
gate 'ArenaNonces' ./internal/tdscrypto
gate 'VerifyTable' ./internal/accessctl

echo "==> multi-tenant scheduler gate"
gate 'Server|ConcurrentQueryDeterminism' ./internal/core

echo "==> journal determinism and cost-model conformance gate"
gate 'Journal|Conformance' ./internal/core

echo "==> key lifecycle gate (live rotation / revocation / trust bundles)"
gate 'Rotation|Revocation|Bundle' ./internal/core ./internal/tdscrypto

if [ "$short" -eq 0 ]; then
    echo "==> go test -race"
    go test -race ./...

    # Fleet-scale smoke: provision a packed 100k-device fleet under a hard
    # memory ceiling, collect from every device once, and fail if the live
    # heap is above 256 B/device before or after the pass (~110 measured).
    echo "==> fleet memory gate (packed, 100k devices)"
    selects 'TestPackedMemoryFootprint' ./internal/core
    GOMEMLIMIT=2GiB go test -count=1 -run 'TestPackedMemoryFootprint' ./internal/core

    # A ~10s smoke over the coverage-guided fuzz targets: enough to catch a
    # freshly broken decoder invariant, nowhere near a real fuzzing session.
    echo "==> fuzz smoke"
    fuzz() {
        selects "$1" "$2"
        go test -run '^$' -fuzz "$1" -fuzztime 3s "$2"
    }
    fuzz '^FuzzDepositDecode$' ./internal/protocol
    fuzz '^FuzzDecodeRow$' ./internal/storage
    fuzz '^FuzzDecrypt$' ./internal/tdscrypto
    fuzz '^FuzzTrustBundleDecode$' ./internal/tdscrypto
    # The exact multiset check against its map-of-framed-strings reference,
    # and the covering-build check (identity walk in deposit order, input
    # positions permuted) accepting exactly what the reference accepts.
    fuzz '^FuzzMultisetEqual$' ./internal/core
fi

echo "OK"
