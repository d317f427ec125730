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
# lines may not grow past what the last simplifying PR reached, test lines
# and DESIGN.md included. Lower the ceilings when a PR lowers the counts.
echo "==> line budget"
core_ssi=$(find internal/core internal/ssi -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)
repo=$(find . \( -path ./bench -o -path ./.bench_build \) -prune -o \
    -name '*.go' -not -name '*_test.go' -print | xargs cat | wc -l)
tests=$(find . \( -path ./bench -o -path ./.bench_build \) -prune -o \
    -name '*_test.go' -print | xargs cat | wc -l)
design=$(wc -l <DESIGN.md)
echo "internal/core + internal/ssi: $core_ssi (ceiling 4881); repo outside bench/: $repo (ceiling 15187);" \
    "tests outside bench/: $tests (ceiling 15417); DESIGN.md: $design (ceiling 1615)"
if [ "$core_ssi" -gt 4881 ] || [ "$repo" -gt 15187 ] || [ "$tests" -gt 15417 ] || [ "$design" -gt 1615 ]; then
    echo "line budget exceeded" >&2
    exit 1
fi

# Only what a program runs: every internal package must be imported by a
# non-test file outside its own directory (a command, an example, bench/
# or another internal package). A package only its own tests reach is
# dead weight, however well tested.
echo "==> every internal package has a non-test importer"
unreached=""
for dir in internal/*/; do
    pkg=${dir%/}
    if ! grep -rl --include='*.go' --exclude='*_test.go' \
        "\"github.com/trustedcells/tcq/$pkg\"" cmd examples bench internal | grep -qv "^$pkg/"; then
        unreached="$unreached $pkg"
    fi
done
if [ -n "$unreached" ]; then
    echo "no program imports:$unreached" >&2
    exit 1
fi

# What runs inside the TDS is what a program runs: scripts/reach.sh builds
# every command, example and bench/ with coverage, runs them, and prints
# the share of each package's statements they reach. The SQL front end,
# the evaluator and the value layer may not fall below the share they
# reached when the dialect was cut to the paper's, nor the engine and the
# observability layer below theirs when a run became one account; raise a
# floor when a PR raises the share. The engine's share can move by a few
# tenths from run to run (whether a SIZE cut lands inside a batched commit
# run depends on which slots the helpers finished first; 86.3-86.4 % on
# a 2-core box), so its floor sits 0.2 below its reading.
echo "==> reach (programs, not tests)"
reach=$(scripts/reach.sh)
echo "$reach"
for floor in internal/sqlexec=77.9 internal/sqlparse=59.0 internal/storage=70.9 internal/obs=59.1 internal/core=86.2; do
    pkg=${floor%=*}
    min=${floor#*=}
    got=$(echo "$reach" | awk -v pkg="$pkg" '$1 == "reach" && $2 == pkg { print $3 }')
    if [ -z "$got" ] || awk -v got="$got" -v min="$min" 'BEGIN { exit !(got < min) }'; then
        echo "programs reach ${got:-none}% of $pkg, floor $min%" >&2
        exit 1
    fi
done
# The same ratchet by function: no more functions may go unentered by every
# program than after the fleet became one (renderers and the AST's marker
# methods aside). Lower the ceiling when a PR lowers the count.
unentered=$(echo "$reach" | sed -n '/^unreached functions:/,$p' |
    awk 'NR > 1 && $NF != "String" && $NF != "exprNode" && $NF != "Error"' | wc -l)
echo "functions no program enters: $unentered (ceiling 18)"
if [ "$unentered" -gt 18 ]; then
    echo "more functions unreached by every program than the ceiling" >&2
    exit 1
fi

# One generator stays one: every engine-side seeded stream is internal/rng's
# two-word source (DESIGN.md §16). Only the data generator and the offline
# exposure Monte Carlo — inputs and analysis, never on a query path — may
# still build a math/rand source. Likewise rng.Hash is the one FNV-1a:
# its 32-bit offset basis appears nowhere else, and no program code outside
# internal/rng imports hash/fnv (which would bring the 64-bit variant back).
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
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
    '"hash/fnv"' . | grep -v '^\./internal/rng/'; then
    echo "hash with rng.Hash, not hash/fnv" >&2
    exit 1
fi

# One way to rotate: programs rotate between queries with
# RevokeAndRotate and mid-query with a fault plan's RotationScript; the
# grace window closes itself once the old epoch's runs have drained. No
# exported Engine method begins, advances or completes a rotation by hand.
echo "==> one way to rotate (RevokeAndRotate and RotationScript)"
if grep -rnE --include='*.go' \
    'func \([A-Za-z_]* *\*?Engine\) (BeginRotation|AdvanceRotationWave|CompleteRotation)\(' internal/core; then
    echo "rotate with RevokeAndRotate or a RotationScript, not by hand" >&2
    exit 1
fi

# One read path: the engine reads the covering result through the store
# views it verified and StreamBuild's positions, never as one flat copy.
echo "==> no CollectedTuples in internal/core"
if grep -rn --include='*.go' --exclude='*_test.go' 'CollectedTuples' internal/core; then
    echo "internal/core must read the store through CollectedRange / StreamBuild" >&2
    exit 1
fi

# One writer of a query's record: the engine writes its trace and journal,
# so the SSI — the adversary's side of the run — cannot import the layer
# that would let it write them again.
echo "==> internal/ssi does not import internal/obs"
if grep -rln --include='*.go' --exclude='*_test.go' '"github.com/trustedcells/tcq/internal/obs"' internal/ssi; then
    echo "the engine writes a query's trace and journal, not the SSI" >&2
    exit 1
fi

# One account per run: the registry instruments with a Metrics or ledger
# source are fed once, from the settled Metrics, by observe.go — never
# along the run path, where they would be a second copy to keep in step.
echo "==> Metrics-sourced instruments only in internal/core/observe.go"
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'obs\.(devices|tuples|retryWait|reassigns|integrity|phaseSeconds)\b' internal/core |
    grep -v '^internal/core/observe\.go:'; then
    echo "feed these instruments from Metrics in observe, not per event" >&2
    exit 1
fi

# A gate's -run pattern must keep selecting tests, or renaming or deleting
# one silently empties the gate: every package listed must have a test the
# pattern selects, and every |-alternative must select one in some package.
# With -bench first, the pattern must select benchmarks instead.
selects() {
    kinds='Test|Fuzz'
    if [ "$1" = "-bench" ]; then
        kinds=Benchmark
        shift
    fi
    pattern=$1
    shift
    names=""
    for pkg in "$@"; do
        listed=$(go test -list "$pattern" "$pkg" | grep -E "^($kinds)" || true)
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

# The collection walk's window: eight workers claiming slots a window
# ahead of the commit thread, three times over under the race detector,
# on fleets of more than three windows (a slot reused before it settled
# shows as a race or a failed deposit commitment, a lost wake-up as the
# timeout); and the phase benchmark once at every worker count, so a walk
# that deadlocks or loses a device at one of them fails here rather than
# in a benchmark run. The first-step build benchmark rides along, its
# deposit-order and tagged builds both, and so does the fold benchmark,
# whose every fold must emit what the first did: a fold broken by the
# reused scratch fails here. So does one device's collection step, S_Agg
# and C_Noise, whose first timed step must emit what the step before it
# did in the same worker's scratch; and a slot's wake, collect and seal in
# a worker's scratch run under the race detector with the walk.
echo "==> collection window (GOMAXPROCS=8, -race -count=3) and phase, build, fold and device-step benchmark smoke"
selects 'CollectWorkersDeterminismWalk|JournalFleetByteBudget|CollectSlotDoesNotAllocate' ./internal/core
GOMAXPROCS=8 go test -race -count=3 -timeout 5m \
    -run 'CollectWorkersDeterminismWalk|JournalFleetByteBudget|CollectSlotDoesNotAllocate' ./internal/core
selects -bench 'CollectionPhase|StreamBuild|AggregateFold|CollectOneTDS' ./internal/core
go test -run '^$' -bench 'CollectionPhase|StreamBuild|AggregateFold|CollectOneTDS' -benchtime 1x ./internal/core

echo "==> obslint (no direct time.Now() in internal/)"
go run ./scripts/obslint.go

# TestComposedFaults rides along: its seeded compositions of churn, SSI
# misbehaviour, rotation, compromise and collection bounds each run on two
# or more worker counts and SSI stripe counts. Nor
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

    # Fleet-scale smoke: provision a 100k-device fleet under a hard memory
    # ceiling, collect from every device once, and fail if the live heap is
    # above 256 B/device before or after the pass (~145 measured).
    echo "==> fleet memory gate (100k devices)"
    selects 'TestPackedMemoryFootprint' ./internal/core
    GOMEMLIMIT=2GiB go test -count=1 -run 'TestPackedMemoryFootprint' ./internal/core

    # A ~10s smoke over the coverage-guided fuzz targets: enough to catch a
    # freshly broken decoder invariant, nowhere near a real fuzzing session.
    echo "==> fuzz smoke"
    fuzz() {
        selects "$1" "$2"
        go test -run '^$' -fuzz "$1" -fuzztime 3s "$2"
    }
    fuzz '^FuzzDecodeRow$' ./internal/storage
    # TDSs re-parse the decrypted query text: whatever parses must render
    # to SQL that re-parses to itself.
    fuzz '^FuzzParse$' ./internal/sqlparse
    fuzz '^FuzzDecrypt$' ./internal/tdscrypto
    fuzz '^FuzzTrustBundleDecode$' ./internal/tdscrypto
    # The exact multiset check against its map-of-framed-strings reference,
    # and the covering-build check (identity walk in deposit order, named
    # store positions permuted) accepting exactly what its reference does.
    fuzz '^FuzzMultisetEqual$' ./internal/core
fi

echo "OK"
