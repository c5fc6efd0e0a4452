#!/bin/sh
# CI gate: formatting, static checks, full build, the test suite under the
# race detector, and a merlind lifecycle smoke run. Run from the repository
# root.
set -eux

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# The multi-slot telemetry stress test gets an extra -count=2 pass under the
# race detector: it is the one test that races live traffic against
# deploy/promote/rollback churn while sampling the registry.
go test -race -count=2 -run 'TestMultiSlotStress' ./internal/lifecycle/

# Lifecycle smoke: deploy → mirror traffic → hot-swap → rollback must all
# answer "ok" (merlind exits non-zero if any command fails), and the metrics
# dump must account for every one of the 4+10 packets driven above.
SMOKE_OUT=$(printf '%s\n' \
    'deploy smoke corpus:xdp1' \
    'traffic smoke 4' \
    'deploy smoke corpus:xdp1' \
    'traffic smoke 10' \
    'promote smoke' \
    'rollback smoke' \
    'status' \
    'events smoke' \
    'metrics' \
    'quit' \
    | go run ./cmd/merlind -shadow 4 -canary 4)
echo "$SMOKE_OUT"
echo "$SMOKE_OUT" | grep -q 'merlin_lifecycle_served_total{slot="smoke"} 14'

# Superoptimizer smoke: a cold build against an empty cache must search and
# find at least one rewrite on this ALU-chain module; a second build against
# the same cache must be fully warm — at least one hit and zero searches.
SO_DIR=$(mktemp -d)
cat > "$SO_DIR/sochain.mir" <<'EOF'
module "sochain"

func fold(%ctx: ptr) -> i64 {
entry:
  %data = load ptr, %ctx, align 8
  %endp = gep %ctx, 8
  %end = load ptr, %endp, align 8
  %lim = bin add i64 %data, 14
  %short = icmp ugt i64 %lim, %end
  condbr %short, drop, work
drop:
  ret 1
work:
  %p = load ptr, %ctx, align 8
  %v = load i64, %p, align 8
  %a = bin add i64 %v, 5
  %b = bin add i64 %a, 3
  %c = bin add i64 %b, 7
  %d = bin mul i64 %c, 1
  %e = bin xor i64 %d, 0
  %f = bin add i64 %e, 0
  ret %f
}
EOF
COLD_OUT=$(go run ./cmd/merlinc -superopt -superopt-cache "$SO_DIR/cache" "$SO_DIR/sochain.mir")
echo "$COLD_OUT"
echo "$COLD_OUT" | grep -q 'superopt: .*hits=0 '
echo "$COLD_OUT" | grep -Eq 'superopt: .*rewrites=[1-9]'
WARM_OUT=$(go run ./cmd/merlinc -superopt -superopt-cache "$SO_DIR/cache" "$SO_DIR/sochain.mir")
echo "$WARM_OUT"
echo "$WARM_OUT" | grep -Eq 'superopt: .*hits=[1-9]'
echo "$WARM_OUT" | grep -q 'searches=0 '
rm -rf "$SO_DIR"

# Superoptimizer differential fuzz: a short randomized hunt for any program
# where the superopt build diverges from the Merlin-only build.
go test -run FuzzSuperopt -fuzz FuzzSuperopt -fuzztime 20s ./internal/difftest/

# Search-loop parity fuzz, no timing threshold: random 2-5 instruction ALU
# windows (every op the extractor admits, both widths), random live-out
# obligations and budgets; the column enumerator must agree with the
# test-only oracle on the verdict and on the candidate count.
go test -run FuzzSearchParity -fuzz FuzzSearchParity -fuzztime 10s ./internal/superopt/

# Execution-engine differential fuzz: the same hunt for any generated
# program where the pre-decoded engine diverges from the reference switch
# interpreter.
go test -run FuzzVMEquivalence -fuzz FuzzVMEquivalence -fuzztime 20s ./internal/difftest/

# Scalar-semantics fuzz, no timing threshold: one fuzzed ALU or compare
# opcode (defined or not, either width, either operand form) on fuzzed
# operands must give the semantics table's answer on both engines and
# verify — or, when the ISA does not define the op field, fault or fall
# through identically on both engines and be rejected by the verifier.
go test -run FuzzScalarSemantics -fuzz FuzzScalarSemantics -fuzztime 10s ./internal/difftest/

# Bytecode-editing fuzz, no timing threshold: random programs (lddw,
# forward and backward branches) with random dead masks and random edits;
# Sweep must equal per-element deletion from the back, and Splice a reference
# built from per-element deletions and insertions: instructions, targets and
# finalized offsets.
go test -run FuzzEditableSweep -fuzz FuzzEditableSweep -fuzztime 10s ./internal/ebpf/

# Benchmark correctness smokes, no timing threshold: a real merlind worker
# driven through the shared dispatcher, the controller fanning 8-packet
# traffic RPCs over two workers, and the in-process batch path; each
# recomputes its verdict histograms on vm.NewRef and exits non-zero on any
# mismatch, dropped or short Traffic, or failed operation.
bash bench/run.sh -workload serve-daemon-bulk -seconds 1
bash bench/run.sh -workload serve-fleet -seconds 1
bash bench/run.sh -workload serve-batch -seconds 1

# Storage-chaos soak: seeded faults (ENOSPC/EIO/torn writes) at ~1% on every
# journal I/O site while concurrent traffic races deploy/promote/rollback
# churn, under the race detector. The incumbent must never fail a serve, and
# the post-soak audit replays a truncation-prefix sweep across every
# surviving journal segment.
MERLIN_SOAK_OPS=200 MERLIN_SOAK_SEEDS=2 \
    go test -race -run 'TestChaosSoak|TestSoakGroupCommitBatches' ./internal/soak/
# The keyed store under both caches gets the same faults and a second pass of
# its merge-while-compacting race, over the verdict and artifact codecs.
go test -race -count=2 -run 'TestStoreChaosSurvival|TestStoreMergeWhileCompacting' ./internal/journal/

# Fleet smoke: a controller and two worker merlinds over loopback TCP. A
# rolling deploy must reach every worker; killing a worker mid-rollout must
# halt and roll the fleet back (never half-promoted) while traffic reroutes
# with zero drops and the fleet reports degraded; the worker rejoins clean;
# killing the controller mid-rollout must recover the in-flight rollout from
# its journal and drive it to completion.
go build -o /tmp/merlind-fleet ./cmd/merlind
FLEET_STATE=$(mktemp -d)
CTL_FIFO=$(mktemp -u)
mkfifo "$CTL_FIFO"
/tmp/merlind-fleet -controller 127.0.0.1:0 -state-dir "$FLEET_STATE" \
    < "$CTL_FIFO" > /tmp/fleet-ctl-out 2>&1 &
CTL_PID=$!
exec 8> "$CTL_FIFO"
for _ in $(seq 1 100); do
    grep -q 'ok controller ' /tmp/fleet-ctl-out && break
    sleep 0.1
done
CTL_ADDR=$(grep 'ok controller ' /tmp/fleet-ctl-out | head -1 | awk '{print $3}')

/tmp/merlind-fleet -join "$CTL_ADDR" -name w1 -rejoin-every 250ms \
    -shadow 2 -canary 2 < /dev/null > /tmp/fleet-w1-out 2>&1 &
W1_PID=$!
/tmp/merlind-fleet -join "$CTL_ADDR" -name w2 -rejoin-every 250ms \
    -shadow 2 -canary 2 < /dev/null > /tmp/fleet-w2-out 2>&1 &
W2_PID=$!
for _ in $(seq 1 100); do
    printf 'workers\n' >&8
    sleep 0.1
    grep -q 'ok workers n=2' /tmp/fleet-ctl-out && break
done
grep -q 'ok workers n=2' /tmp/fleet-ctl-out

# Rolling deploy to both workers, then fan traffic over the hash ring.
printf 'fdeploy lb corpus:xdp1\nfwait\n' >&8
for _ in $(seq 1 300); do
    grep -q 'ok fwait ' /tmp/fleet-ctl-out && break
    sleep 0.1
done
grep -q 'ok fwait .*phase=done' /tmp/fleet-ctl-out
printf 'ftraffic lb 16\n' >&8
for _ in $(seq 1 100); do
    grep -q 'ok ftraffic lb ' /tmp/fleet-ctl-out && break
    sleep 0.1
done
grep -q 'ok ftraffic lb sent=16 rerouted=0 dropped=0' /tmp/fleet-ctl-out

# Connection reuse is live in the real binaries: after a larger fan-out each
# worker's scrape must show far fewer accepted control connections than
# dispatched control lines (fleet.TCP keeps worker connections open).
printf 'ftraffic lb 512\nfmetrics\n' >&8
for _ in $(seq 1 100); do
    grep -q 'ok fmetrics' /tmp/fleet-ctl-out && break
    sleep 0.1
done
grep -q 'ok ftraffic lb sent=512 rerouted=0 dropped=0' /tmp/fleet-ctl-out
for W in w1 w2; do
    CONNS=$(grep "^merlin_control_connections_total{worker=\"$W\"}" /tmp/fleet-ctl-out | awk '{print $2}')
    RPCS=$(grep "^merlin_control_rpcs_total{worker=\"$W\"}" /tmp/fleet-ctl-out | awk '{print $2}')
    [ "$CONNS" -ge 1 ]
    [ "$RPCS" -ge $((8 * CONNS)) ]
done
grep -q '^merlin_fleet_rpc_redials_total 0' /tmp/fleet-ctl-out

# SIGKILL w2 mid-rollout: the rollout must halt and roll back rather than
# promote a version only part of the fleet can run.
printf 'fdeploy lb corpus:xdp1\n' >&8
for _ in $(seq 1 100); do
    grep -c 'ok fdeploy lb' /tmp/fleet-ctl-out | grep -q '^2$' && break
    sleep 0.1
done
printf 'fstep 1\n' >&8
for _ in $(seq 1 100); do
    grep -q 'ok fstep ' /tmp/fleet-ctl-out && break
    sleep 0.1
done
kill -9 "$W2_PID"
wait "$W2_PID" || true
printf 'fwait\n' >&8
for _ in $(seq 1 600); do
    grep -q 'ok fwait .*phase=failed' /tmp/fleet-ctl-out && break
    sleep 0.1
done
grep -q 'ok fwait .*phase=failed' /tmp/fleet-ctl-out
printf 'fevents\n' >&8
for _ in $(seq 1 100); do
    grep -q 'rollout-halted' /tmp/fleet-ctl-out && break
    sleep 0.1
done
grep -q 'rollout-halted' /tmp/fleet-ctl-out
# Traffic still flows around the dead worker with zero drops, and the fleet
# reports itself degraded once consecutive failures take w2 down.
for _ in $(seq 1 200); do
    printf 'ftraffic lb 16\nfleet\n' >&8
    sleep 0.1
    grep -q 'degraded=true' /tmp/fleet-ctl-out && break
done
grep -q 'degraded=true' /tmp/fleet-ctl-out
! grep -q 'dropped=[1-9]' /tmp/fleet-ctl-out
printf 'fmetrics\n' >&8
for _ in $(seq 1 100); do
    grep -q 'merlin_fleet_degraded 1' /tmp/fleet-ctl-out && break
    sleep 0.1
done
grep -q 'merlin_fleet_degraded 1' /tmp/fleet-ctl-out
grep -q 'merlin_fleet_rollouts_rolled_back_total 1' /tmp/fleet-ctl-out

# A fresh w2 under the same name rejoins via its announce loop; reconcile
# pushes the blessed catalog version back onto it and degradation clears.
/tmp/merlind-fleet -join "$CTL_ADDR" -name w2 -rejoin-every 250ms \
    -shadow 2 -canary 2 < /dev/null > /tmp/fleet-w2b-out 2>&1 &
W2_PID=$!
for _ in $(seq 1 200); do
    printf 'fleet\n' >&8
    sleep 0.1
    grep -q 'degraded=false' /tmp/fleet-ctl-out && break
done
grep -q 'degraded=false' /tmp/fleet-ctl-out

# SIGKILL the controller mid-rollout; its successor on the same state dir
# must recover the in-flight rollout from the journal and complete it.
printf 'fdeploy lb corpus:xdp1\nfstep 2\n' >&8
for _ in $(seq 1 100); do
    grep -c 'ok fstep ' /tmp/fleet-ctl-out | grep -q '^2$' && break
    sleep 0.1
done
kill -9 "$CTL_PID"
exec 8>&-
rm -f "$CTL_FIFO"
wait "$CTL_PID" || true

CTL2_FIFO=$(mktemp -u)
mkfifo "$CTL2_FIFO"
/tmp/merlind-fleet -controller "$CTL_ADDR" -state-dir "$FLEET_STATE" \
    < "$CTL2_FIFO" > /tmp/fleet-ctl2-out 2>&1 &
CTL2_PID=$!
exec 8> "$CTL2_FIFO"
for _ in $(seq 1 100); do
    grep -q 'ok controller ' /tmp/fleet-ctl2-out && break
    sleep 0.1
done
grep -q 'ok frecover workers=2 slots=1' /tmp/fleet-ctl2-out
! grep -q 'rollout=none' /tmp/fleet-ctl2-out
printf 'fwait\n' >&8
for _ in $(seq 1 600); do
    grep -q 'ok fwait ' /tmp/fleet-ctl2-out && break
    sleep 0.1
done
grep -q 'ok fwait .*phase=done' /tmp/fleet-ctl2-out
printf 'ftraffic lb 8\nfmetrics\nquit\n' >&8
wait "$CTL2_PID"
grep -q 'ok ftraffic lb sent=8 rerouted=0 dropped=0' /tmp/fleet-ctl2-out
grep -q 'merlin_fleet_workers{' /tmp/fleet-ctl2-out
grep -q 'worker="w1"' /tmp/fleet-ctl2-out
kill -9 "$W1_PID" "$W2_PID" || true
exec 8>&-
rm -rf "$FLEET_STATE" "$CTL2_FIFO" \
    /tmp/fleet-ctl-out /tmp/fleet-ctl2-out /tmp/fleet-w1-out /tmp/fleet-w2-out /tmp/fleet-w2b-out

# Federation smoke: a controller and two -superopt workers with their own
# stdin FIFOs. Worker A pays for the enumerative searches on a cold build of
# the ALU-chain module; one controller fcache round pulls A's verdict delta
# and pushes the merged union to worker B; the same build on worker B — a
# daemon that never ran a single search — must still come back strictly
# improved (saved>0) with searches=0 and every window verdict a cache hit.
FED_DIR=$(mktemp -d)
cat > "$FED_DIR/sochain.mir" <<'EOF'
module "sochain"

func fold(%ctx: ptr) -> i64 {
entry:
  %data = load ptr, %ctx, align 8
  %endp = gep %ctx, 8
  %end = load ptr, %endp, align 8
  %lim = bin add i64 %data, 14
  %short = icmp ugt i64 %lim, %end
  condbr %short, drop, work
drop:
  ret 1
work:
  %p = load ptr, %ctx, align 8
  %v = load i64, %p, align 8
  %a = bin add i64 %v, 5
  %b = bin add i64 %a, 3
  %c = bin add i64 %b, 7
  %d = bin mul i64 %c, 1
  %e = bin xor i64 %d, 0
  %f = bin add i64 %e, 0
  ret %f
}
EOF
go build -o /tmp/merlind-fed ./cmd/merlind
FCTL_FIFO=$(mktemp -u)
mkfifo "$FCTL_FIFO"
/tmp/merlind-fed -controller 127.0.0.1:0 -state-dir "$FED_DIR/state" \
    < "$FCTL_FIFO" > /tmp/fed-ctl-out 2>&1 &
FCTL_PID=$!
exec 8> "$FCTL_FIFO"
for _ in $(seq 1 100); do
    grep -q 'ok controller ' /tmp/fed-ctl-out && break
    sleep 0.1
done
FCTL_ADDR=$(grep 'ok controller ' /tmp/fed-ctl-out | head -1 | awk '{print $3}')

FWA_FIFO=$(mktemp -u)
FWB_FIFO=$(mktemp -u)
mkfifo "$FWA_FIFO" "$FWB_FIFO"
/tmp/merlind-fed -join "$FCTL_ADDR" -name wa -rejoin-every 250ms -superopt \
    -shadow 2 -canary 2 < "$FWA_FIFO" > /tmp/fed-wa-out 2>&1 &
FWA_PID=$!
exec 6> "$FWA_FIFO"
/tmp/merlind-fed -join "$FCTL_ADDR" -name wb -rejoin-every 250ms -superopt \
    -shadow 2 -canary 2 < "$FWB_FIFO" > /tmp/fed-wb-out 2>&1 &
FWB_PID=$!
exec 7> "$FWB_FIFO"
for _ in $(seq 1 100); do
    printf 'workers\n' >&8
    sleep 0.1
    grep -q 'ok workers n=2' /tmp/fed-ctl-out && break
done
grep -q 'ok workers n=2' /tmp/fed-ctl-out

# Cold build on worker A: must search (cache empty) and find rewrites.
printf 'build %s\n' "$FED_DIR/sochain.mir" >&6
for _ in $(seq 1 100); do
    grep -q 'ok build ' /tmp/fed-wa-out && break
    sleep 0.1
done
grep -q 'ok build .*outcome=built' /tmp/fed-wa-out
grep -Eq 'ok build .*searches=[1-9]' /tmp/fed-wa-out

# One federation round: both workers pulled, the union pushed to both.
printf 'fcache\n' >&8
for _ in $(seq 1 100); do
    grep -q 'ok fcache ' /tmp/fed-ctl-out && break
    sleep 0.1
done
grep -q 'ok fcache workers=2 pulled=2 .*pushed=2 skipped=0' /tmp/fed-ctl-out

# Warm build on worker B: same source, zero searches, every verdict a hit,
# and the program still comes back smaller than the baseline.
printf 'build %s\nmetrics\n' "$FED_DIR/sochain.mir" >&7
for _ in $(seq 1 100); do
    grep -q 'ok build ' /tmp/fed-wb-out && break
    sleep 0.1
done
grep -q 'ok build .*outcome=built' /tmp/fed-wb-out
grep -q 'searches=0 hits=[1-9]' /tmp/fed-wb-out
grep -Eq 'ok build .*saved=[1-9]' /tmp/fed-wb-out
for _ in $(seq 1 100); do
    grep -q 'merlin_superopt_cache_hits_total [1-9]' /tmp/fed-wb-out && break
    sleep 0.1
done
grep -q 'merlin_superopt_cache_hits_total [1-9]' /tmp/fed-wb-out
grep -q 'merlin_superopt_searches_total 0' /tmp/fed-wb-out
grep -q 'merlin_build_outcomes_total{outcome="built"} 1' /tmp/fed-wb-out

printf 'quit\n' >&6
printf 'quit\n' >&7
printf 'quit\n' >&8
wait "$FWA_PID" "$FWB_PID" "$FCTL_PID"
exec 6>&- 7>&- 8>&-
rm -rf "$FED_DIR" "$FCTL_FIFO" "$FWA_FIFO" "$FWB_FIFO" /tmp/merlind-fed \
    /tmp/fed-ctl-out /tmp/fed-wa-out /tmp/fed-wb-out

# Placement smoke: 3 workers, replication 2, authenticated control plane.
# Joins without the shared token must be refused; each slot lands on exactly
# two workers; SIGKILLing one replica mid-traffic must drop zero fan-outs
# (failover to the surviving replica) while the rebalancer repairs the slot
# onto the third worker (under_replicated 1 -> 0); a SIGKILLed controller
# must recover the placement map from its journal.
PLACE_STATE=$(mktemp -d)
PCTL_FIFO=$(mktemp -u)
mkfifo "$PCTL_FIFO"
/tmp/merlind-fleet -controller 127.0.0.1:0 -state-dir "$PLACE_STATE" \
    -replication 2 -control-token s3cr3t \
    < "$PCTL_FIFO" > /tmp/place-ctl-out 2>&1 &
PCTL_PID=$!
exec 8> "$PCTL_FIFO"
for _ in $(seq 1 100); do
    grep -q 'ok controller ' /tmp/place-ctl-out && break
    sleep 0.1
done
PCTL_ADDR=$(grep 'ok controller ' /tmp/place-ctl-out | head -1 | awk '{print $3}')

for i in 1 2 3; do
    /tmp/merlind-fleet -join "$PCTL_ADDR" -name "w$i" -rejoin-every 250ms \
        -control-token s3cr3t -shadow 2 -canary 2 \
        < /dev/null > "/tmp/place-w$i-out" 2>&1 &
    eval "PW${i}_PID=\$!"
done
for _ in $(seq 1 100); do
    printf 'workers\n' >&8
    sleep 0.1
    grep -q 'ok workers n=3' /tmp/place-ctl-out && break
done
grep -q 'ok workers n=3' /tmp/place-ctl-out

# A tokenless worker's joins must be refused: never admitted, and every
# refusal counts in the controller's auth-failure series.
/tmp/merlind-fleet -join "$PCTL_ADDR" -name intruder -rejoin-every 100ms \
    -shadow 2 -canary 2 < /dev/null > /tmp/place-bad-out 2>&1 &
PBAD_PID=$!
for _ in $(seq 1 100); do
    printf 'fmetrics\n' >&8
    sleep 0.1
    grep -q 'merlin_fleet_auth_failures_total [1-9]' /tmp/place-ctl-out && break
done
grep -q 'merlin_fleet_auth_failures_total [1-9]' /tmp/place-ctl-out
kill -9 "$PBAD_PID" || true
printf 'workers\n' >&8
sleep 0.3
! grep -q 'ok workers n=4' /tmp/place-ctl-out

# Deploy: the slot must land on exactly two of the three workers.
printf 'fdeploy lb corpus:xdp1\nfwait\n' >&8
for _ in $(seq 1 300); do
    grep -q 'ok fwait ' /tmp/place-ctl-out && break
    sleep 0.1
done
grep -q 'ok fwait .*phase=done' /tmp/place-ctl-out
printf 'placement\n' >&8
for _ in $(seq 1 100); do
    grep -q 'ok placement' /tmp/place-ctl-out && break
    sleep 0.1
done
grep -q 'placement slot=lb ver=1 live=2/2 replicas=' /tmp/place-ctl-out
VICTIM=$(grep 'placement slot=lb ' /tmp/place-ctl-out | head -1 \
    | sed 's/.*replicas=//' | cut -d, -f1)
eval "VICTIM_PID=\$PW${VICTIM#w}_PID"

# SIGKILL one replica mid-traffic: zero dropped fan-outs throughout (a live
# replica always holds the slot), the fleet notices the under-replication,
# and the rebalancer repairs onto the spare worker through the gates.
kill -9 "$VICTIM_PID"
wait "$VICTIM_PID" || true
for _ in $(seq 1 200); do
    printf 'ftraffic lb 16\nfmetrics\n' >&8
    sleep 0.1
    grep -q 'merlin_fleet_under_replicated 1' /tmp/place-ctl-out && break
done
grep -q 'merlin_fleet_under_replicated 1' /tmp/place-ctl-out
for _ in $(seq 1 600); do
    printf 'ftraffic lb 16\nplacement\nfmetrics\n' >&8
    sleep 0.1
    grep -q 'merlin_fleet_repairs_completed_total{mode="[a-z]*"} [1-9]' /tmp/place-ctl-out \
        && grep -q 'placement slot=lb ver=2 ' /tmp/place-ctl-out && break
done
grep -q 'merlin_fleet_repairs_completed_total{mode="[a-z]*"} [1-9]' /tmp/place-ctl-out
grep 'placement slot=lb ver=2 ' /tmp/place-ctl-out | head -1 \
    | sed 's/.*replicas=//' | grep -qv "$VICTIM"
printf 'fmetrics\n' >&8
for _ in $(seq 1 100); do
    printf 'fmetrics\n' >&8
    sleep 0.1
    grep -q 'merlin_fleet_under_replicated 0' /tmp/place-ctl-out && break
done
grep -q 'merlin_fleet_under_replicated 0' /tmp/place-ctl-out
! grep -q 'dropped=[1-9]' /tmp/place-ctl-out

# The controller dies; its successor recovers the exact placement map.
kill -9 "$PCTL_PID"
exec 8>&-
rm -f "$PCTL_FIFO"
wait "$PCTL_PID" || true
PCTL2_FIFO=$(mktemp -u)
mkfifo "$PCTL2_FIFO"
/tmp/merlind-fleet -controller "$PCTL_ADDR" -state-dir "$PLACE_STATE" \
    -replication 2 -control-token s3cr3t \
    < "$PCTL2_FIFO" > /tmp/place-ctl2-out 2>&1 &
PCTL2_PID=$!
exec 8> "$PCTL2_FIFO"
for _ in $(seq 1 100); do
    grep -q 'ok controller ' /tmp/place-ctl2-out && break
    sleep 0.1
done
grep -q 'ok frecover workers=3 slots=1 placements=1' /tmp/place-ctl2-out
for _ in $(seq 1 200); do
    printf 'ftraffic lb 16\nplacement\n' >&8
    sleep 0.1
    grep -q 'ok placement' /tmp/place-ctl2-out && break
done
grep 'placement slot=lb ' /tmp/place-ctl2-out | head -1 \
    | sed 's/.*replicas=//' | grep -qv "$VICTIM"
! grep -q 'dropped=[1-9]' /tmp/place-ctl2-out
printf 'quit\n' >&8
wait "$PCTL2_PID"
kill -9 "$PW1_PID" "$PW2_PID" "$PW3_PID" 2>/dev/null || true
exec 8>&-
rm -rf "$PLACE_STATE" "$PCTL2_FIFO" /tmp/merlind-fleet \
    /tmp/place-ctl-out /tmp/place-ctl2-out /tmp/place-w1-out /tmp/place-w2-out \
    /tmp/place-w3-out /tmp/place-bad-out

# Fleet soaks: seeded worker SIGKILLs and one-way partitions against a live
# fleet under the race detector, plus the replica-loss soak (R=2, token-armed,
# one replica SIGKILLed and one partitioned with zero drops, self-healing
# repair, controller recovery). The audits fail the run if a fan-out drops a
# packet while any continuously-reachable worker held the program, if a
# diverging candidate is ever promoted fleet-wide, or if a slot stays lost or
# under-replicated after the chaos heals.
go test -race -run 'TestFleetSoak|TestReplicaLoss' ./internal/soak/
# RunFleet places each slot on two of its three workers, so a kill plus a
# partition can take out both replicas: three more passes over the seed sweep
# walk that total-outage audit path under different interleavings.
go test -race -count=3 -run 'TestFleetSoakSeeds' ./internal/soak/
