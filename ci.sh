#!/bin/sh
# CI gate: formatting, static checks, full build, the test suite under the
# race detector, fuzz and benchmark-correctness smokes, and extra passes of
# the chaos tests. The end-to-end daemon flows (lifecycle, fleet,
# federation, placement, superopt cache) are Go tests in internal/clitest,
# run by the -race leg. Run from the repository root.
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

# The keyed store under both caches gets a second pass of its seeded storage
# faults (ENOSPC/EIO/torn writes) and of its merge-while-compacting race,
# over the verdict and artifact codecs; the lifecycle storage soak (three
# seeds of 1% faults under churn and live traffic) gets one too.
go test -race -count=2 -run 'TestStoreChaosSurvival|TestStoreMergeWhileCompacting|TestChaosSoak' ./internal/journal/ ./internal/lifecycle/

# The fleet chaos scenarios: seeded random schedules of worker kills,
# partitions, deploys and controller crashes under 2% control-RPC faults, and
# the fixed replica-loss schedule. Each random slot has two replicas of three
# workers, so a kill plus a partition can take out both: three more passes
# walk that total-outage audit path under different interleavings.
go test -race -count=3 -run 'TestScenarioFleet|TestScenarioReplicaLoss' ./internal/fleet/
