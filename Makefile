# Tier-1 gate: everything CI (and the ROADMAP) requires to stay green.
.PHONY: check build fmt vet test race lanes stress alloc bench bench-smoke bench-baseline batch chaos occ failover failover-lane scan examples tx-lines lines

check: build fmt vet lanes race stress alloc batch occ chaos failover scan bench-smoke examples

build:
	go build ./...

# Formatting gate: gofmt must have nothing to rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Stress lane: the suites that are free of real-time lease windows — the HTM
# engine's invariants, the record-access state machine and image check, the
# hash-path and ordered-path golden tables, the staging regression tests, a
# write declared after a leased read losing to that lease (shared with another
# node's Tx or RO reader, or its own) and an upgrade after a speculative read, the
# Stage-vs-per-row equivalence property and partial-failure tests, the
# speculative read routes of read-only transactions and ordered tables
# (leaseless state words, header re-validation, the transfer invariant under
# local and remote writers), PolicyAdaptive's escalation of a transaction that
# keeps losing its validations to leases, the software fallback (its golden
# table, the region-vs-fallback commit equivalence property, the insert
# rollback and lock-ahead recovery regressions and the fallback tests that wait
# on no lease), recovery's redo rule (a logged row re-inserted since is left
# alone; only a key's last update in a log is redone), the commit installing
# what its record logs (each update's version and incarnation read back from
# the write-ahead log and the backups' rings, region and fallback), the per-attempt location memo of declared local records (one
# index lookup per record per attempt; an erase, a recycled slot or a bucket
# move dooms the attempt or is re-resolved by the next), the B+ tree leaf
# fingers (equivalence with and without one and intact leaf fences after every
# step, four goroutines' fingers under each other's splits, eviction in recency
# order, kvs churn ending in the same index and free list, the seed corpora of
# both fuzz targets), the
# release side's one doorbell chain (a fault at every position of a commit's
# chain and of an abort's release wave under lease and speculative readers; a
# zombie's clean releases against a lock that changed hands; the wave counts),
# the in-place log readers (Log.Scan's buffer contract, the redo
# iterator's framing checks and fuzz seed corpus, a sink's drain against what
# was appended, a fenced append leaving the ring untouched), the shipped
# lookup's replied image (the same words, verdict and record as a READ of the
# replied offset; consumed by the speculative arm alone; a fault at every verb of
# the shorter Start phase), the one-record read-only rule (its conditions one by
# one, and one-line rows read whole under unthrottled local and remote writers),
# the ordered regions' location-cache frames (the image at a cached offset judged
# per slot history and held to the uncached answer, a lost cached READ, a frame
# never used across a promotion; nobody but the speculative read-only fetch
# asking the cache), the mirrored removal of a lagging replica's entry, the
# f = 1 commit order (a survivor locking or reading a row between its writer's
# XEND and redo append, the writer dying before the append lands; a ring
# truncated past a record whose write-back went to a dead primary), a release
# step for a dead node run at once (a deferred insert or delete surviving a
# failover), the NVRAM logs' lifetime rule (a coordinator killed at every step
# of a transfer behind a committed one, region and fallback, f = 0 and 1; a
# release owed to a dead node keeping no log, at f = 0 and at f = 1; a zombie's
# log keeping its history, of which Recover redoes a key's last update alone;
# records surviving an arena's grows, a restart never tearing a concurrent
# scan, the append / reserve / restart model fuzz's seeds), the progress
# guarantee (the bank invariant's transfers and audits back to back, a transfer
# against unthrottled writers of its rows committing by its first escalated
# attempt), the commit point's one validation (one verdict and cause per
# commit point, table, row, read kind and what happened between the Start
# phase and the commit; a row mid-commit seen as one line; the speculative
# arm's cost and its writer-bump abort, its upgrade and a read-only and
# read-write stress of it; phantoms and a read-only scan's confirmation; an escalated scan pinning its rows; read-only
# and writer transactions leaving no lock), the born slot (a remote insert's
# fresh slot held for its inserter from the host's answer on: a rival insert, a
# speculative read and a CAS all lose to it; a faulted message retried before
# it applies; a host dying after its answer, the slots released on its memory; an
# insert of an existing subscriber releasing the fresh facility rows' slots),
# the release side left in flight (a commit with no log charged its chain's
# doorbells, a later READ paying what is left, the new value and free word seen
# at once; a durable commit without backups awaited, a replicated one not; a
# redo record without the home bit while a chain is in flight, and a ring
# bounded behind one-way messages; a removal a one-way message per host,
# retried past a transient fault), the release stage's one host-op path (a
# commit's deferred insert, deferred delete and unlink for one host as one
# message, retried whole past a fault, run at once for a host that died before
# it: on its memory at f = 0, at the promoted owner at f = 1, where the unlink
# reaches the promoted copy too), the quiescence audit (a leaked lock named by
# table and key, a replica's by its partition too, a freed ordered slot passed
# over, a dead machine not audited), the copy rule of the host-side structural ops
# (which copies hold a key after each op at f = 0, on the home primary and on a
# promoted owner; the redo lock held and released), two clients churning the same subscribers,
# a soft clock's Stop waiting out a tick under way, and the crash rig's phases,
# error stop, crashed-machine idle and outage count (internal/crashrig) — repeated across
# core counts, and once more on one core without the race detector, which
# slows a writer enough to hide a starved reader. A red run here is a bug,
# never a rerun.
STRESS_TX = TestAcquirer|TestImageCheck|TestHashPathGolden|TestLeaseSharingAcrossNodes|TestLeasedReadOutlastsSharingWriter|TestUpgradeReadToWrite|TestRegionRetry|StaleLocation|TestEraseLosesRaceOnIndexedRow|TestFallbackDropsAbortedAttemptsDeferredOps|TestFallbackErasesTheVersionItDeclared|TestStageEquivalence|TestStagePartialFailure|TestReadOnlyAdaptiveLeavesNoLease|TestROSpecLocal|TestAdaptiveEscalation|TestFallbackGolden|TestFallbackCommitEquivalence|TestAbortedAttemptRestoresOwnInserts|TestRecoveryUnlocksFallbackLocks|TestRecoveryRedoesBeforeItUnlocks|TestRecoveryLeavesReinsertedRowAlone|TestRecoveryRedoesAKeysLastUpdate|TestRecoverAfterReviveFreesNothing|TestCommitInstallsItsRecord|TestFallbackWithRemoteRecords|TestFallbackUserAbort|TestGlobalAtomicsUsesLocalCAS|TestMemo|TestLocalLookupOncePerAttempt|TestCommitChainUnderFaults|TestCleanReleaseNeverClobbers|TestCommitIsOneDoorbell|TestShipped|TestROSingle|TestOrderedCache|TestMirroredRemovalLeavesNoReplicaEntry|TestLogLifetimeCrashPoints|TestLogsRestartPastReleaseToDeadNode|TestReplicatedCommitHoldsLocalRows|TestRingDrainsPastDeadWriteBack|TestDeferredStoreOpsSurviveFailover|TestRecoverRefusesReplicatedCluster|TestBankInvariantConcurrent|TestWriterStarvationBound|TestEscalated|TestValidate|TestFallbackMovedHeaderTracesSpec|TestSpec|TestScanPhantom|TestROScanConfirm|TestROEscalationPinsScannedRows|TestConcurrentROAndWriters|TestBornSlot|TestCoalescedFaultHostCrashBeforeWave|TestDetachedCommit|TestLoggedCommitWaits|TestRedoHomeWaitsForChain|TestRedoRingBoundedBehindSends|TestAuditQuiescent|TestCopyRule|TestRemovalIsOneWayMessage|TestPostCommitHostOps|TestZombieWaitsForNoLock
STRESS_TATP = TestConcurrentSubscriberLifecycle|TestSameSubscriberChurn|TestOrderedPathGolden|TestInsertExistingSubscriberReleasesBornSlots
STRESS_CLOCK = TestSoftClockStopWaitsOutTimer
# Set-up's parallel loader: every copy of every partition loaded at once must
# build the shards a one-goroutine load builds, word for word (SmallBank at
# f = 0 and 1, TATP and the social graph at f = 1), and a hash insert's one
# walk of its chain picks the slot it always did.
STRESS_LOAD = TestLoadBuildsSameShards
STRESS_KVS = TestInsertOneProbe
stress:
	go test -race -count=5 -cpu 1,2,4 ./internal/htm/
	go test -race -count=5 -cpu 1,2,4 -run 'Flush|TestBatch|TestPollDetached|TestSendOneWay' ./internal/rdma/
	go test -race -count=5 -cpu 1,2,4 -run 'Finger|FuzzIteratorBoundaries' ./internal/btree/ ./internal/kvs/
	go test -race -count=5 -cpu 1,2,4 -run 'Redo|LogScan|Drain|LogGrow|Restart|AppendTxFull|FuzzLogModel' ./internal/nvram/ ./internal/cluster/
	go test -race -count=5 -cpu 1,2,4 -run '$(STRESS_TX)' ./internal/tx/
	GOMAXPROCS=1 go test -count=20 -cpu 1 -run '$(STRESS_TX)' ./internal/tx/
	go test -race -count=5 -cpu 1,2,4 -run '$(STRESS_TATP)' ./internal/tatp/
	go test -race -count=5 -cpu 1,2,4 -run '$(STRESS_CLOCK)' ./internal/clock/
	go test -race -count=5 -cpu 1,2,4 ./internal/crashrig/
	go test -race -count=3 -cpu 1,2,4 -run '$(STRESS_LOAD)' .
	go test -race -count=5 -cpu 1,2,4 -run '$(STRESS_KVS)' ./internal/kvs/

# Allocation gate: a warm HTM region allocates nothing, a committed
# transaction — hash or ordered, structural rows and shipped messages included
# — stays inside its object budget, a 20-record read-only transaction and a
# local read-modify-write of ten adjacent ordered rows allocate nothing, and
# neither does a SmallBank deposit or cross-node payment, nor any TATP
# transaction type, local or remote (leaf splits aside), nor a replicated
# two-row commit through its backups' sinks, nor a redo ring of 100 records
# drained by the next append, nor the retiring of a chain slot of any width; a B+ tree node is one
# object, so an insert into a leaf with room allocates nothing and a leaf split
# exactly the new leaf; a TPC-C new-order allocates only the leaves its inserts
# split, and a payment, order-status, stock-level and delivery nothing (all
# excluded under -race); so does a warm RO range scan, local or remote (the
# host answers into the executor's buffers), and so does the commit point's
# validate, inside a region and outside one. Memory that stays: every TATP
# shard, primary and replica, is exactly its partition's size and holds the
# lifecycle mix; a SmallBank account is one cache line, with no version chain,
# and the indirect buckets hold the benchmark's 200 000 accounts per node; and
# TPC-C's order tables hold a warm-up as long as the measured run. One
# package:-run pattern per entry.
ALLOC_LANE = ./internal/htm/:TestRegionAllocatesNothing \
	./internal/btree/:TestNodeAllocations \
	./internal/nvram/:TestLogScanBufferGrowthAndReuse \
	./internal/kvs/:TestRetireLocalRowWidths \
	./internal/tx/:TestExecAllocSteadyState|TestValidateAllocSteadyState|TestOrderedAllocSteadyState|TestLocalOrderedAllocSteadyState|TestReplicatedCommitAllocSteadyState \
	./internal/smallbank/:TestAllocSteadyState \
	./internal/tpcc/:TestAllocSteadyState \
	./internal/tatp/:TestAllocSteadyState \
	./internal/tatp/:TestShardsSizedForTheirPartition \
	./internal/smallbank/:TestSetupAtBenchmarkScale \
	./internal/tpcc/:TestOrderReserveCoversWarmUp
alloc:
	@for t in $$(echo '$(ALLOC_LANE)'); do \
		echo "go test -count=1 -run '$${t#*:}' $${t%%:*}"; \
		go test -count=1 -run "$${t#*:}" $${t%%:*} || exit 1; \
	done

# Lane-name guard: every alternative of each stress, alloc and failover-lane
# pattern and of each gate's -run names (chaos, batch, occ, failover, scan)
# must name at least one test, benchmark or fuzz target of its package (go test
# -list), so a renamed test cannot drop out of a lane silently.
LANES = ./internal/tx/:$(STRESS_TX) ./internal/tatp/:$(STRESS_TATP) ./internal/clock/:$(STRESS_CLOCK) \
	.:$(STRESS_LOAD) ./internal/kvs/:$(STRESS_KVS) \
	./internal/tx/:$(CHAOS_TX) .:$(CHAOS_ROOT) ./internal/bench/:$(BATCH_TESTS) ./internal/bench/:$(OCC_TESTS) \
	./internal/bench/:$(FAILOVER_BENCH) .:$(FAILOVER_ROOT) ./internal/bench/:$(SCAN_TESTS) \
	$(ALLOC_LANE) $(FAILOVER_LANE)
lanes:
	@bad=0; for t in $$(echo '$(LANES)'); do pkg=$${t%%:*}; \
		names=$$(go test -list . $$pkg | grep -E '^(Test|Benchmark|Fuzz|Example)') || exit 1; \
		for alt in $$(echo "$${t#*:}" | tr '|' ' '); do \
			echo "$$names" | grep -Eq -- "$$alt" || { echo "$$pkg: lane name $$alt matches no test"; bad=1; }; \
		done; \
	done; [ $$bad -eq 0 ] && echo "lanes: every lane name matches a test"

# The two sizes of non-test internal/tx the ROADMAP tracks: lines, and lines
# that are neither blank nor comment.
tx-lines:
	@ls internal/tx/*.go | grep -v _test | xargs cat | wc -l
	@ls internal/tx/*.go | grep -v _test | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

# The two sizes of the repository's non-test Go the ROADMAP tracks, over the
# files git knows: lines, and lines that are neither blank nor comment.
lines:
	@git ls-files '*.go' | grep -v _test.go | xargs cat | wc -l
	@git ls-files '*.go' | grep -v _test.go | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

# Whole-system smoke run: every benchmark workload and the ladder at 1/100
# scale; exits non-zero when a correctness check fails (benchmark/README.md).
bench-smoke:
	go run ./benchmark -scale 0.01

# The example programs: each exits non-zero when its invariant breaks (audit
# totals, money conservation across a crash, TPC-C / TATP consistency, cache
# reads of deleted keys).
EXAMPLES = quickstart recovery smallbank tatp tpcc kvcache
examples:
	@for ex in $(EXAMPLES); do echo "== examples/$$ex"; go run ./examples/$$ex || exit 1; done

# Crash-consistency gate: SmallBank under repeated crashes with lease-based
# detection and online recovery; conservation must hold. The coalesced
# messages keep the per-op fault semantics, a fault at any verb of the Start
# phase is retried, not taken for a dead host (stage_fault_test.go), and a
# coordinator killed at any step of a commit leaves it whole or absent with its
# logs holding that transaction alone (recovery_test.go), also with a survivor
# acting between its XEND and its redo append, and a release step owed to a
# dead node runs at once and keeps no log, at f = 0 as at f = 1
# (repl_window_test.go). make lanes guards the CHAOS_TX and CHAOS_ROOT names.
CHAOS_TX = TestCoalescedFault|TestStartPhaseFaultAtEveryVerb|TestShippedLookupFaultAtEveryVerb|TestOrderedCacheFault|TestLogLifetimeCrashPoints|TestLogsRestartPastReleaseToDeadNode|TestReplicatedCommitHoldsLocalRows
CHAOS_ROOT = TestChaosSmallBankConservation
chaos:
	go run ./cmd/drtm-bench -exp chaos -quick
	go test -race -run '$(CHAOS_ROOT)' .
	go test -race -count=1 -run '$(CHAOS_TX)' ./internal/tx/

# Doorbell-batching gate: the async verb engine must keep its win over the
# serial window=1 control arm, for one-sided records, for shipped ordered /
# structural declares and for the commit's chain alike (internal/bench/
# batchexp.go, batchexp_test.go), and a distributed SmallBank transaction must
# pay one lock wave, one publish wave and no CAS past its serialization point
# (distexp.go, TestSmokeDistWaves).
BATCH_TESTS = TestBatchAcceptance|TestSmokeDistWaves
batch:
	go run ./cmd/drtm-bench -exp batch -quick
	go run ./cmd/drtm-bench -exp dist-waves -quick
	go test -count=1 -run '$(BATCH_TESTS)' ./internal/bench/

# Speculative-read gate: the one-RTT OCC arm must keep its low-contention
# win over lease CAS and show the write-ratio crossover (occexp_test.go).
OCC_TESTS = TestOCCAcceptance
occ:
	go run ./cmd/drtm-bench -exp occ -quick
	go test -run '$(OCC_TESTS)' ./internal/bench/

# Replication gate: neither repair — Recover of the victim's NVRAM logs, or
# hot-standby promotion — may lose a committed transaction, and the work of
# each in log records must stay under a constant whatever history precedes the
# crash (failoverexp_test.go), with conservation re-checked under -race.
FAILOVER_BENCH = TestFailoverAcceptance
FAILOVER_ROOT = TestFailoverSmallBankConservation
failover:
	go run ./cmd/drtm-bench -exp failover -quick
	go test -run '$(FAILOVER_BENCH)' ./internal/bench/
	go test -race -run '$(FAILOVER_ROOT)' .
	@$(MAKE) --no-print-directory failover-lane

# The failover tests that -race slows enough to hide their reds: the TATP
# invariant across a crash + promotion under each of its fault seeds, the social
# graph's edge symmetry across one, and SmallBank's conservation across a
# detector-driven failover — each 30 runs at each of -cpu 1 and 2, without the
# race detector, one process per run (a failure of these tests is often a panic,
# which would end a -count loop at its first), with the failure modes counted per
# test: what a red run said first, numbers blanked. A run that hangs is killed by
# its -test.timeout and counted red with its own mode line. Red on any run.
FAILOVER_RUNS = 30
FAILOVER_LANE = ./internal/tatp/:TestTATPConsistencyAcrossFailover \
	./internal/socialgraph/:TestSymmetryAcrossFailover \
	.:TestFailoverSmallBankConservation
failover-lane:
	@dir=$$(mktemp -d) && red=0 && \
	for t in $(FAILOVER_LANE); do pkg=$${t%%:*}; name=$${t##*:}; bad=0; rm -f $$dir/modes; \
		go test -c -o $$dir/lane.test $$pkg || exit 1; \
		for cpu in 1 2; do for i in $$(seq $(FAILOVER_RUNS)); do \
			$$dir/lane.test -test.run "$$name\$$" -test.cpu $$cpu -test.timeout 120s >$$dir/out 2>&1 || { \
				bad=$$((bad+1)); \
				grep -m1 -E 'panic:|_test.go:[0-9]+:' $$dir/out | sed -E 's/^[[:space:]]+//; s/0x[0-9a-f]+|[0-9]+/N/g' >>$$dir/modes; }; \
		done; done; \
		echo "$$name: $$bad of $$((2*$(FAILOVER_RUNS))) runs red (-cpu 1,2)"; \
		if [ -f $$dir/modes ]; then sort $$dir/modes | uniq -c | sort -rn; fi; \
		red=$$((red+bad)); \
	done; \
	rm -rf $$dir; [ $$red -eq 0 ]

# Range-scan gate: the RO-scheme scan must keep its >=2x amortization win
# over per-key lease reads (scanexp_test.go), and the workload invariant
# suites must hold under -race with faults and mid-run failover.
SCAN_TESTS = TestScanAcceptance
scan:
	go run ./cmd/drtm-bench -exp scan -quick
	go test -run '$(SCAN_TESTS)' ./internal/bench/
	go test -race ./internal/tatp/ ./internal/socialgraph/

# Full-scale experiment sweep (slow); see cmd/drtm-bench -h for single runs.
bench:
	go run ./cmd/drtm-bench -exp all

# Regenerate the committed baseline tables at full scale, fixed seed.
bench-baseline:
	go run ./cmd/drtm-bench -exp batch,occ,failover,scan,ablate-atomics,dist-waves -seed 42 -json BENCH_baseline.json
