package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"drtm/internal/btree"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/rdma"
	"drtm/internal/tx"
	"drtm/internal/vtime"
)

// The ladder times calls into each layer's exported functions, bottom up:
// memory → htm → rdma → kvs/btree → nvram → tx. A rung is single-threaded
// and reports the median ns per call of ladderReps timed repetitions, so a
// change to one layer shows on its own rung and on every rung above it.
const ladderReps = 5

// Ladder tables are sized like smallbank_dist's: 200 000 rows per node in
// 50 000 main buckets, which is more than the 32 Ki frames of a location
// cache, so remote lookups can be made to hit or miss.
const (
	ladderHash    = 1
	ladderOrdered = 2
	// An ordered key carries its partition in the high half so a range scan
	// stays on one node (the Tx.Scan co-location contract).
	ladderOrderedShift = 32
	ladderInsertCap    = 1 << 18
)

// scramble spreads consecutive indices over the key space; it is a bijection
// on uint64, so distinct indices give distinct keys.
func scramble(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 }

// rung is one timed operation; op is called with a running index.
type rung struct {
	name   string // metric name of the ns/op value
	allocs string // metric name of the allocs/op value, "" when not reported
	perOp  int    // calls folded into one op (batch16 posts 16 WRs); 0 means 1
	op     func(i int)
}

// timeRung calibrates a repetition to about repDur, then times ladderReps of
// them and returns the median ns per op and the mean allocations per op.
func timeRung(r rung, repDur time.Duration, origin time.Time, spans *[]span) (nsPerOp, allocsPerOp float64) {
	i := 0
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for end := i + n; i < end; i++ {
			r.op(i)
		}
		return time.Since(t0)
	}
	n := 16
	for {
		d := batch(n)
		if d >= repDur/2 || n >= 1<<28 {
			n = int(float64(n) * float64(repDur) / float64(d+1))
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	per := make([]float64, ladderReps)
	for rep := range per {
		start := time.Since(origin)
		d := batch(n)
		per[rep] = float64(d) / float64(n)
		*spans = append(*spans, span{name: r.name, parent: -1, attempts: int32(n),
			startNS: int64(start), endNS: int64(start + d)})
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(per)
	calls := float64(max(r.perOp, 1))
	return per[ladderReps/2] / calls, float64(m1.Mallocs-m0.Mallocs) / float64(ladderReps*n) / calls
}

// runLadder builds the ladder's fixtures, times every rung for about repDur
// per repetition, and writes the ladder's spans to trace-ladder.json.
func runLadder(p params, repDur time.Duration, log io.Writer) (values, error) {
	lc, err := newLadderCluster(p)
	if err != nil {
		return nil, err
	}
	defer lc.stop()
	rungs, err := ladderRungs(lc)
	if err != nil {
		return nil, err
	}
	v := values{}
	var spans []span
	for _, r := range rungs {
		ns, allocs := timeRung(r, repDur, lc.origin, &spans)
		v[r.name] = ns
		if r.allocs != "" {
			v[r.allocs] = allocs
		}
	}
	v["tx.exec_remote_rw2.declare_share"] = lc.declareShare(&spans, log)
	if _, err := writeTrace(p.outDir, "ladder", spans); err != nil {
		return nil, fmt.Errorf("ladder: write trace: %w", err)
	}
	return v, nil
}

// ladderCluster is the 2-node cluster the tx rungs run on.
type ladderCluster struct {
	rt          *tx.Runtime
	e           *tx.Executor // node 0's worker
	rows        int          // hash rows per node; key k lives on node k%2
	orderedRows int          // ordered rows per node
	origin      time.Time    // zero of the ladder trace's time axis
	stop        func()
}

func newLadderCluster(p params) (*ladderCluster, error) {
	rows := p.scaled(200_000)
	c, rt := newCluster(func(table int, key uint64) int {
		if table == ladderOrdered {
			return int(key>>ladderOrderedShift) % nodes
		}
		return int(key % nodes)
	}, nil)
	orderedRows := p.scaled(20_000)
	lc := &ladderCluster{rt: rt, e: rt.Executor(0, 0), rows: rows, orderedRows: orderedRows,
		origin: time.Now(), stop: c.Stop}
	rt.DefineUnordered(ladderHash, rows/4, rows/4, rows+16, 1)
	rt.DefineOrdered(ladderOrdered, orderedRows+16, 1)
	for k := uint64(0); k < uint64(nodes*rows); k++ {
		if err := c.Node(int(k%nodes)).Unordered(ladderHash).Insert(k, []uint64{k}); err != nil {
			c.Stop()
			return nil, fmt.Errorf("ladder: populate hash: %w", err)
		}
	}
	for n := uint64(0); n < nodes; n++ {
		for j := uint64(0); j < uint64(orderedRows); j++ {
			if err := c.Node(int(n)).Ordered(ladderOrdered).Insert(n<<ladderOrderedShift|j, []uint64{j}); err != nil {
				c.Stop()
				return nil, fmt.Errorf("ladder: populate ordered: %w", err)
			}
		}
	}
	return lc, nil
}

// must panics on an engine error inside a rung: the rungs are conflict-free
// single-client calls, so an error is a bug, not an outcome to measure.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("ladder: %v", err))
	}
}

// localRW1 is a read-modify-write of one local record.
func (lc *ladderCluster) localRW1(i int) {
	k := uint64(i%lc.rows) * nodes // node 0
	must(lc.e.Exec(func(t *tx.Tx) error {
		if err := t.W(ladderHash, k); err != nil {
			return err
		}
		return t.Execute(func(l *tx.Local) error {
			v, err := l.Read(ladderHash, k)
			if err != nil {
				return err
			}
			return l.Write(ladderHash, k, []uint64{v[0] + 1})
		})
	}))
}

// rw2Clock receives the phase boundaries of one remoteRW2 call, as offsets
// from the ladder's origin; nil means untimed.
type rw2Clock struct{ declare0, declare1, exec0, body0, body1, exec1 time.Duration }

// remoteRW2 moves one unit from a remote record to a local one: the Start
// phase (t.W: remote lookup, lock, prefetch), then the HTM region and the
// remote write-back inside t.Execute.
func (lc *ladderCluster) remoteRW2(i int, ck *rw2Clock) {
	local := uint64(i%lc.rows) * nodes
	remote := uint64((i*7+3)%lc.rows)*nodes + 1
	must(lc.e.Exec(func(t *tx.Tx) error {
		if ck != nil {
			ck.declare0 = time.Since(lc.origin)
		}
		if err := t.W(ladderHash, remote); err != nil {
			return err
		}
		if err := t.W(ladderHash, local); err != nil {
			return err
		}
		if ck != nil {
			ck.declare1 = time.Since(lc.origin)
			ck.exec0 = ck.declare1
		}
		err := t.Execute(func(l *tx.Local) error {
			if ck != nil {
				ck.body0 = time.Since(lc.origin)
			}
			r, err := l.Read(ladderHash, remote)
			if err != nil {
				return err
			}
			v, err := l.Read(ladderHash, local)
			if err != nil {
				return err
			}
			if err := l.Write(ladderHash, remote, []uint64{r[0] - 1}); err != nil {
				return err
			}
			err = l.Write(ladderHash, local, []uint64{v[0] + 1})
			if ck != nil {
				ck.body1 = time.Since(lc.origin)
			}
			return err
		})
		if ck != nil {
			ck.exec1 = time.Since(lc.origin)
		}
		return err
	}))
}

// ro20 reads 20 consecutive keys, ten local and ten remote.
func (lc *ladderCluster) ro20(i int) {
	base := uint64((i * 20) % (nodes*lc.rows - 20))
	must(lc.e.ExecRO(func(ro *tx.RO) error {
		for k := base; k < base+20; k++ {
			if _, err := ro.Read(ladderHash, k); err != nil {
				return err
			}
		}
		return nil
	}))
}

// roScan32 scans 32 consecutive ordered rows, alternately local and remote.
func (lc *ladderCluster) roScan32(i int) {
	lo := uint64(i%nodes)<<ladderOrderedShift | uint64((i*32)%(lc.orderedRows-32))
	must(lc.e.ExecRO(func(ro *tx.RO) error {
		rows, err := ro.Scan(ladderOrdered, lo, lo+31, 0)
		if err == nil && len(rows) != 32 {
			err = fmt.Errorf("scan of 32 rows returned %d", len(rows))
		}
		return err
	}))
}

// declareShare runs remoteRW2 with a clock, records each call as a span tree
// (tx.exec_remote_rw2 → declare, execute → body) and returns the share of
// the calls' time spent declaring, i.e. in the Start phase.
func (lc *ladderCluster) declareShare(spans *[]span, log io.Writer) float64 {
	const calls = 2000
	for i := 0; i < calls/10; i++ {
		lc.remoteRW2(i, nil)
	}
	// The calls' spans are built with tree-local parents for selfTimes and
	// appended to the ladder's spans re-based.
	tree := make([]span, 0, 4*calls)
	for i := 0; i < calls; i++ {
		var ck rw2Clock
		t0 := time.Since(lc.origin)
		lc.remoteRW2(i, &ck)
		t1 := time.Since(lc.origin)
		root := int32(len(tree))
		tree = append(tree,
			span{name: "tx.exec_remote_rw2", parent: -1, attempts: 1, startNS: int64(t0), endNS: int64(t1)},
			span{name: "declare", parent: root, startNS: int64(ck.declare0), endNS: int64(ck.declare1)},
			span{name: "execute", parent: root, startNS: int64(ck.exec0), endNS: int64(ck.exec1)},
			span{name: "body", parent: root + 2, startNS: int64(ck.body0), endNS: int64(ck.body1)})
	}
	base := int32(len(*spans))
	for _, sp := range tree {
		if sp.parent >= 0 {
			sp.parent += base
		}
		*spans = append(*spans, sp)
	}
	self := selfTimes(tree)
	var total int64
	for _, ns := range self {
		total += ns
	}
	fmt.Fprintf(log, "ladder: tx.exec_remote_rw2 self time over %d calls:", calls)
	for _, name := range []string{"declare", "execute", "body", "tx.exec_remote_rw2"} {
		fmt.Fprintf(log, " %s %.1f%%", name, 100*ratio(float64(self[name]), float64(total)))
	}
	fmt.Fprintln(log)
	return ratio(float64(self["declare"]), float64(total))
}

// ladderRungs builds every fixture and returns the rungs in report order.
func ladderRungs(lc *ladderCluster) ([]rung, error) {
	rows, orderedRows := lc.rows, lc.orderedRows

	// memory: one arena, 64-byte (one line) accesses at rotating offsets.
	arena := memory.NewArena(0, 1<<16)
	line := make([]uint64, memory.WordsPerLine)
	lineOff := func(i int) memory.Offset { return memory.Offset((i * memory.WordsPerLine) % (1 << 15)) }

	// htm: a standalone engine over its own arena.
	eng := htm.NewEngine(htm.Config{})
	harena := memory.NewArena(0, 4096)
	htmRW := func(lines int) func(int) {
		return func(int) {
			_ = eng.Run(func(t *htm.Txn) error {
				for j := 0; j < lines; j++ {
					off := memory.Offset(j * memory.WordsPerLine)
					t.Write(harena, off, t.Read(harena, off)+1)
				}
				return nil
			})
		}
	}

	// rdma: a 2-node fabric with one registered region and an echo handler.
	fab := rdma.NewFabric(nodes, vtime.DefaultModel(), rdma.AtomicHCA)
	for n := 0; n < nodes; n++ {
		fab.Register(n, 0, memory.NewArena(n, 1<<16))
	}
	fab.Serve(1, func(from int, req any) any { return req })
	qp := fab.NewQP(0, nil)
	sq := qp.NewSendQueue(16)
	var batchDst [16][memory.WordsPerLine]uint64
	var casWord uint64

	// kvs: a standalone hash shard with smallbank_dist's geometry, read
	// remotely through a cache that holds every bucket (hit) and one that
	// holds almost none (miss), and a standalone ordered shard.
	tb := kvs.New(kvs.Config{Node: 1, RegionID: 0, MainBuckets: rows / 4, IndirectBuckets: rows / 4,
		Capacity: rows + 16, ValueWords: 1, ChainDepth: 4}, htm.NewEngine(htm.Config{}))
	for k := 0; k < rows; k++ {
		if err := tb.Insert(uint64(k)+1, []uint64{uint64(k)}); err != nil {
			return nil, fmt.Errorf("ladder: populate kvs table: %w", err)
		}
	}
	tfab := rdma.NewFabric(nodes, vtime.DefaultModel(), rdma.AtomicHCA)
	tfab.Register(tb.Node(), tb.RegionID(), tb.Arena())
	tqp := tfab.NewQP(0, nil)
	hitCache := kvs.NewLocationCache(16 << 20)
	for k := 0; k < rows; k++ {
		tb.LookupRemote(tqp, hitCache, uint64(k)+1)
	}
	missCache := kvs.NewLocationCache(1 << 10)
	hotKeys := min(rows, 4096) // hit rung: a working set every cache level holds

	ordered := kvs.NewOrdered(kvs.OrderedConfig{Node: 0, RegionID: 1, Capacity: orderedRows + ladderInsertCap,
		ValueWords: 1, ChainDepth: 4}, htm.NewEngine(htm.Config{}))
	for j := 0; j < orderedRows; j++ {
		if err := ordered.Insert(uint64(j), []uint64{uint64(j)}); err != nil {
			return nil, fmt.Errorf("ladder: populate ordered shard: %w", err)
		}
	}
	// Inserted keys sit above the populated range; once ladderInsertCap of
	// them are in, each insert first deletes the oldest to free its slot.
	insertKey := func(i int) uint64 { return scramble(i) | 1<<63 }
	one := []uint64{1}

	tree := btree.New()
	for j := 0; j < 100_000; j++ {
		tree.Insert(uint64(j)+1, uint64(j))
	}

	log := nvram.NewLog(0, 1<<20)
	rec := make([]uint64, 8)
	ups := []nvram.RedoUpdate{
		{Part: 1, Epoch: 1, Table: ladderHash, Key: 1, Version: 1, Val: []uint64{1}},
		{Part: 0, Epoch: 1, Table: ladderHash, Key: 2, Version: 1, Val: []uint64{2}},
	}
	var redoBuf []uint64

	rungs := []rung{
		{name: "memory.read_64b_ns", op: func(i int) { arena.Read(line, lineOff(i)) }},
		{name: "memory.write_64b_ns", op: func(i int) { arena.Write(lineOff(i), line) }},
		{name: "memory.cas_ns", op: func(i int) { arena.CAS(0, uint64(i), uint64(i+1)) }},

		{name: "htm.commit_1line_ns", op: htmRW(1)},
		{name: "htm.commit_4lines_ns", allocs: "htm.commit_4lines_allocs", op: htmRW(4)},
		{name: "htm.readonly_16lines_ns", op: func(int) {
			_ = eng.Run(func(t *htm.Txn) error {
				for j := 0; j < 16; j++ {
					t.Read(harena, memory.Offset(j*memory.WordsPerLine))
				}
				return nil
			})
		}},

		{name: "rdma.read_64b_ns", op: func(i int) { qp.Read(1, 0, lineOff(i), line) }},
		{name: "rdma.cas_ns", op: func(int) {
			old := casWord
			casWord++
			qp.CAS(1, 0, 0, old, casWord)
		}},
		{name: "rdma.batch16_read_ns_per_wr", perOp: 16, op: func(i int) {
			for j := range batchDst {
				sq.PostRead(1, 0, lineOff(i+j), batchDst[j][:])
			}
			sq.Poll()
		}},
		{name: "rdma.call_ns", op: func(i int) {
			_, err := qp.Call(1, i, 16, 16)
			must(err)
		}},

		{name: "kvs.hash_get_ns", op: func(i int) { tb.Get(uint64(i%rows) + 1) }},
		{name: "kvs.hash_lookup_remote_hit_ns", op: func(i int) { tb.LookupRemote(tqp, hitCache, uint64(i%hotKeys)+1) }},
		{name: "kvs.hash_lookup_remote_miss_ns", op: func(i int) { tb.LookupRemote(tqp, missCache, scramble(i)%uint64(rows)+1) }},
		{name: "kvs.ordered_get_ns", op: func(i int) { ordered.Get(uint64(i % orderedRows)) }},
		{name: "kvs.ordered_insert_ns", op: func(i int) {
			if i >= ladderInsertCap {
				ordered.Delete(insertKey(i - ladderInsertCap))
			}
			must(ordered.Insert(insertKey(i), one))
		}},
		{name: "kvs.ordered_scan32_ns", op: func(i int) {
			lo := uint64((i * 32) % (orderedRows - 32))
			ordered.Scan(lo, lo+31, func(uint64, memory.Offset) bool { return true })
		}},
		{name: "btree.get_ns", op: func(i int) { tree.Get(uint64(i%100_000) + 1) }},
		{name: "btree.insert_ns", op: func(i int) { tree.Insert(insertKey(i), uint64(i)) }},

		{name: "nvram.append_8w_ns", op: func(int) {
			if !log.Append(rec) {
				log.Truncate()
			}
		}},
		{name: "nvram.encode_redo_ns", op: func(i int) { redoBuf = nvram.EncodeRedo(redoBuf, uint64(i), ups) }},

		{name: "tx.exec_local_rw1_ns", allocs: "tx.exec_local_rw1_allocs", op: lc.localRW1},
		{name: "tx.exec_remote_rw2_ns", allocs: "tx.exec_remote_rw2_allocs", op: func(i int) { lc.remoteRW2(i, nil) }},
		{name: "tx.exec_ro20_ns", allocs: "tx.exec_ro20_allocs", op: lc.ro20},
		{name: "tx.exec_ro_scan32_ns", op: lc.roScan32},
	}
	return rungs, nil
}
