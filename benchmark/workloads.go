package main

import (
	"errors"
	"fmt"
	"math/rand"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/smallbank"
	"drtm/internal/tatp"
	"drtm/internal/tpcc"
	"drtm/internal/tx"
)

// The benchmark's cluster shape: a closed loop of one client per worker on
// 2 nodes × 1 worker, because the box has 2 cores and a third client
// goroutine would measure the Go scheduler.
const (
	nodes          = 2
	workersPerNode = 1
)

// workload is one set of inputs: how to build its populated deployment, and
// why it is in the benchmark.
type workload struct {
	name  string
	why   string
	build func(p params) (*deployment, error)
}

// params is what a run is generated from.
type params struct {
	seed int64
	// scale multiplies table populations and capacities (and, in main, the
	// run length); tests run at 0.01.
	scale  float64
	outDir string // receives trace files
}

func (p params) scaled(n int) int {
	if s := int(float64(n) * p.scale); s > 1 {
		return s
	}
	return 1
}

var workloads = []workload{
	{"tpcc_mix", "the paper's headline: large HTM regions, ordered tables and chopping, little RDMA; wall throughput is set by real-time lease waits", buildTPCC},
	{"smallbank_dist", "tiny HTM regions, 20% cross-node: rdma verbs, remote lookup + location cache and the Start/commit pipelines do the work; CPU-bound", buildSmallBankDist},
	{"smallbank_repl", "smallbank_dist plus NVRAM logs and a redo append to the backup per commit: isolates the commit/replication path", buildSmallBankRepl},
	{"tatp_mix", "45% read-only beside writes: ExecRO, secondary-index lookups, ordered inserts/erases and short scans", buildTATP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newCluster builds the 2×1 cluster every workload runs on, with the lease
// lengths the public API defaults to (drtm.Options) and the default adaptive
// read policy. It is built here, not through drtm.Open, because LogWords is
// only reachable on cluster.Config.
func newCluster(part tx.Partitioner, mut func(*cluster.Config)) (*cluster.Cluster, *tx.Runtime) {
	cfg := cluster.DefaultConfig(nodes, workersPerNode)
	cfg.LeaseMicros = 5_000
	cfg.ROLeaseMicros = 10_000
	if mut != nil {
		mut(&cfg)
	}
	c := cluster.New(cfg)
	rt := tx.NewRuntime(c, part)
	rt.ReadPolicy = tx.PolicyAdaptive
	c.Start()
	return c, rt
}

// clientSeed derives client i's seed so no two clients of a run share one.
func clientSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

// ---- TPC-C ---------------------------------------------------------------

// tpccExtraOrders is the per-district order headroom set-up reserves; a
// client's home warehouse has 10 districts and 45 % of its transactions are
// new-orders, so the cap below leaves a fifth of the headroom unused.
const tpccExtraOrders = 2000

func buildTPCC(p params) (*deployment, error) {
	cfg := tpcc.DefaultConfig(nodes, 1)
	// A new-order names up to 15 distinct items, so a scaled-down run keeps
	// the populations of the package's own quick tests as a floor.
	cfg.CustomersPerDist = max(p.scaled(100), 30)
	cfg.Items = max(p.scaled(1000), 100)
	cfg.InitialOrders = 15
	cfg.ExtraOrdersPerDistrict = p.scaled(tpccExtraOrders)
	c, rt := newCluster(cfg.Partitioner(), nil)
	w, err := tpcc.Setup(rt, cfg)
	if err != nil {
		c.Stop()
		return nil, err
	}
	d := &deployment{c: c, rt: rt, check: w.CheckConsistency}
	d.maxTxns = int64(float64(cfg.ExtraOrdersPerDistrict*cfg.Districts) / 0.45 * 0.8)
	for n := 0; n < nodes; n++ {
		home := n*cfg.WarehousesPerNode + 1
		d.clients = append(d.clients, &tpccClient{cl: w.NewClient(rt.Executor(n, 0), home, clientSeed(p.seed, n))})
	}
	for _, t := range rt.Tables() {
		d.userBytes += tableUserBytes(c, rt, t)
	}
	return d, nil
}

// tpccClient wraps tpcc.Client.RunOne: the package generates new-order and
// payment inputs itself and does not export them.
type tpccClient struct {
	cl *tpcc.Client
}

func (t *tpccClient) runOne() (int, outcome, error) {
	aborts := t.cl.UserAborts
	typ, err := t.cl.RunOne()
	switch {
	case err != nil:
		return txnTPCCBase + int(typ), failed, err
	case t.cl.UserAborts != aborts:
		return txnTPCCBase + int(typ), benign, nil
	}
	return txnTPCCBase + int(typ), committed, nil
}

// tableUserBytes is rows × value bytes of table t summed over its primaries.
func tableUserBytes(c *cluster.Cluster, rt *tx.Runtime, t int) int64 {
	var rows int
	for n := 0; n < c.Nodes(); n++ {
		if rt.Meta(t).Kind == tx.Ordered {
			rows += c.Node(n).Ordered(t).Len()
		} else {
			rows += c.Node(n).Unordered(t).Len()
		}
	}
	return int64(rows) * int64(rt.Meta(t).ValueWords) * 8
}

// ---- SmallBank -----------------------------------------------------------

func smallBankConfig(p params) smallbank.Config {
	return smallbank.Config{
		Nodes:           nodes,
		AccountsPerNode: p.scaled(200_000),
		HotAccounts:     100,
		HotProb:         0.5,
		DistProb:        0.5,
		InitialBalance:  10_000,
	}
}

func buildSmallBankDist(p params) (*deployment, error) { return buildSmallBank(p, nil) }

// replLogWords sizes each worker's NVRAM logs for smallbank_repl. The WAL is
// never truncated during a run (a full log panics), and a log much larger
// than the run needs made wall numbers bimodal in trials, so the log is
// sized for the run and the run capped at what the log holds:
// replLogWordsPerTxn is the largest per-transaction footprint over the three
// logs, rounded up.
const (
	replLogWords       = 1 << 23
	replLogWordsPerTxn = 13
)

func buildSmallBankRepl(p params) (*deployment, error) {
	logWords := p.scaled(replLogWords)
	d, err := buildSmallBank(p, func(c *cluster.Config) {
		c.Durability = true
		c.ReplicationFactor = 1
		c.LogWords = logWords
	})
	if err != nil {
		return nil, err
	}
	d.maxTxns = int64(logWords / replLogWordsPerTxn)
	return d, nil
}

func buildSmallBank(p params, mut func(*cluster.Config)) (*deployment, error) {
	cfg := smallBankConfig(p)
	c, rt := newCluster(cfg.Partitioner(), mut)
	w, err := smallbank.Setup(rt, cfg)
	if err != nil {
		c.Stop()
		return nil, err
	}
	d := &deployment{c: c, rt: rt}
	d.userBytes = 2 * int64(nodes*cfg.AccountsPerNode) * 8
	var clients []*sbClient
	for n := 0; n < nodes; n++ {
		e := rt.Executor(n, 0)
		sc := &sbClient{
			cl: w.NewClient(e, 0), e: e, cfg: cfg, node: n,
			rng: rand.New(rand.NewSource(clientSeed(p.seed, n))),
		}
		clients = append(clients, sc)
		d.clients = append(d.clients, sc)
	}
	// Set-up gives every account InitialBalance twice (savings, checking);
	// summing the tables here would be timed as set-up.
	initial := 2 * int64(nodes*cfg.AccountsPerNode) * int64(cfg.InitialBalance)
	want := func() int64 {
		total := initial
		for _, sc := range clients {
			total += sc.net
		}
		return total
	}
	d.check = func() error { return checkConservation(int64(w.TotalBalance()), want()) }
	if c.ReplicationFactor() > 0 {
		d.failover = func() (failoverStats, error) {
			const victim = 1
			c.Crash(victim)
			rep := rt.Failover(victim)
			if !rep.Promoted {
				return failoverStats{}, fmt.Errorf("failover of node %d did not promote a backup", victim)
			}
			st := failoverStats{
				promoteMS:   float64(c.Obs.Total(obs.EvPromoteNanos)) / 1e6,
				redoTailLen: float64(rep.RedoRecords),
			}
			// Every acked commit must be readable through the promoted replica.
			if err := checkConservation(int64(w.TotalBalance()), want()); err != nil {
				return st, fmt.Errorf("after failover: %w", err)
			}
			return st, nil
		}
	}
	return d, nil
}

// checkConservation is SmallBank's invariant: the sum of all balances equals
// the initial sum plus the net deposits of committed transactions.
func checkConservation(total, want int64) error {
	if total != want {
		return fmt.Errorf("balance conservation violated: total %d, want %d (diff %+d)", total, want, total-want)
	}
	return nil
}

// sbClient owns the SmallBank mix, keys and amounts (the H-Store mix and the
// hot-set skew of internal/smallbank) and calls the package's per-type
// transactions — except withdraw, and except the ledger:
// smallbank.Client.WithdrawChecking books the amount taken in a variable its
// HTM body sets on one branch only, so a retried region can book a stale
// amount and the conservation check drifts on 2 CPUs (README "Caveats").
type sbClient struct {
	cl   *smallbank.Client
	e    *tx.Executor
	rng  *rand.Rand
	cfg  smallbank.Config
	node int
	net  int64 // net deposits of this client's committed transactions
}

func (c *sbClient) account(node int) uint64 {
	base := uint64(node * c.cfg.AccountsPerNode)
	if c.rng.Float64() < c.cfg.HotProb {
		return base + uint64(c.rng.Intn(c.cfg.HotAccounts)) + 1
	}
	return base + uint64(c.rng.Intn(c.cfg.AccountsPerNode)) + 1
}

// partner picks a second account, on the other node with probability
// DistProb, never equal to first.
func (c *sbClient) partner(first uint64) uint64 {
	node := c.node
	if c.rng.Float64() < c.cfg.DistProb {
		node = (c.node + 1 + c.rng.Intn(nodes-1)) % nodes
	}
	for {
		if a := c.account(node); a != first {
			return a
		}
	}
}

func (c *sbClient) runOne() (int, outcome, error) {
	var (
		typ smallbank.TxnType
		err error
	)
	a := c.account(c.node)
	switch r := c.rng.Intn(100); {
	case r < 25:
		typ, err = smallbank.SendPayment, c.cl.SendPayment(a, c.partner(a), uint64(c.rng.Intn(50)+1))
	case r < 40:
		typ = smallbank.Balance
		_, err = c.cl.Balance(a)
	case r < 55:
		amt := uint64(c.rng.Intn(100) + 1)
		if typ, err = smallbank.DepositChecking, c.cl.DepositChecking(a, amt); err == nil {
			c.net += int64(amt)
		}
	case r < 70:
		var taken uint64
		if taken, err = c.withdraw(a, uint64(c.rng.Intn(50)+1)); err == nil {
			c.net -= int64(taken)
		}
		typ = smallbank.WithdrawChecking
	case r < 85:
		amt := uint64(c.rng.Intn(100) + 1)
		if typ, err = smallbank.TransactSavings, c.cl.TransactSavings(a, amt); err == nil {
			c.net += int64(amt)
		}
	default:
		typ, err = smallbank.Amalgamate, c.cl.Amalgamate(a, c.partner(a))
	}
	if err != nil {
		return txnSmallBankBase + int(typ), failed, err
	}
	return txnSmallBankBase + int(typ), committed, nil
}

// withdraw removes up to amt from checking and returns what the committed
// attempt took; taken is set on every attempt of the region.
func (c *sbClient) withdraw(acct, amt uint64) (taken uint64, err error) {
	err = c.e.Exec(func(t *tx.Tx) error {
		if err := t.W(smallbank.TableChecking, acct); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error {
			v, err := lc.Read(smallbank.TableChecking, acct)
			if err != nil {
				return err
			}
			taken = amt
			if v[0] < amt {
				taken = v[0]
			}
			return lc.Write(smallbank.TableChecking, acct, []uint64{v[0] - taken})
		})
	})
	return taken, err
}

// ---- TATP ----------------------------------------------------------------

func buildTATP(p params) (*deployment, error) {
	// 20 000 subscribers per node: the package default of 64 per node is
	// sized for contention tests and makes the run lease-bound.
	cfg := tatp.Config{Nodes: nodes, Subscribers: nodes * p.scaled(20_000)}
	c, rt := newCluster(cfg.Partitioner(), nil)
	w, err := tatp.Setup(rt, cfg)
	if err != nil {
		c.Stop()
		return nil, err
	}
	d := &deployment{c: c, rt: rt, check: w.Audit}
	// CALL_FORWARDING holds 8 rows per subscriber and about one transaction
	// in 16 inserts one that is never deleted.
	d.maxTxns = int64(cfg.Subscribers) * 8 * 16 / nodes / 2
	for _, t := range rt.Tables() {
		d.userBytes += tableUserBytes(c, rt, t)
	}
	for n := 0; n < nodes; n++ {
		d.clients = append(d.clients, &tatpClient{
			cl:   w.NewClient(rt.Executor(n, 0), 0),
			rng:  rand.New(rand.NewSource(clientSeed(p.seed, n))),
			idx:  n,
			subs: cfg.Subscribers,
			// Deletes and re-creations arrive at the same rate, so the
			// backlog stays far below this and the slice never grows.
			deleted: make([]uint64, 0, 1<<12),
		})
	}
	return d, nil
}

// tatpClient owns the TATP mix and keys (the package's 8-type mix) and calls
// the per-type transactions. Every type draws its subscriber from the whole
// population except the two that create and remove subscribers: a client
// deletes only subscribers it owns (half of them on the other node) and
// insert_subscriber re-creates one it deleted earlier. That keeps the
// population level over the run instead of decaying towards half, and it
// keeps two clients from creating or removing the same subscriber at the
// same moment, which the engine does not survive: the second insert's
// facility rows return kvs.ErrExists past the package's benign-race mapping
// (the one failed transaction in 8 million the driver saw), and the second
// delete panics in tx.Erase on the index row the first already removed.
type tatpClient struct {
	cl      *tatp.Client
	rng     *rand.Rand
	idx     int // this client's index, 0..nodes-1
	subs    int
	deleted []uint64 // subscribers this client deleted and has not re-created
}

// owned draws a subscriber only this client creates and removes. Home node is
// sid % nodes, ownership (sid / nodes) % nodes, so half of them are remote.
func (c *tatpClient) owned() uint64 {
	for {
		if sid := uint64(c.rng.Intn(c.subs)) + 1; int(sid/nodes)%nodes == c.idx {
			return sid
		}
	}
}

func (c *tatpClient) runOne() (int, outcome, error) {
	sid := uint64(c.rng.Intn(c.subs)) + 1
	sf := 1 + c.rng.Intn(tatp.NumSFTypes)
	var (
		typ int
		err error
	)
	switch r := c.rng.Intn(100); {
	case r < 30:
		typ, err = 0, c.cl.GetSubscriberData(sid)
	case r < 45:
		typ, err = 1, c.cl.GetNewDestination(sid, sf)
	case r < 60:
		typ, err = 2, c.cl.UpdateLocation(tatp.SubNbr(sid), uint64(c.rng.Intn(1<<16)))
	case r < 72:
		typ, err = 3, c.cl.ToggleSpecialFacility(sid, sf)
	case r < 82:
		typ, err = 4, c.cl.InsertCallForwarding(sid, sf, c.rng.Intn(24))
	case r < 90:
		typ, err = 5, c.cl.DeleteCallForwarding(sid, sf, c.rng.Intn(24))
	case r < 95:
		sid = c.owned()
		if typ, err = 6, c.cl.DeleteSubscriber(sid); err == nil {
			c.deleted = append(c.deleted, sid)
		}
	default:
		if n := len(c.deleted); n > 0 {
			sid, c.deleted = c.deleted[n-1], c.deleted[:n-1]
		} else {
			sid = c.owned() // exists already: the package aborts it cleanly
		}
		typ, err = 7, c.cl.InsertSubscriber(sid, uint64(c.rng.Intn(15)+1)<<1)
	}
	// The package maps the lifecycle mix's benign races (row not found,
	// already exists) to nil: they are completed transactions. One that
	// reaches here unmapped is still that race, not a failure.
	switch {
	case err == nil:
		return txnTATPBase + typ, committed, nil
	case errors.Is(err, kvs.ErrExists), errors.Is(err, tx.ErrNotFound):
		return txnTATPBase + typ, benign, nil
	}
	return txnTATPBase + typ, failed, err
}
