// Package smallbank implements the SmallBank OLTP benchmark (Alomari et
// al.; the H-Store variant) used in Section 7.2 of the paper: a simple
// banking schema — savings and checking balances per customer — with six
// transaction types, five of them tiny read-write transactions and one
// read-only. Working sets fit HTM comfortably, so no chopping is needed
// (Section 7.1), and the distributed-transaction fraction is an explicit
// knob (Figure 15 sweeps 1%, 5%, 10%).
//
// Access skew follows the benchmark's convention: a small pool of hot
// accounts receives most requests.
package smallbank

import (
	"fmt"
	"math/rand"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/tx"
)

// kvsPair is one (savings, checking) shard pair populated by Setup.
type kvsPair struct {
	sav, chk *kvs.Table
}

// Table IDs.
const (
	TableSavings  = 10
	TableChecking = 11
)

// Transaction types (Table 5: SP and AMG are the distributed candidates).
type TxnType int

const (
	SendPayment      TxnType = iota // SP  (d, rw)
	Balance                         // BAL (l, ro)
	DepositChecking                 // DC  (l, rw)
	WithdrawChecking                // WC  (l, rw)
	TransactSavings                 // TS  (l, rw)
	Amalgamate                      // AMG (d, rw)
	numTxnTypes
)

func (t TxnType) String() string {
	switch t {
	case SendPayment:
		return "send-payment"
	case Balance:
		return "balance"
	case DepositChecking:
		return "deposit-checking"
	case WithdrawChecking:
		return "withdraw-from-checking"
	case TransactSavings:
		return "transfer-to-savings"
	case Amalgamate:
		return "amalgamate"
	default:
		return fmt.Sprintf("TxnType(%d)", int(t))
	}
}

// mix is the H-Store SmallBank transaction mix (percent).
var mix = map[TxnType]int{
	SendPayment:      25,
	Balance:          15,
	DepositChecking:  15,
	WithdrawChecking: 15,
	TransactSavings:  15,
	Amalgamate:       15,
}

// Config sizes and shapes the workload.
type Config struct {
	Nodes           int
	AccountsPerNode int
	// HotAccounts per node receive HotProb of that node's accesses.
	HotAccounts int
	HotProb     float64
	// DistProb is the probability that SP/AMG pick their second account on
	// a remote node (the Figure 15 knob).
	DistProb float64
	// InitialBalance per account and per sub-account.
	InitialBalance uint64
}

// DefaultConfig mirrors common SmallBank setups, scaled per node.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		AccountsPerNode: 100_000,
		HotAccounts:     100,
		HotProb:         0.9,
		DistProb:        0.01,
		InitialBalance:  10_000,
	}
}

// Workload owns the populated tables.
type Workload struct {
	cfg Config
	rt  *tx.Runtime
}

// NodeOf returns the home node of an account.
func (c Config) NodeOf(acct uint64) int { return int((acct - 1) / uint64(c.AccountsPerNode)) }

// Partitioner returns the tx-layer partitioner for this workload.
func (c Config) Partitioner() tx.Partitioner {
	return func(table int, key uint64) int { return c.NodeOf(key) }
}

// Setup defines and populates the tables on an existing runtime whose
// partitioner must be cfg.Partitioner().
func Setup(rt *tx.Runtime, cfg Config) (*Workload, error) {
	per := cfg.AccountsPerNode
	buckets := max(16, per/4)
	// Indirect buckets take the overflow of a main bucket past its eight
	// slots: at 200 000 accounts per node about 260 of them, a sixth of these.
	indirect := max(16, buckets/32)
	rt.DefineUnordered(TableSavings, buckets, indirect, per+16, 1)
	rt.DefineUnordered(TableChecking, buckets, indirect, per+16, 1)
	for n := 0; n < cfg.Nodes; n++ {
		// Every copy of the partition: under replication each backup's
		// replica shard is seeded too, so a promoted backup starts from a
		// complete copy.
		var stores []*kvsPair
		for _, node := range rt.C.Copies(nil, n) {
			stores = append(stores, &kvsPair{
				rt.C.Node(node).Unordered(cluster.CopyRegion(n, TableSavings, node)),
				rt.C.Node(node).Unordered(cluster.CopyRegion(n, TableChecking, node)),
			})
		}
		base := uint64(n * per)
		for a := 1; a <= per; a++ {
			for _, s := range stores {
				if err := s.sav.Insert(base+uint64(a), []uint64{cfg.InitialBalance}); err != nil {
					return nil, fmt.Errorf("smallbank: populate savings: %w", err)
				}
				if err := s.chk.Insert(base+uint64(a), []uint64{cfg.InitialBalance}); err != nil {
					return nil, fmt.Errorf("smallbank: populate checking: %w", err)
				}
			}
		}
	}
	return &Workload{cfg: cfg, rt: rt}, nil
}

// TotalBalance sums all savings + checking (the conservation invariant for
// the internal transfers; deposits/withdrawals are tracked by the caller).
// Routed by the current replication view: a partition whose primary was
// failed over is audited on the promoted backup's replica shard.
func (w *Workload) TotalBalance() uint64 {
	var total uint64
	for n := 0; n < w.cfg.Nodes; n++ {
		host, savRegion := w.rt.C.Serving(n, TableSavings)
		sav := w.rt.C.Node(host).Unordered(savRegion)
		chk := w.rt.C.Node(host).Unordered(cluster.CopyRegion(n, TableChecking, host))
		base := uint64(n * w.cfg.AccountsPerNode)
		for a := 1; a <= w.cfg.AccountsPerNode; a++ {
			if v, ok := sav.Get(base + uint64(a)); ok {
				total += v[0]
			}
			if v, ok := chk.Get(base + uint64(a)); ok {
				total += v[0]
			}
		}
	}
	return total
}

// Client issues SmallBank transactions from one worker.
type Client struct {
	w   *Workload
	e   *tx.Executor
	rng *rand.Rand
	// Counts per transaction type.
	Counts [numTxnTypes]int64
	// NetDeposits tracks money created/destroyed by DC/WC/TS for the
	// conservation check.
	NetDeposits int64
	// bal is the one-word row the bodies hand to Local.Write, which copies
	// it: one word per client instead of one slice per write.
	bal [1]uint64
}

// row returns v as a one-word row in the client's scratch, valid until the
// next call.
func (c *Client) row(v uint64) []uint64 {
	c.bal[0] = v
	return c.bal[:]
}

// NewClient binds a client to an executor.
func (w *Workload) NewClient(e *tx.Executor, seed int64) *Client {
	return &Client{w: w, e: e, rng: rand.New(rand.NewSource(seed))}
}

// pickLocal returns an account homed on the client's node, hot-skewed.
func (c *Client) pickLocal() uint64 {
	node := c.e.Worker().Node.ID
	base := uint64(node * c.w.cfg.AccountsPerNode)
	if c.rng.Float64() < c.w.cfg.HotProb {
		return base + uint64(c.rng.Intn(c.w.cfg.HotAccounts)) + 1
	}
	return base + uint64(c.rng.Intn(c.w.cfg.AccountsPerNode)) + 1
}

// pickPartner returns a second account: remote with probability DistProb.
func (c *Client) pickPartner(first uint64) uint64 {
	cfg := c.w.cfg
	node := c.e.Worker().Node.ID
	if cfg.Nodes > 1 && c.rng.Float64() < cfg.DistProb {
		other := c.rng.Intn(cfg.Nodes - 1)
		if other >= node {
			other++
		}
		base := uint64(other * cfg.AccountsPerNode)
		if c.rng.Float64() < cfg.HotProb {
			return base + uint64(c.rng.Intn(cfg.HotAccounts)) + 1
		}
		return base + uint64(c.rng.Intn(cfg.AccountsPerNode)) + 1
	}
	for i := 0; i < 8; i++ {
		if p := c.pickLocal(); p != first {
			return p
		}
	}
	return first%uint64(cfg.Nodes*cfg.AccountsPerNode) + 1
}

// PickType draws a transaction type from the standard mix.
func (c *Client) PickType() TxnType {
	r := c.rng.Intn(100)
	acc := 0
	for t := TxnType(0); t < numTxnTypes; t++ {
		acc += mix[t]
		if r < acc {
			return t
		}
	}
	return Balance
}

// RunOne executes one transaction drawn from the mix.
func (c *Client) RunOne() (TxnType, error) {
	t := c.PickType()
	var err error
	switch t {
	case SendPayment:
		a := c.pickLocal()
		err = c.SendPayment(a, c.pickPartner(a), uint64(c.rng.Intn(50)+1))
	case Balance:
		_, err = c.Balance(c.pickLocal())
	case DepositChecking:
		err = c.DepositChecking(c.pickLocal(), uint64(c.rng.Intn(100)+1))
	case WithdrawChecking:
		err = c.WithdrawChecking(c.pickLocal(), uint64(c.rng.Intn(50)+1))
	case TransactSavings:
		err = c.TransactSavings(c.pickLocal(), uint64(c.rng.Intn(100)+1))
	case Amalgamate:
		a := c.pickLocal()
		err = c.Amalgamate(a, c.pickPartner(a))
	}
	if err == nil {
		c.Counts[t]++
	}
	return t, err
}

// SendPayment moves amt between two checking accounts.
func (c *Client) SendPayment(from, to, amt uint64) error {
	if from == to {
		return nil
	}
	return c.e.Exec(func(t *tx.Tx) error {
		if err := t.W(TableChecking, from); err != nil {
			return err
		}
		if err := t.W(TableChecking, to); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error {
			f, err := lc.Read(TableChecking, from)
			if err != nil {
				return err
			}
			g, err := lc.Read(TableChecking, to)
			if err != nil {
				return err
			}
			if f[0] < amt {
				return nil // insufficient funds: no-op commit
			}
			if err := lc.Write(TableChecking, from, c.row(f[0]-amt)); err != nil {
				return err
			}
			return lc.Write(TableChecking, to, c.row(g[0]+amt))
		})
	})
}

// Balance returns savings + checking of one customer (read-only).
func (c *Client) Balance(acct uint64) (uint64, error) {
	var total uint64
	err := c.e.Exec(func(t *tx.Tx) error {
		if err := t.R(TableSavings, acct); err != nil {
			return err
		}
		if err := t.R(TableChecking, acct); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error {
			s, err := lc.Read(TableSavings, acct)
			if err != nil {
				return err
			}
			k, err := lc.Read(TableChecking, acct)
			if err != nil {
				return err
			}
			total = s[0] + k[0]
			return nil
		})
	})
	return total, err
}

// DepositChecking adds amt to checking.
func (c *Client) DepositChecking(acct, amt uint64) error {
	err := c.rmwChecking(acct, func(bal uint64) (uint64, bool) { return bal + amt, true })
	if err == nil {
		c.NetDeposits += int64(amt)
	}
	return err
}

// WithdrawChecking removes amt from checking (overdraft allowed with a
// penalty in the spec; here clamped for invariant simplicity).
func (c *Client) WithdrawChecking(acct, amt uint64) error {
	var taken uint64
	err := c.rmwChecking(acct, func(bal uint64) (uint64, bool) {
		// Set on every attempt: a retried region sees another balance.
		taken = min(bal, amt)
		return bal - taken, true
	})
	if err == nil {
		c.NetDeposits -= int64(taken)
	}
	return err
}

// TransactSavings adds amt to savings.
func (c *Client) TransactSavings(acct, amt uint64) error {
	err := c.e.Exec(func(t *tx.Tx) error {
		if err := t.W(TableSavings, acct); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error {
			s, err := lc.Read(TableSavings, acct)
			if err != nil {
				return err
			}
			return lc.Write(TableSavings, acct, c.row(s[0]+amt))
		})
	})
	if err == nil {
		c.NetDeposits += int64(amt)
	}
	return err
}

// Amalgamate moves all funds of acct a (savings + checking) into the
// checking account of b.
func (c *Client) Amalgamate(a, b uint64) error {
	if a == b {
		return nil
	}
	return c.e.Exec(func(t *tx.Tx) error {
		if err := t.W(TableSavings, a); err != nil {
			return err
		}
		if err := t.W(TableChecking, a); err != nil {
			return err
		}
		if err := t.W(TableChecking, b); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error {
			s, err := lc.Read(TableSavings, a)
			if err != nil {
				return err
			}
			k, err := lc.Read(TableChecking, a)
			if err != nil {
				return err
			}
			g, err := lc.Read(TableChecking, b)
			if err != nil {
				return err
			}
			sum := s[0] + k[0]
			if err := lc.Write(TableSavings, a, c.row(0)); err != nil {
				return err
			}
			if err := lc.Write(TableChecking, a, c.row(0)); err != nil {
				return err
			}
			return lc.Write(TableChecking, b, c.row(g[0]+sum))
		})
	})
}

func (c *Client) rmwChecking(acct uint64, f func(uint64) (uint64, bool)) error {
	return c.e.Exec(func(t *tx.Tx) error {
		if err := t.W(TableChecking, acct); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error {
			v, err := lc.Read(TableChecking, acct)
			if err != nil {
				return err
			}
			nv, ok := f(v[0])
			if !ok {
				return nil
			}
			return lc.Write(TableChecking, acct, c.row(nv))
		})
	})
}
