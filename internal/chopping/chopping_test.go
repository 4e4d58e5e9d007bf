package chopping

import (
	"math/rand"
	"reflect"
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/tx"
)

// Classic safe example: two transactions touching disjoint table pairs in
// their second pieces.
func TestSafeChopping(t *testing.T) {
	specs := []TxnSpec{
		{Name: "T1", Pieces: []Piece{
			{Name: "a", Accesses: []Access{WR(1)}},
			{Name: "b", Accesses: []Access{WR(2)}},
		}},
		{Name: "T2", Pieces: []Piece{
			{Name: "c", Accesses: []Access{RD(3)}},
		}},
	}
	if err := Validate(specs); err != nil {
		t.Fatalf("safe chopping rejected: %v", err)
	}
}

// Classic unsafe example: chopping T1 into two pieces while T2 reads both
// tables creates an SC-cycle (T2 could see T1 half-applied).
func TestUnsafeChopping(t *testing.T) {
	specs := []TxnSpec{
		{Name: "T1", Pieces: []Piece{
			{Name: "a", Accesses: []Access{WR(1)}},
			{Name: "b", Accesses: []Access{WR(2)}},
		}},
		{Name: "T2", Pieces: []Piece{
			{Name: "c", Accesses: []Access{RD(1), RD(2)}},
		}},
	}
	if err := Validate(specs); err == nil {
		t.Fatal("unsafe chopping accepted")
	}
}

// Two instances of the same chopped spec can also form an SC-cycle.
func TestUnsafeSelfConflict(t *testing.T) {
	specs := []TxnSpec{
		{Name: "T", Pieces: []Piece{
			{Name: "a", Accesses: []Access{WR(1), RD(2)}},
			{Name: "b", Accesses: []Access{WR(2), RD(1)}},
		}},
	}
	if err := Validate(specs); err == nil {
		t.Fatal("self-conflicting chopping accepted")
	}
}

// Partition refinement clears conflicts between different partitions.
func TestPartitionRefinement(t *testing.T) {
	p := func(table, part int, wr bool) Access {
		return Access{Table: table, Write: wr, Partition: part}
	}
	unsafe := []TxnSpec{
		{Name: "T1", Pieces: []Piece{
			{Accesses: []Access{p(1, 0, true)}},
			{Accesses: []Access{p(2, 0, true)}},
		}},
		{Name: "T2", Pieces: []Piece{
			{Accesses: []Access{p(1, 0, false), p(2, 0, false)}},
		}},
	}
	if err := Validate(unsafe); err == nil {
		t.Fatal("same-partition conflict missed")
	}
	safe := []TxnSpec{
		{Name: "T1", Pieces: []Piece{
			{Accesses: []Access{p(1, 0, true)}},
			{Accesses: []Access{p(2, 0, true)}},
		}},
		{Name: "T2", Pieces: []Piece{
			{Accesses: []Access{p(1, 1, false), p(2, 1, false)}},
		}},
	}
	if err := Validate(safe); err != nil {
		t.Fatalf("cross-partition non-conflict reported: %v", err)
	}
}

func TestGraphCounts(t *testing.T) {
	specs := []TxnSpec{
		{Name: "T1", Pieces: []Piece{
			{Accesses: []Access{WR(1)}}, {Accesses: []Access{WR(2)}}, {Accesses: []Access{RD(3)}},
		}},
	}
	g := BuildGraph(specs)
	if g.NumPieces() != 3 {
		t.Fatalf("pieces = %d", g.NumPieces())
	}
	s, _ := g.NumEdges()
	if s != 3 { // 3 choose 2
		t.Fatalf("s-edges = %d", s)
	}
}

// TestQuickAgainstBruteForce compares the SC-cycle detector against an
// exhaustive cycle enumeration on small random graphs.
func TestQuickAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		// Random workload: 2-3 txns, 1-3 pieces, accesses over 3 tables.
		var specs []TxnSpec
		nt := 2 + r.Intn(2)
		for i := 0; i < nt; i++ {
			np := 1 + r.Intn(3)
			var ps []Piece
			for j := 0; j < np; j++ {
				var acc []Access
				for a := 0; a < 1+r.Intn(2); a++ {
					acc = append(acc, Access{Table: r.Intn(3), Write: r.Intn(2) == 0, Partition: -1})
				}
				ps = append(ps, Piece{Accesses: acc})
			}
			specs = append(specs, TxnSpec{Name: "T", Pieces: ps})
		}
		g := BuildGraph(specs)
		_, fast := g.SCCycle()
		slow := bruteForceSCCycle(g)
		if fast != slow {
			t.Fatalf("trial %d: detector=%v brute=%v for %+v", trial, fast, slow, specs)
		}
	}
}

// bruteForceSCCycle enumerates simple cycles via DFS and checks edge kinds.
func bruteForceSCCycle(g *Graph) bool {
	n := len(g.nodes)
	idx := make(map[pieceID]int, n)
	for i, p := range g.nodes {
		idx[p] = i
	}
	type adjEdge struct {
		to int
		c  bool
		id int
	}
	adj := make([][]adjEdge, n)
	for id, e := range g.edges {
		a, b := idx[e.a], idx[e.b]
		adj[a] = append(adj[a], adjEdge{b, e.c, id})
		adj[b] = append(adj[b], adjEdge{a, e.c, id})
	}
	found := false
	var path []int      // node path
	var usedEdges []int // edge ids
	var dfs func(start, cur int, hasS, hasC bool)
	dfs = func(start, cur int, hasS, hasC bool) {
		if found || len(path) > 6 {
			return
		}
		for _, e := range adj[cur] {
			if containsInt(usedEdges, e.id) {
				continue
			}
			// Closing the cycle: parallel S/C edges between two nodes form
			// a legitimate 2-edge cycle (two instances of one spec), so a
			// path of length >= 1 suffices as long as the closing edge is
			// distinct (checked above).
			if e.to == start && len(path) >= 1 {
				if (hasC || e.c) && (hasS || !e.c) {
					found = true
					return
				}
			}
			if containsInt(path, e.to) || e.to == start {
				continue
			}
			path = append(path, e.to)
			usedEdges = append(usedEdges, e.id)
			dfs(start, e.to, hasS || !e.c, hasC || e.c)
			path = path[:len(path)-1]
			usedEdges = usedEdges[:len(usedEdges)-1]
		}
	}
	for s := 0; s < n && !found; s++ {
		path = path[:0]
		usedEdges = usedEdges[:0]
		dfs(s, s, false, false)
	}
	return found
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestRunnerExecutesPieces runs a chopped transaction end-to-end on a
// small cluster.
func TestRunnerExecutesPieces(t *testing.T) {
	cfg := cluster.DefaultConfig(1, 1)
	c := cluster.New(cfg)
	defer c.Stop()
	rt := tx.NewRuntime(c, func(table int, key uint64) int { return 0 })
	rt.DefineUnordered(1, 16, 16, 32, 1)
	_ = c.Node(0).Unordered(1).Insert(1, []uint64{0})
	_ = c.Node(0).Unordered(1).Insert(2, []uint64{0})
	e := rt.Executor(0, 0)

	incr := func(key uint64) PieceFunc {
		return func(_ *tx.Executor, t *tx.Tx) error {
			if err := t.W(1, key); err != nil {
				return err
			}
			return t.Execute(func(lc *tx.Local) error {
				v, err := lc.Read(1, key)
				if err != nil {
					return err
				}
				return lc.Write(1, key, []uint64{v[0] + 1})
			})
		}
	}
	if err := Run(e, 99, []PieceFunc{incr(1), incr(2)}); err != nil {
		t.Fatal(err)
	}
	v1, _ := c.Node(0).Unordered(1).Get(1)
	v2, _ := c.Node(0).Unordered(1).Get(2)
	if v1[0] != 1 || v2[0] != 1 {
		t.Fatalf("pieces not applied: %d, %d", v1[0], v2[0])
	}
	// Resume from piece 1 only.
	if err := Resume(e, 99, []PieceFunc{incr(1), incr(2)}, 1); err != nil {
		t.Fatal(err)
	}
	v1, _ = c.Node(0).Unordered(1).Get(1)
	v2, _ = c.Node(0).Unordered(1).Get(2)
	if v1[0] != 1 || v2[0] != 2 {
		t.Fatalf("resume wrong: %d, %d", v1[0], v2[0])
	}
}

// TestRunnerUserAbortOnlyFirstPiece: a user abort in the first piece
// cancels the parent; in later pieces it is a bug surfaced as an error.
func TestRunnerUserAbortOnlyFirstPiece(t *testing.T) {
	cfg := cluster.DefaultConfig(1, 1)
	c := cluster.New(cfg)
	defer c.Stop()
	rt := tx.NewRuntime(c, func(table int, key uint64) int { return 0 })
	rt.DefineUnordered(1, 16, 16, 32, 1)
	e := rt.Executor(0, 0)

	abortPiece := func(_ *tx.Executor, t *tx.Tx) error {
		return t.Execute(func(lc *tx.Local) error { return tx.ErrUserAbort })
	}
	okPiece := func(_ *tx.Executor, t *tx.Tx) error {
		return t.Execute(func(lc *tx.Local) error { return nil })
	}
	if err := Run(e, 1, []PieceFunc{abortPiece, okPiece}); err != tx.ErrUserAbort {
		t.Fatalf("first-piece abort: %v", err)
	}
	if err := Run(e, 2, []PieceFunc{okPiece, abortPiece}); err == tx.ErrUserAbort || err == nil {
		// must be wrapped as a hard error, not a clean user abort
	} else {
		t.Log("late abort surfaced as:", err)
	}
	err := Run(e, 3, []PieceFunc{okPiece, abortPiece})
	if err == nil {
		t.Fatal("late user abort silently succeeded")
	}
}

// TestResumeKeepsPieceNumbers: a resumed piece is the parent's piece of the
// same number — its chopping record, read back from a durable rig's log, names
// that number, and a user abort in it is an error past the first piece, as
// Run would report it, never a clean abort of the parent.
func TestResumeKeepsPieceNumbers(t *testing.T) {
	cfg := cluster.DefaultConfig(1, 1)
	cfg.Durability = true
	c := cluster.New(cfg)
	defer c.Stop()
	rt := tx.NewRuntime(c, func(table int, key uint64) int { return 0 })
	rt.DefineUnordered(1, 16, 16, 32, 1)
	for k := uint64(1); k <= 3; k++ {
		_ = c.Node(0).Unordered(1).Insert(k, []uint64{0})
	}
	e := rt.Executor(0, 0)

	var logged [][2]uint64 // (parent, piece) of each piece's chopping record
	piece := func(key uint64, body error) PieceFunc {
		return func(_ *tx.Executor, t *tx.Tx) error {
			if err := t.W(1, key); err != nil {
				return err
			}
			err := t.Execute(func(lc *tx.Local) error {
				if body != nil {
					return body
				}
				return lc.Write(1, key, []uint64{key})
			})
			// The log holds this piece's record until the next Exec restarts it.
			c.Worker(0, 0).ChoppingLog.Scan(nil, func(rec []uint64) {
				logged = append(logged, [2]uint64{rec[1], rec[2]})
			})
			return err
		}
	}
	if err := Resume(e, 99, []PieceFunc{piece(1, nil), piece(2, nil), piece(3, nil)}, 1); err != nil {
		t.Fatal(err)
	}
	if want := [][2]uint64{{99, 1}, {99, 2}}; !reflect.DeepEqual(logged, want) {
		t.Fatalf("resumed pieces logged %v, want %v", logged, want)
	}

	err := Resume(e, 7, []PieceFunc{piece(1, nil), piece(2, tx.ErrUserAbort)}, 1)
	if err == nil || err == tx.ErrUserAbort {
		t.Fatalf("user abort in resumed piece 1 returned %v, want an error past the first piece", err)
	}
	if err := Resume(e, 8, []PieceFunc{piece(1, tx.ErrUserAbort), piece(2, nil)}, 0); err != tx.ErrUserAbort {
		t.Fatalf("user abort in piece 0 of a resume from 0 returned %v, want ErrUserAbort", err)
	}
}
