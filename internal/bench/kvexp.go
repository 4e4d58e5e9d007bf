package bench

import (
	"fmt"
	"math/rand"
	"time"

	"drtm/internal/altkv"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
	"drtm/internal/vtime"
)

// The KV comparison experiments (Section 5.4) run one server node and
// emulate the paper's 5 client machines x 8 threads = 40 clients. The paper
// uses 20M keys; the simulation defaults to 200k (1/100 scale) with cache
// budgets scaled likewise, which preserves occupancy and hit-rate shapes.

type kvScale struct {
	keys    int
	lookups int
	clients int
}

func kvScaleFor(o Options) kvScale {
	if o.Quick {
		return kvScale{keys: 8_000, lookups: 4_000, clients: 40}
	}
	return kvScale{keys: 200_000, lookups: 60_000, clients: 40}
}

// kvSystem adapts a store to the measurement loop.
type kvSystem struct {
	name   string
	lookup func(qp *rdma.QP, key uint64) bool // probe only (Table 4)
	get    func(qp *rdma.QP, key uint64) bool // full GET (Figure 10)
}

func newKVFabric() *rdma.Fabric {
	return rdma.NewFabric(2, vtime.DefaultModel(), rdma.AtomicHCA)
}

// buildCluster builds a DrTM-KV table with nKeys at ~occupancy of its main
// header slots, registered on a fresh fabric.
func buildCluster(nKeys int, occupancy float64, valueWords int) (*kvs.Table, *rdma.Fabric) {
	slots := float64(nKeys) / occupancy
	mainBuckets := int(slots / kvs.SlotsPerBucket)
	t := kvs.New(kvs.Config{
		Node: 0, RegionID: 0,
		MainBuckets:     mainBuckets,
		IndirectBuckets: mainBuckets/2 + 64,
		Capacity:        nKeys + 64,
		ValueWords:      valueWords,
	}, htm.NewEngine(htm.Config{}))
	f := newKVFabric()
	f.Register(0, 0, t.Arena())
	return t, f
}

func buildCuckoo(nKeys int, occupancy float64, valueWords int) (*altkv.Cuckoo, *rdma.Fabric) {
	buckets := int(float64(nKeys) / occupancy)
	c := altkv.NewCuckoo(0, 0, buckets, nKeys+64, valueWords)
	f := newKVFabric()
	f.Register(0, 0, c.Arena())
	return c, f
}

func buildHopscotch(nKeys int, occupancy float64, valueWords int, inline bool) (*altkv.Hopscotch, *rdma.Fabric) {
	buckets := int(float64(nKeys) / occupancy)
	h := altkv.NewHopscotch(0, 0, buckets, nKeys+64, valueWords, inline)
	f := newKVFabric()
	f.Register(0, 0, h.Arena())
	return h, f
}

func fillStore(n int, vw int, insert func(key uint64, val []uint64) error) error {
	val := make([]uint64, vw)
	for k := 1; k <= n; k++ {
		val[0] = uint64(k)
		if err := insert(uint64(k), val); err != nil {
			return fmt.Errorf("fill key %d/%d: %w", k, n, err)
		}
	}
	return nil
}

// keyGen returns lookup keys: uniform or scrambled-zipfian (theta 0.99).
func keyGen(r *rand.Rand, nKeys int, skewed bool) func() uint64 {
	if !skewed {
		return func() uint64 { return uint64(r.Intn(nKeys)) + 1 }
	}
	z := NewZipf(r, uint64(nKeys), 0.99)
	return func() uint64 { return z.Scrambled() + 1 }
}

// ---- Table 4 ------------------------------------------------------------

func runTable4(o Options) *Result {
	s := kvScaleFor(o)
	res := &Result{
		ID:      "table4",
		Title:   "Average RDMA READs per lookup vs occupancy (Table 4)",
		Headers: []string{"dist", "occupancy", "Cuckoo", "Hopscotch", "Cluster"},
	}
	res.Note("keys=%d lookups=%d (paper: 20M keys)", s.keys, s.lookups)

	measure := func(skewed bool, occ float64) (cuckoo, hop, clus float64) {
		r := rand.New(rand.NewSource(o.Seed + int64(occ*100)))

		c, fc := buildCuckoo(s.keys, occ, 1)
		if err := fillStore(s.keys, 1, c.Insert); err != nil {
			panic(err)
		}
		qp := countedQP(fc, nil)
		gen := keyGen(r, s.keys, skewed)
		for i := 0; i < s.lookups; i++ {
			c.LookupRemote(qp, gen())
		}
		cuckoo = float64(qp.Obs.Count(obs.EvRDMARead)) / float64(s.lookups)

		h, fh := buildHopscotch(s.keys, occ, 1, true)
		if err := fillStore(s.keys, 1, h.Insert); err != nil {
			panic(err)
		}
		qp = countedQP(fh, nil)
		gen = keyGen(r, s.keys, skewed)
		for i := 0; i < s.lookups; i++ {
			h.LookupRemote(qp, gen())
		}
		hop = float64(qp.Obs.Count(obs.EvRDMARead)) / float64(s.lookups)

		t, ft := buildCluster(s.keys, occ, 1)
		if err := fillStore(s.keys, 1, t.Insert); err != nil {
			panic(err)
		}
		qp = countedQP(ft, nil)
		gen = keyGen(r, s.keys, skewed)
		for i := 0; i < s.lookups; i++ {
			t.LookupRemote(qp, nil, gen())
		}
		clus = float64(qp.Obs.Count(obs.EvRDMARead)) / float64(s.lookups)
		return
	}

	for _, skewed := range []bool{false, true} {
		dist := "uniform"
		if skewed {
			dist = "zipf0.99"
		}
		for _, occ := range []float64{0.5, 0.75, 0.9} {
			ck, hp, cl := measure(skewed, occ)
			res.AddRow(dist, fmt.Sprintf("%.0f%%", occ*100),
				fmt.Sprintf("%.3f", ck), fmt.Sprintf("%.3f", hp), fmt.Sprintf("%.3f", cl))
		}
	}
	return res
}

// ---- Figure 10 ----------------------------------------------------------

// countedQP is a client queue pair on node 1 with a standalone shard to count
// its verbs in.
func countedQP(f *rdma.Fabric, clk *vtime.Clock) *rdma.QP {
	qp := f.NewQP(1, clk)
	qp.Obs = obs.NewShard()
	return qp
}

// gets per-GET measurement: average client-side virtual cost, RDMA ops and
// bytes per GET.
type getProfile struct {
	costNS      float64
	opsPerGet   float64
	bytesPerGet float64
}

func profileGets(f *rdma.Fabric, n int, gen func() uint64, get func(qp *rdma.QP, key uint64) bool) getProfile {
	var clk vtime.Clock
	qp := countedQP(f, &clk)
	misses := 0
	for i := 0; i < n; i++ {
		if !get(qp, gen()) {
			misses++
		}
	}
	if misses > 0 {
		panic(fmt.Sprintf("bench: %d/%d GETs missed", misses, n))
	}
	return getProfile{
		costNS:      float64(clk.Now().Nanoseconds()) / float64(n),
		opsPerGet:   float64(qp.Obs.Count(obs.EvRDMARead)) / float64(n),
		bytesPerGet: float64(qp.Obs.Count(obs.EvRDMAReadBytes)) / float64(n),
	}
}

// closedLoop computes saturated throughput and mean latency for C closed-
// loop clients given a per-GET profile and the NIC capacity model.
func closedLoop(m *vtime.Model, p getProfile, clients int) (tput float64, lat time.Duration) {
	clientBound := float64(clients) / (p.costNS / 1e9)
	opCap := m.NICOpCapPerSec / p.opsPerGet
	bwCap := m.NICBandwidthBps / p.bytesPerGet
	tput = clientBound
	if opCap < tput {
		tput = opCap
	}
	if bwCap < tput {
		tput = bwCap
	}
	lat = time.Duration(float64(clients) / tput * 1e9)
	return
}

// kvSystemsFor builds the five compared systems at a given value size.
func kvSystemsFor(o Options, valueBytes int, cacheBytes int) ([]kvSystem, []*rdma.Fabric) {
	s := kvScaleFor(o)
	vw := valueBytes / 8
	if vw < 1 {
		vw = 1
	}
	const occ = 0.75

	cuckoo, f1 := buildCuckoo(s.keys, occ, vw)
	if err := fillStore(s.keys, vw, cuckoo.Insert); err != nil {
		panic(err)
	}
	hopI, f2 := buildHopscotch(s.keys, occ, vw, true)
	if err := fillStore(s.keys, vw, hopI.Insert); err != nil {
		panic(err)
	}
	hopO, f3 := buildHopscotch(s.keys, occ, vw, false)
	if err := fillStore(s.keys, vw, hopO.Insert); err != nil {
		panic(err)
	}
	clus, f4 := buildCluster(s.keys, occ, vw)
	if err := fillStore(s.keys, vw, clus.Insert); err != nil {
		panic(err)
	}
	clusC, f5 := buildCluster(s.keys, occ, vw)
	if err := fillStore(s.keys, vw, clusC.Insert); err != nil {
		panic(err)
	}
	cache := kvs.NewLocationCache(cacheBytes)

	systems := []kvSystem{
		{name: "Pilaf", get: func(qp *rdma.QP, k uint64) bool {
			_, ok := cuckoo.GetRemote(qp, k)
			return ok
		}},
		{name: "FaRM-KV/I", get: func(qp *rdma.QP, k uint64) bool {
			_, ok := hopI.GetRemote(qp, k)
			return ok
		}},
		{name: "FaRM-KV/O", get: func(qp *rdma.QP, k uint64) bool {
			_, ok := hopO.GetRemote(qp, k)
			return ok
		}},
		{name: "DrTM-KV", get: func(qp *rdma.QP, k uint64) bool {
			_, ok := clus.GetRemote(qp, nil, k)
			return ok
		}},
		{name: "DrTM-KV/$", get: func(qp *rdma.QP, k uint64) bool {
			_, ok := clusC.GetRemote(qp, cache, k)
			return ok
		}},
	}
	return systems, []*rdma.Fabric{f1, f2, f3, f4, f5}
}

func runFig10a(o Options) *Result {
	res := &Result{
		ID:      "fig10a",
		Title:   "One-sided RDMA READ throughput vs payload (Figure 10(a))",
		Headers: []string{"payload", "per-op latency", "40-client tput"},
	}
	m := vtime.DefaultModel()
	res.Note("%s", m.String())
	for _, bytes := range []int{16, 64, 256, 1024, 4096, 8192} {
		p := getProfile{
			costNS:      float64(m.RDMARead(bytes).Nanoseconds()),
			opsPerGet:   1,
			bytesPerGet: float64(bytes),
		}
		tput, _ := closedLoop(&m, p, 40)
		res.AddRow(fmt.Sprintf("%dB", bytes),
			m.RDMARead(bytes).String(), fmtMops(tput))
	}
	return res
}

func runFig10b(o Options) *Result {
	s := kvScaleFor(o)
	res := &Result{
		ID:      "fig10b",
		Title:   "KV read throughput vs value size, uniform (Figure 10(b))",
		Headers: []string{"value", "Pilaf", "FaRM-KV/I", "FaRM-KV/O", "DrTM-KV", "DrTM-KV/$"},
	}
	m := vtime.DefaultModel()
	res.Note("keys=%d, 40 closed-loop clients, 75%% occupancy", s.keys)

	sizes := []int{16, 64, 128, 256, 512, 1024}
	if o.Quick {
		sizes = []int{16, 128, 1024}
	}
	for _, vb := range sizes {
		row := []string{fmt.Sprintf("%dB", vb)}
		systems, fabrics := kvSystemsFor(o, vb, 1<<22)
		for i, sys := range systems {
			r := rand.New(rand.NewSource(o.Seed + int64(vb) + int64(i)))
			gen := keyGen(r, s.keys, false)
			n := s.lookups / 6
			// Warm the cache-backed system with one extra pass.
			if sys.name == "DrTM-KV/$" {
				warmQP := fabrics[i].NewQP(1, nil)
				for j := 0; j < n; j++ {
					sys.get(warmQP, gen())
				}
			}
			p := profileGets(fabrics[i], n, gen, sys.get)
			tput, _ := closedLoop(&m, p, 40)
			row = append(row, fmtMops(tput))
		}
		res.AddRow(row...)
	}
	return res
}

func runFig10c(o Options) *Result {
	s := kvScaleFor(o)
	res := &Result{
		ID:      "fig10c",
		Title:   "Latency vs throughput, 64B values, uniform (Figure 10(c))",
		Headers: []string{"clients", "system", "tput", "mean latency"},
	}
	m := vtime.DefaultModel()
	systems, fabrics := kvSystemsFor(o, 64, 1<<22)
	profiles := make([]getProfile, len(systems))
	for i, sys := range systems {
		r := rand.New(rand.NewSource(o.Seed + int64(i)))
		gen := keyGen(r, s.keys, false)
		n := s.lookups / 6
		if sys.name == "DrTM-KV/$" {
			warmQP := fabrics[i].NewQP(1, nil)
			for j := 0; j < n; j++ {
				sys.get(warmQP, gen())
			}
		}
		profiles[i] = profileGets(fabrics[i], n, gen, sys.get)
	}
	for _, clients := range []int{1, 8, 16, 24, 32, 40} {
		for i, sys := range systems {
			tput, lat := closedLoop(&m, profiles[i], clients)
			res.AddRow(fmt.Sprintf("%d", clients), sys.name, fmtMops(tput), lat.String())
		}
	}
	return res
}

func runFig10d(o Options) *Result {
	s := kvScaleFor(o)
	res := &Result{
		ID:      "fig10d",
		Title:   "DrTM-KV/$ throughput vs cache size (Figure 10(d))",
		Headers: []string{"cache", "uniform/cold", "uniform/warm", "skewed/cold", "skewed/warm"},
	}
	m := vtime.DefaultModel()
	// Paper: 20M keys with 20..320MB caches; scale budgets with the key
	// count (320MB caches the full location set at paper scale).
	fullBytes := (s.keys / kvs.SlotsPerBucket) * kvs.BucketBytes * 4 / 3
	budgets := []int{fullBytes / 16, fullBytes / 8, fullBytes / 4, fullBytes / 2, fullBytes}
	res.Note("keys=%d; full-location cache ~ %dKB (paper: 320MB at 20M keys)", s.keys, fullBytes/1024)

	for _, budget := range budgets {
		row := []string{fmt.Sprintf("%dKB", budget/1024)}
		for _, skewed := range []bool{false, true} {
			for _, warm := range []bool{false, true} {
				clus, f := buildCluster(s.keys, 0.75, 8)
				if err := fillStore(s.keys, 8, clus.Insert); err != nil {
					panic(err)
				}
				cache := kvs.NewLocationCache(budget)
				r := rand.New(rand.NewSource(o.Seed))
				gen := keyGen(r, s.keys, skewed)
				n := s.lookups / 4
				if warm {
					warmQP := f.NewQP(1, nil)
					for j := 0; j < n; j++ {
						clus.GetRemote(warmQP, cache, gen())
					}
				}
				p := profileGets(f, n, gen, func(qp *rdma.QP, k uint64) bool {
					_, ok := clus.GetRemote(qp, cache, k)
					return ok
				})
				tput, _ := closedLoop(&m, p, 40)
				row = append(row, fmtMops(tput))
			}
		}
		// Reorder: we built uniform/cold, uniform/warm, skewed/cold, skewed/warm.
		res.AddRow(row...)
	}
	return res
}

func init() {
	Register(Experiment{ID: "table4", Title: "RDMA READs per lookup", Run: runTable4})
	Register(Experiment{ID: "fig10a", Title: "RDMA READ throughput vs payload", Run: runFig10a})
	Register(Experiment{ID: "fig10b", Title: "KV throughput vs value size", Run: runFig10b})
	Register(Experiment{ID: "fig10c", Title: "KV latency vs throughput", Run: runFig10c})
	Register(Experiment{ID: "fig10d", Title: "Cache size sweep", Run: runFig10d})
}
