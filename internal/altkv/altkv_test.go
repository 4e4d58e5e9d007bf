package altkv

import (
	"math/rand"
	"testing"

	"drtm/internal/obs"
	"drtm/internal/rdma"
	"drtm/internal/vtime"
)

func newFabric() *rdma.Fabric {
	return rdma.NewFabric(2, vtime.DefaultModel(), rdma.AtomicHCA)
}

// newCountedQP is a node-1 queue pair with a standalone shard to count its
// verbs in.
func newCountedQP(f *rdma.Fabric) *rdma.QP {
	qp := f.NewQP(1, nil)
	qp.Obs = obs.NewShard()
	return qp
}

func TestCuckooInsertGet(t *testing.T) {
	c := NewCuckoo(0, 0, 1024, 1024, 2)
	f := newFabric()
	f.Register(0, 0, c.Arena())
	qp := f.NewQP(1, nil)

	for k := uint64(1); k <= 500; k++ {
		if err := c.Insert(k, []uint64{k, k * 2}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if c.Len() != 500 {
		t.Fatalf("Len = %d", c.Len())
	}
	for k := uint64(1); k <= 500; k++ {
		v, ok := c.GetRemote(qp, k)
		if !ok || v[0] != k || v[1] != k*2 {
			t.Fatalf("get %d = %v,%v", k, v, ok)
		}
	}
	if _, ok := c.GetRemote(qp, 9999); ok {
		t.Fatal("found missing key")
	}
}

func TestCuckooRejectsKeyZero(t *testing.T) {
	c := NewCuckoo(0, 0, 16, 16, 1)
	if err := c.Insert(0, []uint64{1}); err == nil {
		t.Fatal("key 0 accepted")
	}
}

func TestCuckooPut(t *testing.T) {
	c := NewCuckoo(0, 0, 64, 64, 1)
	f := newFabric()
	f.Register(0, 0, c.Arena())
	qp := f.NewQP(1, nil)
	_ = c.Insert(5, []uint64{1})
	if !c.Put(5, []uint64{2}) {
		t.Fatal("Put failed")
	}
	v, ok := c.GetRemote(qp, 5)
	if !ok || v[0] != 2 {
		t.Fatalf("after Put = %v,%v", v, ok)
	}
	if c.Put(6, []uint64{1}) {
		t.Fatal("Put of missing key succeeded")
	}
}

func TestCuckooHighOccupancy(t *testing.T) {
	// 3-way cuckoo with 1 slot per bucket supports ~90% occupancy.
	const buckets = 1024
	c := NewCuckoo(0, 0, buckets, buckets, 1)
	target := buckets * 90 / 100
	for k := 1; k <= target; k++ {
		if err := c.Insert(uint64(k), []uint64{uint64(k)}); err != nil {
			t.Fatalf("insert %d/%d failed: %v", k, target, err)
		}
	}
	f := newFabric()
	f.Register(0, 0, c.Arena())
	qp := f.NewQP(1, nil)
	for k := 1; k <= target; k++ {
		if _, ok := c.GetRemote(qp, uint64(k)); !ok {
			t.Fatalf("key %d lost after displacement", k)
		}
	}
}

// TestCuckooProbeCountsRise: at higher occupancy, lookups need more READs
// on average — the Table 4 effect.
func TestCuckooProbeCountsRise(t *testing.T) {
	readsPerLookup := func(occupancy float64) float64 {
		const buckets = 4096
		c := NewCuckoo(0, 0, buckets, buckets, 1)
		n := int(occupancy * buckets)
		for k := 1; k <= n; k++ {
			if err := c.Insert(uint64(k), []uint64{uint64(k)}); err != nil {
				t.Fatalf("insert at occ %.2f: %v", occupancy, err)
			}
		}
		f := newFabric()
		f.Register(0, 0, c.Arena())
		qp := newCountedQP(f)
		for k := 1; k <= n; k++ {
			if !c.LookupRemote(qp, uint64(k)) {
				t.Fatalf("lookup %d missed", k)
			}
		}
		return float64(qp.Obs.Count(obs.EvRDMARead)) / float64(n)
	}
	lo, hi := readsPerLookup(0.5), readsPerLookup(0.9)
	if lo < 1.0 || lo > 1.9 {
		t.Fatalf("50%% occupancy avg reads = %.3f, want ~1.3-1.6", lo)
	}
	if hi <= lo {
		t.Fatalf("reads did not rise with occupancy: %.3f -> %.3f", lo, hi)
	}
}

func TestHopscotchInsertGetInline(t *testing.T) {
	h := NewHopscotch(0, 0, 1024, 1024, 2, true)
	f := newFabric()
	f.Register(0, 0, h.Arena())
	qp := f.NewQP(1, nil)
	for k := uint64(1); k <= 700; k++ {
		if err := h.Insert(k, []uint64{k, k + 1}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for k := uint64(1); k <= 700; k++ {
		v, ok := h.GetRemote(qp, k)
		if !ok || v[0] != k || v[1] != k+1 {
			t.Fatalf("get %d = %v,%v", k, v, ok)
		}
	}
	if _, ok := h.GetRemote(qp, 5000); ok {
		t.Fatal("found missing key")
	}
}

func TestHopscotchOffsetVariantExtraRead(t *testing.T) {
	hi := NewHopscotch(0, 0, 256, 256, 2, true)
	ho := NewHopscotch(0, 0, 256, 256, 2, false)
	_ = hi.Insert(1, []uint64{5, 6})
	_ = ho.Insert(1, []uint64{5, 6})

	f := newFabric()
	f.Register(0, 0, hi.Arena())
	f.Register(0, 1, ho.Arena()) // distinct region id
	ho.region = 1
	qpI, qpO := newCountedQP(f), newCountedQP(f)

	if v, ok := hi.GetRemote(qpI, 1); !ok || v[0] != 5 {
		t.Fatal("inline get failed")
	}
	if v, ok := ho.GetRemote(qpO, 1); !ok || v[0] != 5 {
		t.Fatal("offset get failed")
	}
	if qpI.Obs.Count(obs.EvRDMARead) != 1 {
		t.Fatalf("inline used %d READs, want 1", qpI.Obs.Count(obs.EvRDMARead))
	}
	if qpO.Obs.Count(obs.EvRDMARead) != 2 {
		t.Fatalf("offset used %d READs, want 2", qpO.Obs.Count(obs.EvRDMARead))
	}
	// Inline hauls 8 slots with values; offset's neighborhood is smaller.
	if qpI.Obs.Count(obs.EvRDMAReadBytes) <= qpO.Obs.Count(obs.EvRDMAReadBytes)-int64(2*8) {
		t.Log("inline bytes:", qpI.Obs.Count(obs.EvRDMAReadBytes), "offset bytes:", qpO.Obs.Count(obs.EvRDMAReadBytes))
	}
}

func TestHopscotchNearOneReadPerLookup(t *testing.T) {
	const buckets = 4096
	h := NewHopscotch(0, 0, buckets, buckets, 1, true)
	n := buckets * 75 / 100
	for k := 1; k <= n; k++ {
		if err := h.Insert(uint64(k), []uint64{uint64(k)}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	f := newFabric()
	f.Register(0, 0, h.Arena())
	qp := newCountedQP(f)
	for k := 1; k <= n; k++ {
		if !h.LookupRemote(qp, uint64(k)) {
			t.Fatalf("lookup %d missed", k)
		}
	}
	avg := float64(qp.Obs.Count(obs.EvRDMARead)) / float64(n)
	if avg < 1.0 || avg > 1.1 {
		t.Fatalf("avg reads/lookup = %.3f, want ~1.0 (Table 4)", avg)
	}
}

func TestHopscotchPut(t *testing.T) {
	h := NewHopscotch(0, 0, 64, 64, 1, false)
	f := newFabric()
	f.Register(0, 0, h.Arena())
	qp := f.NewQP(1, nil)
	_ = h.Insert(3, []uint64{1})
	if !h.Put(3, []uint64{9}) {
		t.Fatal("Put failed")
	}
	v, ok := h.GetRemote(qp, 3)
	if !ok || v[0] != 9 {
		t.Fatalf("after Put = %v,%v", v, ok)
	}
}

func TestHopscotchRandomizedVsModel(t *testing.T) {
	h := NewHopscotch(0, 0, 512, 512, 1, true)
	f := newFabric()
	f.Register(0, 0, h.Arena())
	qp := f.NewQP(1, nil)
	model := map[uint64]uint64{}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 350; i++ {
		k := uint64(r.Intn(1000) + 1)
		if _, ok := model[k]; ok {
			continue
		}
		v := uint64(r.Int63())
		if err := h.Insert(k, []uint64{v}); err != nil {
			t.Fatalf("insert: %v", err)
		}
		model[k] = v
	}
	for k, want := range model {
		got, ok := h.GetRemote(qp, k)
		if !ok || got[0] != want {
			t.Fatalf("key %d = %v,%v want %d", k, got, ok, want)
		}
	}
	if h.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", h.Len(), len(model))
	}
}

func BenchmarkCuckooRemoteGet(b *testing.B) {
	c := NewCuckoo(0, 0, 4096, 4096, 2)
	for k := uint64(1); k <= 2000; k++ {
		_ = c.Insert(k, []uint64{k, k})
	}
	f := newFabric()
	f.Register(0, 0, c.Arena())
	qp := f.NewQP(1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GetRemote(qp, uint64(i%2000)+1)
	}
}

func BenchmarkHopscotchRemoteGet(b *testing.B) {
	h := NewHopscotch(0, 0, 4096, 4096, 2, true)
	for k := uint64(1); k <= 2000; k++ {
		_ = h.Insert(k, []uint64{k, k})
	}
	f := newFabric()
	f.Register(0, 0, h.Arena())
	qp := f.NewQP(1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.GetRemote(qp, uint64(i%2000)+1)
	}
}
