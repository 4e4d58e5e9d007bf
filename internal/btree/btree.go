// Package btree provides the ordered-store index of DrTM's memory store
// layer (Section 5): a concurrent in-memory B+ tree mapping 64-bit keys to
// 64-bit payloads (record offsets in a table's arena).
//
// The paper reuses the DBX B+ tree, whose operations are protected by HTM
// used as lock elision. Go cannot elide locks in hardware, so this tree
// substitutes a reader/writer latch with the same observable semantics:
// linearizable point and range operations. Records of ordered tables do NOT
// live in the tree — the tree is only the index; record bodies live in
// HTM/2PL-protected arenas like every other record, so transactional
// isolation of ordered-table *data* is unaffected by the substitution (see
// DESIGN.md, "Known deviations").
//
// As in the paper, the ordered store is accessed locally (or via
// SEND/RECV verbs by shipping the operation to the host, Section 6.5);
// there is no one-sided RDMA path for B+ trees.
package btree

import (
	"fmt"
	"sync"
)

// degree is the maximum number of keys per node; chosen so nodes are a few
// cache lines, as in cache-conscious trees.
const degree = 32

type node struct {
	keys     []uint64
	vals     []uint64 // leaves only
	children []*node  // internal only
	next     *node    // leaf chain for range scans
	// low is a leaf's inclusive low fence key: the separator of the split that
	// created it, 0 for the first leaf. It never changes. Every key that routes
	// to the leaf is >= low, and — leaves are never merged or unlinked — the
	// leaf's key range is exactly [low, next.low), unbounded on the last leaf.
	low  uint64
	leaf bool
}

// leafNode and innerNode are a node and the arrays its slices use, in one
// allocation: the arrays hold a full node, so a node never grows, an insert
// into a node with room allocates nothing, and a split allocates only the new
// right half.
type leafNode struct {
	node
	keyBuf [degree]uint64
	valBuf [degree]uint64
}

type innerNode struct {
	node
	keyBuf   [degree]uint64
	childBuf [degree + 1]*node
}

// newLeaf returns a leaf with low fence low, linked before next, holding a
// copy of keys and vals.
func newLeaf(low uint64, next *node, keys, vals []uint64) *node {
	b := new(leafNode)
	b.node = node{keys: append(b.keyBuf[:0], keys...), vals: append(b.valBuf[:0], vals...),
		next: next, low: low, leaf: true}
	return &b.node
}

// newInner returns an internal node holding a copy of keys and children.
func newInner(keys []uint64, children []*node) *node {
	b := new(innerNode)
	b.node = node{keys: append(b.keyBuf[:0], keys...), children: append(b.childBuf[:0], children...)}
	return &b.node
}

// Tree is a concurrent B+ tree. The zero value is not usable; call New.
type Tree struct {
	mu   sync.RWMutex
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: newLeaf(0, nil, nil, nil)}
}

// Len returns the number of keys.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// search returns the index of the first key >= k.
func search(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Finger is a caller-owned hint that lets operations on keys near earlier
// ones skip the root-to-leaf descent: it remembers the last FingerLeaves
// leaves that operations through it reached, most recently used first. The
// zero value is an empty finger. A finger belongs to one goroutine; any number
// of them may work on one tree at once.
//
// A finger needs no tree version to stay safe. Leaves are never merged or
// unlinked, so a node it names is a leaf of the tree for good; the leaf's low
// fence never changes, and its range [low, next.low) only ever shrinks from
// the right, when a split gives its upper half to a new next leaf. Under the
// tree latch "low <= key, and key < next.low or there is no next" therefore
// proves that key routes to this leaf and nowhere else, whatever happened to
// the leaf since the finger last saw it: a leaf that split passes only for the
// range it kept, and an emptied leaf still covers its whole range.
type Finger struct {
	tree   *Tree
	leaves [FingerLeaves]*node
	n      int
	desc   []kv // DescendAt's collection scratch
}

type kv struct{ k, v uint64 }

// FingerLeaves is how many leaves a finger remembers: room for the append
// points and queue heads a worker interleaves on one table (TPC-C: ten
// districts' newest orders and ten oldest undelivered ones), so that runs
// taking turns do not evict each other. EXPERIMENTS.md has the sweep.
const FingerLeaves = 32

// Path says how a point operation or a scan start reached its leaf.
type Path uint8

const (
	// Descent is a root-to-leaf walk made because no remembered leaf covers
	// the key (or there is no finger).
	Descent Path = iota
	// FullLeaf is a root-to-leaf walk made by an insert whose covering leaf is
	// remembered but full: the ordinary insert splits on its way down.
	FullLeaf
	// Hit is no walk: a remembered leaf covers the key.
	Hit
)

func (p Path) String() string { return [...]string{"descent", "full leaf", "hit"}[p] }

// covering returns the remembered leaf that key provably routes to (see
// Finger) and makes it the most recent, else nil. The caller holds t's latch;
// f may be nil.
func (f *Finger) covering(t *Tree, key uint64) *node {
	if f == nil || f.tree != t {
		return nil
	}
	for i, n := range f.leaves[:f.n] {
		if key >= n.low && (n.next == nil || key < n.next.low) {
			f.toFront(i, n)
			return n
		}
	}
	return nil
}

// toFront makes n the most recent leaf, closing the gap at position i.
func (f *Finger) toFront(i int, n *node) {
	copy(f.leaves[1:i+1], f.leaves[:i])
	f.leaves[0] = n
}

// rest remembers the leaf a descent of t ended in as the most recent one,
// forgetting the least recent when the finger is full; f may be nil.
func (f *Finger) rest(t *Tree, n *node) {
	if f == nil {
		return
	}
	if f.tree != t {
		*f = Finger{tree: t}
	}
	if f.n > 0 && f.leaves[0] == n {
		// The one remembered leaf a descent can end in: a full leaf that
		// covering just made the most recent, after it split and kept the key.
		return
	}
	if f.n < FingerLeaves {
		f.n++
	}
	f.toFront(f.n-1, n)
}

// CheckFences verifies, for tests, what a Finger's proof rests on: the first
// leaf's low fence is 0, fences strictly increase along the leaf chain, every
// leaf's keys — its first and last: they are sorted — lie in its range
// [low, next.low), and a descent for a leaf's fence ends in that leaf.
func (t *Tree) CheckFences() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	if n.low != 0 {
		return fmt.Errorf("btree: first leaf's low fence is %d, want 0", n.low)
	}
	for ; n != nil; n = n.next {
		if n.next != nil && n.next.low <= n.low {
			return fmt.Errorf("btree: low fence %d is followed by %d", n.low, n.next.low)
		}
		if last := len(n.keys) - 1; last >= 0 {
			if n.keys[0] < n.low {
				return fmt.Errorf("btree: key %d below its leaf's low fence %d", n.keys[0], n.low)
			}
			if n.next != nil && n.keys[last] >= n.next.low {
				return fmt.Errorf("btree: key %d at or above the next leaf's low fence %d", n.keys[last], n.next.low)
			}
		}
		if t.descend(n.low) != n {
			return fmt.Errorf("btree: fence %d does not route to its leaf", n.low)
		}
	}
	return nil
}

// descend walks from the root to the leaf key routes to.
func (t *Tree) descend(key uint64) *node {
	n := t.root
	for !n.leaf {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.children[i]
	}
	return n
}

// leafFor returns the leaf key routes to and whether the finger supplied it
// or a descent did, which the finger then remembers.
func (t *Tree) leafFor(f *Finger, key uint64) (*node, Path) {
	if n := f.covering(t, key); n != nil {
		return n, Hit
	}
	n := t.descend(key)
	f.rest(t, n)
	return n, Descent
}

// Get returns the payload for key.
func (t *Tree) Get(key uint64) (uint64, bool) {
	v, ok, _ := t.GetAt(nil, key)
	return v, ok
}

// GetAt is Get starting from a finger (nil for none); via reports whether a
// remembered leaf answered or a descent was made.
func (t *Tree) GetAt(f *Finger, key uint64) (val uint64, ok bool, via Path) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, via := t.leafFor(f, key)
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true, via
	}
	return 0, false, via
}

// Insert adds or overwrites key's payload, reporting whether the key was new.
func (t *Tree) Insert(key, val uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	added, _ := t.insertLocked(nil, key, val, true)
	return added
}

// InsertIfAbsent adds key only if it is not present, reporting success.
// Existing payloads are never overwritten.
func (t *Tree) InsertIfAbsent(key, val uint64) bool {
	added, _ := t.InsertIfAbsentAt(nil, key, val)
	return added
}

// InsertIfAbsentAt is InsertIfAbsent starting from a finger (nil for none);
// via reports whether the key went into (or was found in) a remembered leaf
// without a descent, and why not otherwise. A full leaf descends like a miss:
// the ordinary insert splits on its way down.
func (t *Tree) InsertIfAbsentAt(f *Finger, key, val uint64) (added bool, via Path) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(f, key, val, false)
}

func (t *Tree) insertLocked(f *Finger, key, val uint64, overwrite bool) (added bool, via Path) {
	n := f.covering(t, key)
	switch {
	case n == nil:
		via = Descent
	case len(n.keys) == maxKeys():
		via = FullLeaf
	default:
		via = Hit
	}
	if via != Hit {
		if len(t.root.keys) == maxKeys() {
			t.root = newInner(nil, []*node{t.root})
			t.splitChild(t.root, 0)
		}
		n = t.descendSplitting(key)
		f.rest(t, n)
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		if overwrite {
			n.vals[i] = val
		}
		return false, via
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = val
	t.size++
	return true, via
}

func maxKeys() int { return degree }

func (t *Tree) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	var right *node
	var sep uint64
	if child.leaf {
		sep = child.keys[mid]
		right = newLeaf(sep, child.next, child.keys[mid:], child.vals[mid:])
		child.keys = child.keys[:mid]
		child.vals = child.vals[:mid]
		child.next = right
	} else {
		right = newInner(child.keys[mid+1:], child.children[mid+1:])
		sep = child.keys[mid]
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	parent.keys = append(parent.keys, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

// descendSplitting walks from a non-full root to the leaf key routes to,
// splitting every full node on the way, so the leaf it returns has room.
func (t *Tree) descendSplitting(key uint64) *node {
	n := t.root
	for !n.leaf {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		if len(n.children[i].keys) == maxKeys() {
			t.splitChild(n, i)
			if key >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
	return n
}

// Delete removes key, reporting whether it was present. Deletion is lazy:
// leaves are never merged or unlinked (scans skip empty leaves), which is
// the right trade-off for the workloads' bounded-queue deletes (NEW-ORDER)
// and keeps the concurrent structure simple.
func (t *Tree) Delete(key uint64) bool {
	deleted, _ := t.DeleteAt(nil, key)
	return deleted
}

// DeleteAt is Delete starting from a finger (nil for none); via reports
// whether a remembered leaf answered or a descent was made.
func (t *Tree) DeleteAt(f *Finger, key uint64) (deleted bool, via Path) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, via := t.leafFor(f, key)
	i := search(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false, via
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return true, via
}

// Ascend visits keys in [lo, hi] in ascending order; fn returning false
// stops the scan.
func (t *Tree) Ascend(lo, hi uint64, fn func(key, val uint64) bool) {
	t.AscendAt(nil, lo, hi, fn)
}

// AscendAt is Ascend starting from a finger (nil for none); via reports
// whether a remembered leaf covers lo or the scan descended to its first leaf.
func (t *Tree) AscendAt(f *Finger, lo, hi uint64, fn func(key, val uint64) bool) Path {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, via := t.leafFor(f, lo)
	for ; n != nil; n = n.next {
		for i := search(n.keys, lo); i < len(n.keys); i++ {
			if n.keys[i] > hi || !fn(n.keys[i], n.vals[i]) {
				return via
			}
		}
	}
	return via
}

// Descend visits keys in [lo, hi] in descending order; fn returning false
// stops the scan.
func (t *Tree) Descend(lo, hi uint64, fn func(key, val uint64) bool) {
	t.DescendAt(nil, lo, hi, fn)
}

// DescendAt is Descend starting from a finger, as AscendAt is Ascend.
// Descending order is served by collecting the range first (leaves link
// forward only), which is fine for the short "latest N" scans OLTP uses it
// for. The collection reuses the finger's scratch; only a nil finger
// allocates it.
func (t *Tree) DescendAt(f *Finger, lo, hi uint64, fn func(key, val uint64) bool) Path {
	var acc []kv
	if f != nil {
		acc, f.desc = f.desc[:0], nil // fn may scan through f again
	}
	via := t.AscendAt(f, lo, hi, func(k, v uint64) bool {
		acc = append(acc, kv{k, v})
		return true
	})
	for i := len(acc) - 1; i >= 0; i-- {
		if !fn(acc[i].k, acc[i].v) {
			break
		}
	}
	if f != nil {
		f.desc = acc
	}
	return via
}

// Min returns the smallest key, if any.
func (t *Tree) Min() (uint64, uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		if len(n.keys) > 0 {
			return n.keys[0], n.vals[0], true
		}
		n = n.next
	}
	return 0, 0, false
}

// Max returns the largest key, if any.
func (t *Tree) Max() (uint64, uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		return 0, 0, false
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1], true
}
