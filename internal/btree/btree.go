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

import "sync"

// degree is the maximum number of keys per node; chosen so nodes are a few
// cache lines, as in cache-conscious trees.
const degree = 32

type node struct {
	keys     []uint64
	vals     []uint64 // leaves only
	children []*node  // internal only
	next     *node    // leaf chain for range scans
	leaf     bool
}

// Tree is a concurrent B+ tree. The zero value is not usable; call New.
type Tree struct {
	mu   sync.RWMutex
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
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

// Finger is a caller-owned hint that lets a run of operations on adjacent
// keys skip the root-to-leaf descent: it remembers the last leaf an operation
// through it reached. The zero value is an empty finger. A finger belongs to
// one goroutine; any number of them may work on one tree at once.
//
// A finger needs no tree version to stay safe. Leaves are never merged or
// unlinked, so the node it names is a leaf of the tree for good, and a leaf's
// key range only ever shrinks from the right (a split moves its upper half to
// a new right sibling). Every key in a leaf lies inside that range, so under
// the tree latch "first <= key <= last of the leaf, or key > last on the
// rightmost leaf" proves the key routes to this leaf and nowhere else. The test
// is made against what the leaf holds now, so a leaf that split or lost keys
// since the finger was left on it passes only for the keys it still covers; an
// emptied leaf, or one that is simply elsewhere, fails it, and the operation
// descends as if it had no finger.
type Finger struct {
	tree *Tree
	leaf *node
}

// covering returns the finger's leaf when key provably routes to it (see
// Finger), else nil. The caller holds t's latch; f may be nil.
func (f *Finger) covering(t *Tree, key uint64) *node {
	if f == nil || f.tree != t {
		return nil
	}
	n := f.leaf
	if last := len(n.keys) - 1; last >= 0 && key >= n.keys[0] && (key <= n.keys[last] || n.next == nil) {
		return n
	}
	return nil
}

// rest leaves the finger on the leaf a descent of t ended in; f may be nil.
func (f *Finger) rest(t *Tree, n *node) {
	if f != nil {
		f.tree, f.leaf = t, n
	}
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
// (hit) or a descent did, which leaves the finger on the leaf it found.
func (t *Tree) leafFor(f *Finger, key uint64) (n *node, hit bool) {
	if n = f.covering(t, key); n != nil {
		return n, true
	}
	n = t.descend(key)
	f.rest(t, n)
	return n, false
}

// Get returns the payload for key.
func (t *Tree) Get(key uint64) (uint64, bool) {
	v, ok, _ := t.GetAt(nil, key)
	return v, ok
}

// GetAt is Get starting from a finger (nil for none); hit reports that the
// finger's leaf answered and no descent was made.
func (t *Tree) GetAt(f *Finger, key uint64) (val uint64, ok, hit bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, hit := t.leafFor(f, key)
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true, hit
	}
	return 0, false, hit
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
// hit reports that the key went into (or was found in) the finger's leaf
// without a descent. A full leaf descends like a miss: the ordinary insert
// splits on its way down.
func (t *Tree) InsertIfAbsentAt(f *Finger, key, val uint64) (added, hit bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(f, key, val, false)
}

func (t *Tree) insertLocked(f *Finger, key, val uint64, overwrite bool) (added, hit bool) {
	n := f.covering(t, key)
	if hit = n != nil && len(n.keys) < maxKeys(); !hit {
		if len(t.root.keys) == maxKeys() {
			old := t.root
			t.root = &node{children: []*node{old}}
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
		return false, hit
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = val
	t.size++
	return true, hit
}

func maxKeys() int { return degree }

func (t *Tree) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	var right *node
	var sep uint64
	if child.leaf {
		right = &node{
			leaf: true,
			keys: append([]uint64(nil), child.keys[mid:]...),
			vals: append([]uint64(nil), child.vals[mid:]...),
			next: child.next,
		}
		child.keys = child.keys[:mid:mid]
		child.vals = child.vals[:mid:mid]
		child.next = right
		sep = right.keys[0]
	} else {
		right = &node{
			keys:     append([]uint64(nil), child.keys[mid+1:]...),
			children: append([]*node(nil), child.children[mid+1:]...),
		}
		sep = child.keys[mid]
		child.keys = child.keys[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
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

// DeleteAt is Delete starting from a finger (nil for none); hit reports that
// the finger's leaf answered and no descent was made.
func (t *Tree) DeleteAt(f *Finger, key uint64) (deleted, hit bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, hit := t.leafFor(f, key)
	i := search(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false, hit
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return true, hit
}

// Ascend visits keys in [lo, hi] in ascending order; fn returning false
// stops the scan.
func (t *Tree) Ascend(lo, hi uint64, fn func(key, val uint64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for n := t.descend(lo); n != nil; n = n.next {
		for i := search(n.keys, lo); i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
	}
}

// Descend visits keys in [lo, hi] in descending order; fn returning false
// stops the scan. Descending order is served by collecting the range first
// (leaves link forward only), which is fine for the short "latest N"
// scans OLTP uses it for.
func (t *Tree) Descend(lo, hi uint64, fn func(key, val uint64) bool) {
	type kv struct{ k, v uint64 }
	var acc []kv
	t.Ascend(lo, hi, func(k, v uint64) bool {
		acc = append(acc, kv{k, v})
		return true
	})
	for i := len(acc) - 1; i >= 0; i-- {
		if !fn(acc[i].k, acc[i].v) {
			return
		}
	}
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
