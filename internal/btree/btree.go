// Package btree implements an in-memory B+tree with string keys, used as the
// ordered table structure of the execution engine ("Each table is represented
// as either a B-Tree, a binary tree, or hash table, as appropriate", §5).
//
// Keys are ordered bytewise; composite keys are encoded with fixed-width
// big-endian fields (see internal/storage/keys.go) so byte order equals
// logical order. Values are generic. The tree supports point operations and
// ascending/descending range scans; scans visit a consistent snapshot of the
// structure as long as the callback does not modify the tree.
//
// A Tree is single-goroutine, like every table of a partition: even Get
// writes, because it moves the tree's finger (see Tree).
package btree

// degree is the maximum number of children of an internal node. Leaves hold
// up to degree-1 entries. 32 keeps nodes within a couple of cache lines
// without making rebalancing tests unwieldy.
const degree = 32

const (
	maxKeys = degree - 1
	minKeys = maxKeys / 2
)

// Tree is a B+tree mapping string keys to values of type V. The zero value
// is not usable; call New.
//
// The tree keeps a finger on the last row a Get or Swap found: its leaf and
// slot, which name its key. A Get or Swap of the same key reads or replaces
// that slot without descending, so a read-modify-write of one row costs one
// descent. Only two operations move slots — an insert that creates a key and
// a successful Delete, inside which every split, borrow and merge happens —
// and both drop the finger. A replace leaves every slot where it was.
type Tree[V any] struct {
	root   *node[V]
	height int // number of levels; 1 = root is a leaf
	size   int
	// The finger: fleaf.keys[fslot] is the last key found. nil means unset.
	fleaf *node[V]
	fslot int
}

// node is either a leaf (children == nil) or an internal node. In an internal
// node, keys[i] is the smallest key reachable under children[i+1]; there are
// len(keys)+1 children.
type node[V any] struct {
	keys     []string
	vals     []V        // leaves only
	children []*node[V] // internal only
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	return &Tree[V]{root: &node[V]{}, height: 1}
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

func (n *node[V]) leaf() bool { return n.children == nil }

// search returns the index of the first key >= k.
func (n *node[V]) search(k string) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child to descend into for key k.
func (n *node[V]) childIndex(k string) int {
	// keys[i] is the minimum of children[i+1], so we want the last
	// separator <= k.
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under k.
func (t *Tree[V]) Get(k string) (V, bool) {
	if t.fleaf != nil && t.fleaf.keys[t.fslot] == k {
		return t.fleaf.vals[t.fslot], true
	}
	n, i, ok := t.find(k)
	if ok {
		return n.vals[i], true
	}
	var zero V
	return zero, false
}

// find descends to the leaf that holds or would hold k, returning it and the
// index of the first key >= k there. When k is present it reports ok and
// moves the finger onto it.
func (t *Tree[V]) find(k string) (*node[V], int, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[n.childIndex(k)]
	}
	i := n.search(k)
	if i < len(n.keys) && n.keys[i] == k {
		t.fleaf, t.fslot = n, i
		return n, i, true
	}
	return n, i, false
}

// Swap stores v under k in one descent, returning the value it replaced. An
// absent key is inserted (existed is false).
func (t *Tree[V]) Swap(k string, v V) (prev V, existed bool) {
	if t.fleaf != nil && t.fleaf.keys[t.fslot] == k {
		prev = t.fleaf.vals[t.fslot]
		t.fleaf.vals[t.fslot] = v
		return prev, true
	}
	if n, i, ok := t.find(k); ok {
		prev = n.vals[i]
		n.vals[i] = v
		return prev, true
	}
	t.fleaf = nil
	if split, sepKey, right := t.insert(t.root, k, v); split {
		t.root = &node[V]{
			keys:     []string{sepKey},
			children: []*node[V]{t.root, right},
		}
		t.height++
	}
	t.size++
	return prev, false
}

// Put inserts or replaces the value under k. It reports whether a new entry
// was created.
func (t *Tree[V]) Put(k string, v V) bool {
	_, existed := t.Swap(k, v)
	return !existed
}

// insert adds the absent key k under n. If n overflows it splits, returning
// the separator key and the new right sibling.
func (t *Tree[V]) insert(n *node[V], k string, v V) (split bool, sepKey string, right *node[V]) {
	if n.leaf() {
		i := n.search(k)
		n.keys = insertAt(n.keys, i, k)
		n.vals = insertAt(n.vals, i, v)
	} else {
		ci := n.childIndex(k)
		split, sepKey, right = t.insert(n.children[ci], k, v)
		if !split {
			return false, "", nil
		}
		n.keys = insertAt(n.keys, ci, sepKey)
		n.children = insertAt(n.children, ci+1, right)
	}
	if len(n.keys) <= maxKeys {
		return false, "", nil
	}
	sepKey, right = t.split(n)
	return true, sepKey, right
}

// insertAt inserts x at s[i], shifting the tail up.
func insertAt[T any](s []T, i int, x T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// removeAt deletes s[i], copying the tail down. The vacated last slot is
// zeroed so the backing array pins no dead key, row or node.
func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// cut keeps s[:n], zeroing the rest of the backing array (which stays
// allocated behind the capped slice) so it pins nothing that moved away.
func cut[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n:n]
}

// split divides an overfull node, returning the separator to push up and the
// new right sibling.
func (t *Tree[V]) split(n *node[V]) (string, *node[V]) {
	mid := len(n.keys) / 2
	r := &node[V]{}
	if n.leaf() {
		// Right leaf keeps keys[mid:]; separator is its first key
		// (B+tree: all keys stay in leaves).
		r.keys = append(r.keys, n.keys[mid:]...)
		r.vals = append(r.vals, n.vals[mid:]...)
		n.keys = cut(n.keys, mid)
		n.vals = cut(n.vals, mid)
		return r.keys[0], r
	}
	// Internal: separator moves up, not into the right node.
	sep := n.keys[mid]
	r.keys = append(r.keys, n.keys[mid+1:]...)
	r.children = append(r.children, n.children[mid+1:]...)
	n.keys = cut(n.keys, mid)
	n.children = cut(n.children, mid+1)
	return sep, r
}

// Delete removes k, returning its value if present.
func (t *Tree[V]) Delete(k string) (V, bool) {
	v, removed := t.remove(t.root, k)
	if removed {
		t.fleaf = nil
		t.size--
		if !t.root.leaf() && len(t.root.children) == 1 {
			t.root = t.root.children[0]
			t.height--
		}
	}
	return v, removed
}

func (t *Tree[V]) remove(n *node[V], k string) (V, bool) {
	var zero V
	if n.leaf() {
		i := n.search(k)
		if i >= len(n.keys) || n.keys[i] != k {
			return zero, false
		}
		v := n.vals[i]
		n.keys = removeAt(n.keys, i)
		n.vals = removeAt(n.vals, i)
		return v, true
	}
	ci := n.childIndex(k)
	v, removed := t.remove(n.children[ci], k)
	if !removed {
		return zero, false
	}
	if t.underflow(n.children[ci]) {
		t.rebalance(n, ci)
	}
	return v, true
}

func (t *Tree[V]) underflow(n *node[V]) bool {
	return len(n.keys) < minKeys
}

// rebalance fixes an underfull child at index ci of parent p by borrowing
// from or merging with a sibling.
func (t *Tree[V]) rebalance(p *node[V], ci int) {
	child := p.children[ci]
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := p.children[ci-1]
		if len(left.keys) > minKeys {
			if child.leaf() {
				last := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, left.keys[last])
				child.vals = insertAt(child.vals, 0, left.vals[last])
				left.keys = removeAt(left.keys, last)
				left.vals = removeAt(left.vals, last)
				p.keys[ci-1] = child.keys[0]
			} else {
				// Rotate through the parent separator.
				lastK := len(left.keys) - 1
				child.keys = insertAt(child.keys, 0, p.keys[ci-1])
				p.keys[ci-1] = left.keys[lastK]
				left.keys = removeAt(left.keys, lastK)
				lastC := len(left.children) - 1
				child.children = insertAt(child.children, 0, left.children[lastC])
				left.children = removeAt(left.children, lastC)
			}
			return
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(p.children)-1 {
		right := p.children[ci+1]
		if len(right.keys) > minKeys {
			if child.leaf() {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.keys = removeAt(right.keys, 0)
				right.vals = removeAt(right.vals, 0)
				p.keys[ci] = right.keys[0]
			} else {
				child.keys = append(child.keys, p.keys[ci])
				p.keys[ci] = right.keys[0]
				right.keys = removeAt(right.keys, 0)
				child.children = append(child.children, right.children[0])
				right.children = removeAt(right.children, 0)
			}
			return
		}
	}
	// Merge with a sibling.
	if ci > 0 {
		t.merge(p, ci-1)
	} else {
		t.merge(p, ci)
	}
}

// merge combines children i and i+1 of p into children[i].
func (t *Tree[V]) merge(p *node[V], i int) {
	left, right := p.children[i], p.children[i+1]
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
	} else {
		left.keys = append(left.keys, p.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	p.keys = removeAt(p.keys, i)
	p.children = removeAt(p.children, i+1)
}

// Ascend visits entries with lo <= key < hi in ascending order, stopping if
// fn returns false. An empty hi means "to the end".
func (t *Tree[V]) Ascend(lo, hi string, fn func(k string, v V) bool) {
	t.ascend(t.root, lo, hi, fn)
}

func (t *Tree[V]) ascend(n *node[V], lo, hi string, fn func(k string, v V) bool) bool {
	if n.leaf() {
		for i := n.search(lo); i < len(n.keys); i++ {
			if hi != "" && n.keys[i] >= hi {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	for ci := n.childIndex(lo); ci < len(n.children); ci++ {
		if ci > 0 && hi != "" && n.keys[ci-1] >= hi {
			return true
		}
		if !t.ascend(n.children[ci], lo, hi, fn) {
			return false
		}
	}
	return true
}

// Descend visits entries with lo <= key < hi in descending order, stopping if
// fn returns false. An empty hi means "from the end".
func (t *Tree[V]) Descend(lo, hi string, fn func(k string, v V) bool) {
	t.descend(t.root, lo, hi, fn)
}

func (t *Tree[V]) descend(n *node[V], lo, hi string, fn func(k string, v V) bool) bool {
	if n.leaf() {
		start := len(n.keys) - 1
		if hi != "" {
			start = n.search(hi) - 1
		}
		for i := start; i >= 0; i-- {
			if n.keys[i] < lo {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	start := len(n.children) - 1
	if hi != "" {
		start = n.childIndex(hi)
	}
	for ci := start; ci >= 0; ci-- {
		if !t.descend(n.children[ci], lo, hi, fn) {
			return false
		}
	}
	return true
}

// Min returns the smallest key and its value.
func (t *Tree[V]) Min() (string, V, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		var zero V
		return "", zero, false
	}
	return n.keys[0], n.vals[0], true
}

// Max returns the largest key and its value.
func (t *Tree[V]) Max() (string, V, bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		var zero V
		return "", zero, false
	}
	i := len(n.keys) - 1
	return n.keys[i], n.vals[i], true
}

// Height returns the number of levels in the tree (1 for a single leaf).
// Exposed for invariant tests.
func (t *Tree[V]) Height() int { return t.height }

// Check validates structural invariants, returning a description of the
// first violation or "" if the tree is well formed. Used by tests.
func (t *Tree[V]) Check() string {
	count, _, _, problem := t.check(t.root, 1, "", "")
	if problem != "" {
		return problem
	}
	if count != t.size {
		return "size mismatch"
	}
	if t.fleaf != nil {
		// The finger must name a slot of a leaf still in the tree.
		if t.fslot >= len(t.fleaf.keys) {
			return "finger slot out of range"
		}
		k := t.fleaf.keys[t.fslot]
		n := t.root
		for !n.leaf() {
			n = n.children[n.childIndex(k)]
		}
		if n != t.fleaf || n.search(k) != t.fslot {
			return "finger points outside the tree"
		}
	}
	return ""
}

func (t *Tree[V]) check(n *node[V], depth int, lo, hi string) (count int, minK, maxK, problem string) {
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return 0, "", "", "keys out of order"
		}
	}
	if n.leaf() {
		if depth != t.height {
			return 0, "", "", "leaf at wrong depth"
		}
		if len(n.keys) != len(n.vals) {
			return 0, "", "", "leaf keys/vals mismatch"
		}
		if n != t.root && len(n.keys) < minKeys {
			return 0, "", "", "leaf underfull"
		}
		for _, k := range n.keys {
			if k < lo || (hi != "" && k >= hi) {
				return 0, "", "", "leaf key outside separator bounds"
			}
		}
		if len(n.keys) == 0 {
			return 0, "", "", ""
		}
		return len(n.keys), n.keys[0], n.keys[len(n.keys)-1], ""
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, "", "", "internal child count mismatch"
	}
	if n != t.root && len(n.keys) < minKeys {
		return 0, "", "", "internal underfull"
	}
	total := 0
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = n.keys[i]
		}
		cnt, _, _, prob := t.check(c, depth+1, clo, chi)
		if prob != "" {
			return 0, "", "", prob
		}
		total += cnt
	}
	return total, lo, hi, ""
}
