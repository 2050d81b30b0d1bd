package shm

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Variable-sized messages (Section 2.1): "Variable sized messages can be
// accommodated by using one of the fields of the fixed sized message to
// point to a variable sized component in shared memory." BlockPool is
// that shared-memory component store: a slab arena with ascending size
// classes, one ABA-tagged Treiber free stack per class, addressed by
// position-independent 32-bit references.
//
// Like the node pool, every control word lives at a fixed offset inside
// a flat byte region, so the same arena works over heap memory (the
// in-process default) or inside a mapped segment shared by processes
// (see SegConfig.Blocks) — refs and free-list links are offsets, never
// pointers, and there are no locks anywhere.
//
// Each slot additionally carries a lease tag: the id of the endpoint
// currently holding the block (owner+1; 0 = unleased). Tags are what
// make payload leaks recoverable — a sweeper that declares a peer dead
// walks the tags and returns every block the corpse still held
// (ReclaimOwner), and a receiver resolving a payload reference CASes
// the tag to itself (Claim), so the reclaim and the resolution race to
// a single winner instead of a double free.
//
// The tag shares its word with the slot's generation, which counts the
// times the slot was taken back from a holder (ReclaimOwner, ReclaimAll).
// A message stamps the generation beside the reference (Gen), and its
// receiver claims with it (ClaimGen): a dead sender's request still
// queued when the sweeper reclaims its block names the old generation,
// so once the slot is reallocated the stale request cannot claim — and
// then free — the new holder's block. A plain free keeps the generation:
// it needs no fencing, because no message refers to a block its holder
// frees.

// BlockRef is a position-independent reference to an allocated block:
// the size class in the high 8 bits, the slot index in the low 24.
type BlockRef = uint32

// NilBlock is the null block reference.
const NilBlock BlockRef = ^BlockRef(0)

func packBlock(class, slot int) BlockRef {
	return BlockRef(class)<<24 | BlockRef(slot)&0xFFFFFF
}

func unpackBlock(r BlockRef) (class, slot int) {
	return int(r >> 24), int(r & 0xFFFFFF)
}

// blockCtl is one size class's control block: the tagged Treiber head on
// its own cache line, then the free count and the two backpressure
// counters (allocations that found this class empty, and allocations
// this class absorbed for a smaller exhausted class) on a second line.
type blockCtl struct {
	Head      atomic.Uint64 // tag<<32 | top slot (slotNil = empty)
	_         [56]byte
	Free      atomic.Int64
	Fallbacks atomic.Int64
	Exhausts  atomic.Int64
	_         [40]byte
}

// Compile-time pin: blockCtl is part of the segment ABI.
var _ [128 - unsafe.Sizeof(blockCtl{})]byte

const slotNil = uint32(0xFFFFFFFF)

// MaxBlockClasses bounds the class count: the segment header reserves
// exactly this many geometry words for class sizes.
const MaxBlockClasses = 4

// MaxBlockSize bounds a class size: a message carries the payload
// length in 24 bits, beside the reference and its generation.
const MaxBlockSize = 1<<24 - 1

// A lease word: the generation in the high 32 bits, the tag (owner+1,
// 0 = unleased) in the low 32.
const (
	tagMask uint64 = 1<<32 - 1
	genUnit uint64 = 1 << 32
)

// DefaultBlockSizes are the size classes used by NewDefaultBlockPool.
var DefaultBlockSizes = []int{64, 256, 1024, 4096}

// BlockLayout is the computed region map of a slab arena: per class a
// control block, a free-list link array, a lease-word array, and the
// slot storage, each 64-byte aligned.
type BlockLayout struct {
	Sizes []int
	Count int // slots per class
	Size  int // total bytes

	ctlOff  []int
	linkOff []int
	ownOff  []int
	dataOff []int
}

// BlockLayoutFor computes the arena layout for the given class sizes
// (ascending multiples of 8) and per-class slot count.
func BlockLayoutFor(sizes []int, countPerClass int) (BlockLayout, error) {
	if len(sizes) == 0 || len(sizes) > MaxBlockClasses {
		return BlockLayout{}, fmt.Errorf("shm: need 1..%d block size classes, got %d", MaxBlockClasses, len(sizes))
	}
	if countPerClass < 1 || countPerClass > 0xFFFFFF {
		return BlockLayout{}, fmt.Errorf("shm: block count per class out of range: %d", countPerClass)
	}
	l := BlockLayout{Sizes: append([]int(nil), sizes...), Count: countPerClass}
	prev := 0
	off := 0
	for _, size := range sizes {
		if size <= prev {
			return BlockLayout{}, fmt.Errorf("shm: block class sizes must be ascending, got %v", sizes)
		}
		if size%8 != 0 {
			return BlockLayout{}, fmt.Errorf("shm: block class size %d not a multiple of 8", size)
		}
		if size > MaxBlockSize {
			return BlockLayout{}, fmt.Errorf("shm: block class size %d above %d", size, MaxBlockSize)
		}
		prev = size
		l.ctlOff = append(l.ctlOff, off)
		off += int(unsafe.Sizeof(blockCtl{}))
		l.linkOff = append(l.linkOff, off)
		off += align64(countPerClass * 4)
		l.ownOff = append(l.ownOff, off)
		off += align64(countPerClass * 8)
		l.dataOff = append(l.dataOff, off)
		off += align64(countPerClass * size)
	}
	l.Size = align64(off)
	return l, nil
}

// slabClass is the typed view of one size class's regions.
type slabClass struct {
	size  int
	count int
	ctl   *blockCtl
	next  []atomic.Uint32 // free-list links, indexed by slot
	own   []atomic.Uint64 // lease words: generation<<32 | owner+1 (0 = unleased)
	data  []byte
}

func (c *slabClass) block(slot uint32) []byte {
	off := int(slot) * c.size
	return c.data[off : off+c.size : off+c.size]
}

// setTag replaces a slot's lease tag, keeping its generation.
func (c *slabClass) setTag(slot int, tag uint32) {
	for {
		cur := c.own[slot].Load()
		if c.own[slot].CompareAndSwap(cur, cur&^tagMask|uint64(tag)) {
			return
		}
	}
}

func (c *slabClass) push(slot uint32) {
	for {
		h := c.ctl.Head.Load()
		tag, top := unpackHead(h)
		c.next[slot].Store(top)
		if c.ctl.Head.CompareAndSwap(h, packHead(tag+1, slot)) {
			c.ctl.Free.Add(1)
			return
		}
	}
}

func (c *slabClass) pop() (uint32, bool) {
	for {
		h := c.ctl.Head.Load()
		tag, top := unpackHead(h)
		if top == slotNil {
			return 0, false
		}
		if int(top) >= c.count {
			// A crashed or hostile peer corrupted the head: fail closed
			// rather than indexing out of the class.
			return 0, false
		}
		if c.ctl.Head.CompareAndSwap(h, packHead(tag+1, c.next[top].Load())) {
			c.ctl.Free.Add(-1)
			return top, true
		}
	}
}

// popN pops up to len(dst) slots with a single CAS (the AllocN walk:
// stale mid-walk link reads are rejected by the tagged head CAS).
func (c *slabClass) popN(dst []uint32) int {
	if len(dst) == 0 {
		return 0
	}
	for {
		h := c.ctl.Head.Load()
		tag, top := unpackHead(h)
		if top == slotNil {
			return 0
		}
		n := 0
		s := top
		for n < len(dst) && s != slotNil {
			if int(s) >= c.count {
				n = 0 // corrupted link: fail closed
				break
			}
			dst[n] = s
			n++
			s = c.next[s].Load()
		}
		if n == 0 {
			return 0
		}
		if c.ctl.Head.CompareAndSwap(h, packHead(tag+1, s)) {
			c.ctl.Free.Add(-int64(n))
			return n
		}
	}
}

// pushN splices a caller-owned chain of slots with a single CAS.
func (c *slabClass) pushN(slots []uint32) {
	if len(slots) == 0 {
		return
	}
	for i := 0; i < len(slots)-1; i++ {
		c.next[slots[i]].Store(slots[i+1])
	}
	last := slots[len(slots)-1]
	for {
		h := c.ctl.Head.Load()
		tag, top := unpackHead(h)
		c.next[last].Store(top)
		if c.ctl.Head.CompareAndSwap(h, packHead(tag+1, slots[0])) {
			c.ctl.Free.Add(int64(len(slots)))
			return
		}
	}
}

// BlockPool is the variable-sized-component store: the typed view over
// a slab arena region (heap-backed via NewBlockPool, or a window into a
// mapped segment via SegView.Blocks).
type BlockPool struct {
	classes []slabClass
	lay     BlockLayout
}

// viewBlockPool builds the typed views over an arena region. It does
// not initialise the region — mappers view an already-formatted arena.
func viewBlockPool(mem []byte, lay BlockLayout) *BlockPool {
	p := &BlockPool{lay: lay}
	for ci, size := range lay.Sizes {
		p.classes = append(p.classes, slabClass{
			size:  size,
			count: lay.Count,
			ctl:   (*blockCtl)(unsafe.Pointer(&mem[lay.ctlOff[ci]])),
			next:  unsafe.Slice((*atomic.Uint32)(unsafe.Pointer(&mem[lay.linkOff[ci]])), lay.Count),
			own:   unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&mem[lay.ownOff[ci]])), lay.Count),
			data:  mem[lay.dataOff[ci] : lay.dataOff[ci]+lay.Count*size : lay.dataOff[ci]+lay.Count*size],
		})
	}
	return p
}

// initBlocks formats a fresh arena: every class's free list threaded in
// ascending slot order, counters zeroed, tags cleared.
func (p *BlockPool) initBlocks() {
	for ci := range p.classes {
		c := &p.classes[ci]
		for i := 0; i < c.count-1; i++ {
			c.next[i].Store(uint32(i + 1))
		}
		c.next[c.count-1].Store(slotNil)
		c.ctl.Head.Store(packHead(0, 0))
		c.ctl.Free.Store(int64(c.count))
		c.ctl.Fallbacks.Store(0)
		c.ctl.Exhausts.Store(0)
		for i := range c.own {
			c.own[i].Store(0)
		}
	}
}

// NewBlockPool builds a heap-backed pool with the given class sizes
// (ascending multiples of 8) and the same slot count in each class.
func NewBlockPool(sizes []int, countPerClass int) (*BlockPool, error) {
	lay, err := BlockLayoutFor(sizes, countPerClass)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, lay.Size+63)
	base := uintptr(unsafe.Pointer(&raw[0]))
	off := int((64 - base%64) % 64)
	p := viewBlockPool(raw[off:off+lay.Size], lay)
	p.initBlocks()
	return p, nil
}

// NewDefaultBlockPool builds a pool with the default size classes.
func NewDefaultBlockPool(countPerClass int) (*BlockPool, error) {
	return NewBlockPool(DefaultBlockSizes, countPerClass)
}

// Layout returns the arena's region map.
func (p *BlockPool) Layout() BlockLayout { return p.lay }

// MaxBlock returns the largest allocatable block size.
func (p *BlockPool) MaxBlock() int { return p.classes[len(p.classes)-1].size }

// Classes returns the number of size classes.
func (p *BlockPool) Classes() int { return len(p.classes) }

// ClassSize returns the block size of class ci.
func (p *BlockPool) ClassSize(ci int) int { return p.classes[ci].size }

// ClassFor returns the smallest class fitting n bytes, or -1.
func (p *BlockPool) ClassFor(n int) int {
	if n < 0 {
		return -1
	}
	for ci := range p.classes {
		if p.classes[ci].size >= n {
			return ci
		}
	}
	return -1
}

// Alloc returns a block of at least n bytes, or false if no class can
// satisfy the request (too large, or every fitting class is exhausted —
// the caller's flow control reacts exactly as it does to a full queue).
// An exhausted class records the miss in its Exhausts counter; a
// request absorbed by a larger class than its best fit records a
// Fallback on the class that served it.
func (p *BlockPool) Alloc(n int) (BlockRef, []byte, bool) {
	first := p.ClassFor(n)
	if first < 0 {
		return NilBlock, nil, false
	}
	for ci := first; ci < len(p.classes); ci++ {
		c := &p.classes[ci]
		if slot, ok := c.pop(); ok {
			if ci > first {
				c.ctl.Fallbacks.Add(1)
			}
			return packBlock(ci, int(slot)), c.block(slot), true
		}
		c.ctl.Exhausts.Add(1)
	}
	return NilBlock, nil, false
}

// AllocClassN pops up to len(dst) blocks from one class with a single
// CAS, returning how many it took — the batching primitive block caches
// refill through (mirrors Pool.AllocN).
func (p *BlockPool) AllocClassN(class int, dst []BlockRef) int {
	if class < 0 || class >= len(p.classes) {
		return 0
	}
	c := &p.classes[class]
	tmp := make([]uint32, len(dst))
	n := c.popN(tmp)
	for i := 0; i < n; i++ {
		dst[i] = packBlock(class, int(tmp[i]))
	}
	return n
}

// FreeClassN returns a batch of same-class blocks with a single CAS,
// clearing their lease tags (mirrors Pool.FreeN). Refs from different
// classes are rejected.
func (p *BlockPool) FreeClassN(refs []BlockRef) error {
	if len(refs) == 0 {
		return nil
	}
	class, _ := unpackBlock(refs[0])
	if class >= len(p.classes) {
		return fmt.Errorf("shm: bad block class %d", class)
	}
	c := &p.classes[class]
	slots := make([]uint32, len(refs))
	for i, r := range refs {
		cl, slot := unpackBlock(r)
		if cl != class || slot >= c.count {
			return fmt.Errorf("shm: FreeClassN ref %#x not in class %d", r, class)
		}
		slots[i] = uint32(slot)
	}
	for _, s := range slots {
		c.setTag(int(s), 0)
	}
	c.pushN(slots)
	return nil
}

func (p *BlockPool) class(r BlockRef) (*slabClass, int, error) {
	class, slot := unpackBlock(r)
	if class >= len(p.classes) {
		return nil, 0, fmt.Errorf("shm: bad block class %d", class)
	}
	c := &p.classes[class]
	if slot >= c.count {
		return nil, 0, fmt.Errorf("shm: bad block slot %d (class %d)", slot, class)
	}
	return c, slot, nil
}

// Get returns the storage of an allocated block.
func (p *BlockPool) Get(r BlockRef) ([]byte, error) {
	c, slot, err := p.class(r)
	if err != nil {
		return nil, err
	}
	return c.block(uint32(slot)), nil
}

// Free returns a block to its class, clearing its lease tag.
func (p *BlockPool) Free(r BlockRef) error {
	c, slot, err := p.class(r)
	if err != nil {
		return err
	}
	c.setTag(slot, 0)
	c.push(uint32(slot))
	return nil
}

// Lease tags a block as held by owner (the allocator's endpoint id).
// The sweeper's ReclaimOwner uses the tag to return a dead endpoint's
// blocks; Claim transfers it to a message's receiver.
func (p *BlockPool) Lease(r BlockRef, owner uint32) error {
	c, slot, err := p.class(r)
	if err != nil {
		return err
	}
	c.setTag(slot, owner+1)
	return nil
}

// Gen returns the block's generation as a message carries it (its low
// 8 bits). A sender stamps it beside the reference once the block is
// leased; it stays put until the block is reclaimed from a holder.
func (p *BlockPool) Gen(r BlockRef) uint8 {
	c, slot, err := p.class(r)
	if err != nil {
		return 0
	}
	return uint8(c.own[slot].Load() >> 32)
}

// Claim transfers a block's lease to owner. It succeeds only while the
// block is leased to someone — a cleared tag means a sweeper already
// reclaimed it (the previous holder died), and the caller must treat
// the payload as lost rather than use (or free) the recycled slot.
func (p *BlockPool) Claim(r BlockRef, owner uint32) bool {
	return p.claim(r, owner, 0, false)
}

// ClaimGen is Claim for a reference stamped at generation gen (see
// Gen): it also fails when the block has been reclaimed since, even if
// the slot is leased again — to a holder the stamp does not name.
func (p *BlockPool) ClaimGen(r BlockRef, gen uint8, owner uint32) bool {
	return p.claim(r, owner, gen, true)
}

func (p *BlockPool) claim(r BlockRef, owner uint32, gen uint8, checkGen bool) bool {
	c, slot, err := p.class(r)
	if err != nil {
		return false
	}
	for {
		cur := c.own[slot].Load()
		if cur&tagMask == 0 || checkGen && uint8(cur>>32) != gen {
			return false
		}
		if c.own[slot].CompareAndSwap(cur, cur&^tagMask|uint64(owner+1)) {
			return true
		}
	}
}

// Owner returns a block's lease tag (owner id, leased=true) for audits.
func (p *BlockPool) Owner(r BlockRef) (uint32, bool) {
	c, slot, err := p.class(r)
	if err != nil {
		return 0, false
	}
	v := uint32(c.own[slot].Load())
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// ReclaimOwner returns every block still leased to owner — the
// sweeper's dead-peer pass — and advances each one's generation. The
// word CAS makes it race-free against a surviving receiver Claiming the
// same block: exactly one side wins.
func (p *BlockPool) ReclaimOwner(owner uint32) int {
	n := 0
	for ci := range p.classes {
		c := &p.classes[ci]
		for slot := range c.own {
			cur := c.own[slot].Load()
			if uint32(cur) == owner+1 && c.own[slot].CompareAndSwap(cur, cur&^tagMask+genUnit) {
				c.push(uint32(slot))
				n++
			}
		}
	}
	return n
}

// ReclaimAll audits and repairs the arena after every peer is gone (the
// post-mortem doctrine — exclusive access required): each class's free
// list is walked, every unreachable slot is returned (its tag cleared,
// its generation advanced), and the free counters are restored to exact
// values. It returns the
// number of orphaned blocks recovered.
func (p *BlockPool) ReclaimAll() (int, error) {
	orphans := 0
	for ci := range p.classes {
		c := &p.classes[ci]
		seen := make([]bool, c.count)
		_, top := unpackHead(c.ctl.Head.Load())
		for s := top; s != slotNil; s = c.next[s].Load() {
			if int(s) >= c.count || seen[s] {
				return orphans, fmt.Errorf("shm: block class %d free list cycle or wild slot at %d", ci, s)
			}
			seen[s] = true
		}
		for slot := 0; slot < c.count; slot++ {
			if !seen[slot] {
				c.own[slot].Store(c.own[slot].Load()&^tagMask + genUnit)
				c.push(uint32(slot))
				orphans++
			}
		}
		c.ctl.Free.Store(int64(c.count))
	}
	return orphans, nil
}

// BlockClassStats is one class's snapshot for MetricsV2/Prometheus.
type BlockClassStats struct {
	Size      int   // block size in bytes
	Count     int   // total slots
	Free      int64 // free slots (approximate under concurrency)
	Fallbacks int64 // allocs this class absorbed for a smaller exhausted class
	Exhausts  int64 // allocs that found this class empty
}

// Stats snapshots every class's counters.
func (p *BlockPool) Stats() []BlockClassStats {
	out := make([]BlockClassStats, len(p.classes))
	for ci := range p.classes {
		c := &p.classes[ci]
		out[ci] = BlockClassStats{
			Size:      c.size,
			Count:     c.count,
			Free:      c.ctl.Free.Load(),
			Fallbacks: c.ctl.Fallbacks.Load(),
			Exhausts:  c.ctl.Exhausts.Load(),
		}
	}
	return out
}

// Capacity returns the total slot count across classes.
func (p *BlockPool) Capacity() int { return len(p.classes) * p.lay.Count }

// TotalFree returns the approximate total free slots across classes.
func (p *BlockPool) TotalFree() int64 {
	var n int64
	for ci := range p.classes {
		n += p.classes[ci].ctl.Free.Load()
	}
	return n
}

// FreeCount returns the free slots in the class holding blocks of at
// least n bytes (diagnostics).
func (p *BlockPool) FreeCount(n int) int64 {
	for ci := range p.classes {
		if p.classes[ci].size >= n {
			return p.classes[ci].ctl.Free.Load()
		}
	}
	return 0
}
