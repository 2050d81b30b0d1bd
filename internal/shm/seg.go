// Mapped segments: the cross-process arena backend.
//
// A Seg is the arena plus everything two address spaces need to run the
// paper's protocols against each other: a header (magic/version/geometry
// plus the shared pool head), a process lifetable (pid + lease heartbeat
// words the recovery sweeper reads), one wake slot per consumer (the
// futex count/waiters words and the awake flag), a pair of SPSC ref
// lanes per client (request and reply), and the node arena itself.
//
// Every cross-process reference is a Ref (an index), never a pointer,
// and every control word is a fixed-offset atomic — so the same file or
// memfd can be mapped at a different base address in every process. The
// in-process Arena/Node/Ref types are reused verbatim: the mapped node
// region is viewed as the same []Node the heap arena uses.
package shm

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Typed sentinels for the mapping error paths. Mapping a hostile or
// stale file must fail with a diagnosable error, never a panic: the
// segment file is the trust boundary between processes.
var (
	// ErrShortSegment: the file is smaller than its header claims (or
	// smaller than a header at all) — truncated, or not a segment.
	ErrShortSegment = errors.New("shm: segment file shorter than its declared geometry")
	// ErrBadMagic: the file does not start with the segment magic.
	ErrBadMagic = errors.New("shm: not a ulipc segment (bad magic)")
	// ErrVersionMismatch: the segment was written by an incompatible
	// layout version.
	ErrVersionMismatch = errors.New("shm: segment layout version mismatch")
	// ErrBadGeometry: the header's geometry words are self-inconsistent
	// (zero clients, absurd node count, foreign node size...).
	ErrBadGeometry = errors.New("shm: segment geometry invalid")
	// ErrMapped: Map on a segment that is already mapped.
	ErrMapped = errors.New("shm: segment already mapped")
	// ErrNotMapped: Unmap (or a view accessor) on a segment that is not
	// currently mapped.
	ErrNotMapped = errors.New("shm: segment not mapped")
	// ErrMapUnsupported: this platform has no file-mapping backend.
	ErrMapUnsupported = errors.New("shm: mapped segments unsupported on this platform")
)

// SegMagic identifies a segment file; SegVersion is the layout version
// checked on every map.
const (
	SegMagic   uint64 = 0x756c6970632d7631 // "ulipc-v1"
	SegVersion uint32 = 3                  // v3: 64-bit lease words (generation | tag)
)

// Segment lifecycle states (SegHeader.State).
const (
	SegInit     uint32 = iota // created, header not fully initialised
	SegReady                  // serving
	SegShutdown               // graceful shutdown: ports report Closed
	SegDead                   // a process died: ports report PeerDead
)

// SegConfig is the geometry of a new segment.
type SegConfig struct {
	Clients int // reply channels / client lifetable slots
	Nodes   int // arena size (shared free pool)
	RingCap int // per-lane slot count (rounded up to a power of two)

	// Blocks is the payload slab arena geometry: slots per size class.
	// 0 disables the arena (control-message-only segment, the pre-v2
	// shape). BlockSizes are the class sizes (ascending multiples of 8,
	// at most MaxBlockClasses); empty defaults to DefaultBlockSizes.
	Blocks     int
	BlockSizes []int
}

func (c *SegConfig) defaults() error {
	if c.Clients < 1 {
		return fmt.Errorf("%w: need at least 1 client", ErrBadGeometry)
	}
	if c.RingCap <= 0 {
		c.RingCap = 256
	}
	c.RingCap = 1 << uint(bits.Len(uint(c.RingCap-1))) // next pow2
	if c.Nodes <= 0 {
		// Enough for every lane to be full simultaneously, plus slack
		// for in-flight allocations.
		c.Nodes = 2*c.Clients*c.RingCap + 64
	}
	if c.Nodes >= int(NilRef) {
		return fmt.Errorf("%w: %d nodes exceeds ref space", ErrBadGeometry, c.Nodes)
	}
	if c.Blocks < 0 {
		return fmt.Errorf("%w: negative block count %d", ErrBadGeometry, c.Blocks)
	}
	if c.Blocks > 0 && len(c.BlockSizes) == 0 {
		c.BlockSizes = append([]int(nil), DefaultBlockSizes...)
	}
	return nil
}

// SegHeader is the first three cache lines of every segment. All fields
// are atomics: the header is concurrently read and written from
// multiple processes.
type SegHeader struct {
	Magic    atomic.Uint64
	Version  atomic.Uint32
	NodeSize atomic.Uint32 // sizeof(Node) of the writer — ABI check
	Nodes    atomic.Uint32
	RingCap  atomic.Uint32
	Clients  atomic.Uint32
	State    atomic.Uint32
	DeadSlot atomic.Int32  // first lifetable slot declared dead (-1 none)
	Epoch    atomic.Uint32 // bumped by the sweeper on every declaration

	// Payload slab arena geometry (v2). BlockSlots is the per-class slot
	// count (0 = no arena); BlockClasses the class count; BlockSizes the
	// class sizes (only the first BlockClasses entries are meaningful).
	BlockSlots   atomic.Uint32
	BlockClasses atomic.Uint32
	BlockSizes   [MaxBlockClasses]atomic.Uint32

	PoolHead atomic.Uint64 // Treiber head: tag<<32 | top ref
	_        [56]byte
	PoolFree atomic.Int64 // approximate free count (diagnostics/audit)
	_        [56]byte
}

// LifeSlot is one process's row in the lifetable: its pid (for
// kill(pid, 0) liveness probes) and a heartbeat counter its runtime
// bumps on a timer (for lease-based detection where pid probes lie —
// pid reuse, foreign pid namespaces).
type LifeSlot struct {
	Pid   atomic.Uint32
	State atomic.Uint32
	Beat  atomic.Uint64
	_     [48]byte
}

// Lifetable slot states.
const (
	LifeFree uint32 = iota // never joined
	LifeLive               // joined, heartbeating
	LifeDead               // declared dead by a sweeper
	LifeDone               // exited gracefully
)

// SemSlot is one consumer's wake state: the futex semaphore words
// (count is the futex word; waiters gates the FUTEX_WAKE syscall) plus
// the protocol's awake flag and a poison flag the sweeper sets to turn
// parked waits into prompt returns.
type SemSlot struct {
	Count   atomic.Uint32
	Waiters atomic.Uint32
	Dead    atomic.Uint32
	Awake   atomic.Uint32
	_       [48]byte
}

// laneCtl is an SPSC lane's cursor pair, one cache line each: the
// producer owns Tail, the consumer owns Head.
type laneCtl struct {
	Head atomic.Uint64
	_    [56]byte
	Tail atomic.Uint64
	_    [56]byte
}

// Compile-time layout pins: the segment ABI depends on these sizes.
var (
	_ [192 - unsafe.Sizeof(SegHeader{})]byte
	_ [64 - unsafe.Sizeof(LifeSlot{})]byte
	_ [64 - unsafe.Sizeof(SemSlot{})]byte
	_ [128 - unsafe.Sizeof(laneCtl{})]byte
)

// Layout is the computed region map of a segment.
type Layout struct {
	Cfg       SegConfig
	LifeOff   int // lifetable (1 server + Clients slots)
	SemOff    int // wake slots (1 server + Clients)
	LaneOff   int // lane controls (2*Clients)
	SlotOff   int // lane slot arrays (2*Clients × RingCap refs)
	ArenaOff  int // node array
	BlockOff  int // payload slab arena (0 when Cfg.Blocks == 0)
	Size      int
	slotBytes int // per-lane slot array, 64-padded
	blockLay  BlockLayout
}

func align64(n int) int { return (n + 63) &^ 63 }

// LayoutFor computes the region offsets for a geometry.
func LayoutFor(cfg SegConfig) (Layout, error) {
	if err := cfg.defaults(); err != nil {
		return Layout{}, err
	}
	l := Layout{Cfg: cfg}
	off := int(unsafe.Sizeof(SegHeader{}))
	l.LifeOff = off
	off += (1 + cfg.Clients) * int(unsafe.Sizeof(LifeSlot{}))
	l.SemOff = off
	off += (1 + cfg.Clients) * int(unsafe.Sizeof(SemSlot{}))
	l.LaneOff = off
	off += 2 * cfg.Clients * int(unsafe.Sizeof(laneCtl{}))
	l.SlotOff = off
	l.slotBytes = align64(cfg.RingCap * 4)
	off += 2 * cfg.Clients * l.slotBytes
	l.ArenaOff = align64(off)
	off = l.ArenaOff + cfg.Nodes*int(unsafe.Sizeof(Node{}))
	if cfg.Blocks > 0 {
		bl, err := BlockLayoutFor(cfg.BlockSizes, cfg.Blocks)
		if err != nil {
			return Layout{}, fmt.Errorf("%w: %v", ErrBadGeometry, err)
		}
		l.BlockOff = align64(off)
		l.blockLay = bl
		off = l.BlockOff + bl.Size
	}
	l.Size = align64(off)
	return l, nil
}

// Seg is a segment handle: some backing memory (file mapping, memfd
// mapping, or plain heap for in-process use and tests) plus the typed
// views into it. A Seg is created mapped; Unmap invalidates the views.
type Seg struct {
	mem    []byte
	lay    Layout
	view   *SegView
	mapped bool

	// remap re-establishes the mapping after an Unmap (nil for heap
	// segments, which cannot be remapped — their memory is gone).
	remap func() ([]byte, error)
	// unmap releases the mapping (nil for heap segments).
	unmap func([]byte) error
}

// SegView is the typed window onto a mapped segment. It is invalid
// after Seg.Unmap.
type SegView struct {
	Hdr    *SegHeader
	Life   []LifeSlot
	Sems   []SemSlot
	Pool   *SegPool
	Blocks *BlockPool // payload slab arena; nil when the geometry has none
	arena  *Arena
	lanes  []Lane
	lay    Layout
}

// viewOver builds the typed views. The caller has validated geometry.
func viewOver(mem []byte, lay Layout) *SegView {
	v := &SegView{
		Hdr: (*SegHeader)(unsafe.Pointer(&mem[0])),
		lay: lay,
	}
	cfg := lay.Cfg
	v.Life = unsafe.Slice((*LifeSlot)(unsafe.Pointer(&mem[lay.LifeOff])), 1+cfg.Clients)
	v.Sems = unsafe.Slice((*SemSlot)(unsafe.Pointer(&mem[lay.SemOff])), 1+cfg.Clients)
	nodes := unsafe.Slice((*Node)(unsafe.Pointer(&mem[lay.ArenaOff])), cfg.Nodes)
	v.arena = &Arena{nodes: nodes}
	v.Pool = &SegPool{arena: v.arena, head: &v.Hdr.PoolHead, free: &v.Hdr.PoolFree}
	v.lanes = make([]Lane, 2*cfg.Clients)
	for i := range v.lanes {
		ctl := (*laneCtl)(unsafe.Pointer(&mem[lay.LaneOff+i*int(unsafe.Sizeof(laneCtl{}))]))
		slots := unsafe.Slice((*atomic.Uint32)(unsafe.Pointer(&mem[lay.SlotOff+i*lay.slotBytes])), cfg.RingCap)
		v.lanes[i] = Lane{ctl: ctl, slots: slots, cap: uint64(cfg.RingCap)}
	}
	if cfg.Blocks > 0 {
		v.Blocks = viewBlockPool(mem[lay.BlockOff:lay.BlockOff+lay.blockLay.Size:lay.BlockOff+lay.blockLay.Size], lay.blockLay)
	}
	return v
}

// Arena exposes the mapped node arena (the same type the in-process
// pool uses — refs are portable between the two worlds of one process).
func (v *SegView) Arena() *Arena { return v.arena }

// ReqLane returns client i's request lane (client produces, server
// consumes); ReplyLane the reverse.
func (v *SegView) ReqLane(i int) *Lane   { return &v.lanes[2*i] }
func (v *SegView) ReplyLane(i int) *Lane { return &v.lanes[2*i+1] }

// Clients returns the geometry's client count.
func (v *SegView) Clients() int { return v.lay.Cfg.Clients }

// Config returns the geometry the segment was created with.
func (v *SegView) Config() SegConfig { return v.lay.Cfg }

// init formats a fresh segment: geometry words, threaded free list,
// awake flags (consumers start awake, as in NewChannel), ready state.
func (v *SegView) init(lay Layout) {
	cfg := lay.Cfg
	v.Hdr.Version.Store(SegVersion)
	v.Hdr.NodeSize.Store(uint32(unsafe.Sizeof(Node{})))
	v.Hdr.Nodes.Store(uint32(cfg.Nodes))
	v.Hdr.RingCap.Store(uint32(cfg.RingCap))
	v.Hdr.Clients.Store(uint32(cfg.Clients))
	v.Hdr.DeadSlot.Store(-1)
	for i := 0; i < cfg.Nodes-1; i++ {
		v.arena.Node(Ref(i)).SetNext(Ref(i + 1))
	}
	v.arena.Node(Ref(cfg.Nodes - 1)).SetNext(NilRef)
	v.Hdr.PoolHead.Store(packHead(0, 0))
	v.Hdr.PoolFree.Store(int64(cfg.Nodes))
	v.Hdr.BlockSlots.Store(uint32(cfg.Blocks))
	v.Hdr.BlockClasses.Store(uint32(len(cfg.BlockSizes)))
	if cfg.Blocks > 0 {
		for i, size := range cfg.BlockSizes {
			v.Hdr.BlockSizes[i].Store(uint32(size))
		}
		v.Blocks.initBlocks()
	}
	for i := range v.Sems {
		v.Sems[i].Awake.Store(1)
	}
	// Magic and ready state last: a concurrent mapper that wins the race
	// against initialisation sees a bad magic, not half-built geometry.
	v.Hdr.Magic.Store(SegMagic)
	v.Hdr.State.Store(SegReady)
}

// validateHeader checks a candidate mapping's header against the ABI
// and returns its layout. memLen is the total bytes available.
func validateHeader(mem []byte) (Layout, error) {
	if len(mem) < int(unsafe.Sizeof(SegHeader{})) {
		return Layout{}, fmt.Errorf("%w: %d bytes, header needs %d", ErrShortSegment, len(mem), unsafe.Sizeof(SegHeader{}))
	}
	h := (*SegHeader)(unsafe.Pointer(&mem[0]))
	if h.Magic.Load() != SegMagic {
		return Layout{}, ErrBadMagic
	}
	if got := h.Version.Load(); got != SegVersion {
		return Layout{}, fmt.Errorf("%w: file v%d, runtime v%d", ErrVersionMismatch, got, SegVersion)
	}
	if got := h.NodeSize.Load(); got != uint32(unsafe.Sizeof(Node{})) {
		return Layout{}, fmt.Errorf("%w: node size %d, runtime %d", ErrBadGeometry, got, unsafe.Sizeof(Node{}))
	}
	cfg := SegConfig{
		Clients: int(h.Clients.Load()),
		Nodes:   int(h.Nodes.Load()),
		RingCap: int(h.RingCap.Load()),
		Blocks:  int(h.BlockSlots.Load()),
	}
	if cfg.Clients < 1 || cfg.Nodes < 1 || cfg.RingCap < 1 || cfg.RingCap&(cfg.RingCap-1) != 0 {
		return Layout{}, fmt.Errorf("%w: clients=%d nodes=%d ringcap=%d", ErrBadGeometry, cfg.Clients, cfg.Nodes, cfg.RingCap)
	}
	if cfg.Blocks > 0 {
		classes := int(h.BlockClasses.Load())
		if classes < 1 || classes > MaxBlockClasses {
			return Layout{}, fmt.Errorf("%w: %d block classes", ErrBadGeometry, classes)
		}
		for i := 0; i < classes; i++ {
			cfg.BlockSizes = append(cfg.BlockSizes, int(h.BlockSizes[i].Load()))
		}
	}
	lay, err := LayoutFor(cfg)
	if err != nil {
		return Layout{}, err
	}
	if len(mem) < lay.Size {
		return Layout{}, fmt.Errorf("%w: %d bytes, geometry needs %d", ErrShortSegment, len(mem), lay.Size)
	}
	return lay, nil
}

// View returns the typed views, or ErrNotMapped after Unmap.
func (s *Seg) View() (*SegView, error) {
	if !s.mapped {
		return nil, ErrNotMapped
	}
	return s.view, nil
}

// Layout returns the segment's region map.
func (s *Seg) Layout() Layout { return s.lay }

// Mapped reports whether the segment memory is currently accessible.
func (s *Seg) Mapped() bool { return s.mapped }

// Map re-establishes a mapping dropped by Unmap. Mapping an
// already-mapped segment is refused with ErrMapped; heap segments
// (whose memory was released) refuse with ErrNotMapped.
func (s *Seg) Map() error {
	if s.mapped {
		return ErrMapped
	}
	if s.remap == nil {
		return fmt.Errorf("%w: heap segment cannot be remapped", ErrNotMapped)
	}
	mem, err := s.remap()
	if err != nil {
		return err
	}
	lay, err := validateHeader(mem)
	if err != nil {
		if s.unmap != nil {
			_ = s.unmap(mem)
		}
		return err
	}
	s.mem, s.lay, s.view, s.mapped = mem, lay, viewOver(mem, lay), true
	return nil
}

// Unmap releases the mapping. The views handed out by View become
// invalid. Unmapping an unmapped segment returns ErrNotMapped.
func (s *Seg) Unmap() error {
	if !s.mapped {
		return ErrNotMapped
	}
	s.mapped = false
	s.view = nil
	mem := s.mem
	s.mem = nil
	if s.unmap != nil {
		return s.unmap(mem)
	}
	return nil
}

// Close is Unmap tolerant of an already-unmapped segment (deferred
// cleanup paths).
func (s *Seg) Close() error {
	if !s.mapped {
		return nil
	}
	return s.Unmap()
}

// NewHeapSeg builds a segment in ordinary process memory: the portable
// backend (no file, no mapping) used by tests and by single-process
// deployments that still want the segment data structures.
func NewHeapSeg(cfg SegConfig) (*Seg, error) {
	lay, err := LayoutFor(cfg)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, lay.Size+63)
	base := uintptr(unsafe.Pointer(&raw[0]))
	off := int((64 - base%64) % 64)
	mem := raw[off : off+lay.Size]
	s := &Seg{mem: mem, lay: lay, view: viewOver(mem, lay), mapped: true}
	s.view.init(lay)
	return s, nil
}

// SegPool is the shared free pool of a mapped segment: the same
// ABA-tagged Treiber stack as Pool, but with the head and free-count
// words living inside the segment header so every mapping of the file
// shares them. (Pool keeps its words in the Go struct — one indirection
// cheaper — which is why the two types stay separate.)
type SegPool struct {
	arena *Arena
	head  *atomic.Uint64
	free  *atomic.Int64
}

// Arena returns the backing arena.
func (p *SegPool) Arena() *Arena { return p.arena }

// Alloc pops a free node, reporting false on exhaustion.
func (p *SegPool) Alloc() (Ref, bool) {
	for {
		h := p.head.Load()
		tag, top := unpackHead(h)
		if top == NilRef {
			return NilRef, false
		}
		if int(top) >= p.arena.Len() {
			// A crashed or hostile peer corrupted the head: fail closed
			// rather than indexing out of the arena.
			return NilRef, false
		}
		next := p.arena.Node(top).Next()
		if p.head.CompareAndSwap(h, packHead(tag+1, next)) {
			p.free.Add(-1)
			return top, true
		}
	}
}

// Free pushes a node back onto the free list.
func (p *SegPool) Free(r Ref) {
	n := p.arena.Node(r)
	for {
		h := p.head.Load()
		tag, top := unpackHead(h)
		n.SetNext(top)
		if p.head.CompareAndSwap(h, packHead(tag+1, r)) {
			p.free.Add(1)
			return
		}
	}
}

// FreeCount returns the approximate number of free nodes.
func (p *SegPool) FreeCount() int64 { return p.free.Load() }

// Lane is one SPSC ring of refs in segment memory: the producer owns
// the tail cursor, the consumer the head cursor, and the slot array
// carries position-independent refs. Exactly one producer process and
// one consumer process may use a lane — the topology the segment
// builder enforces (client i produces on ReqLane(i), the server
// consumes; reversed for ReplyLane).
type Lane struct {
	ctl   *laneCtl
	slots []atomic.Uint32
	cap   uint64
}

// TryPush appends a ref, reporting false when the lane is full.
func (l *Lane) TryPush(r Ref) bool {
	t := l.ctl.Tail.Load()
	if t-l.ctl.Head.Load() >= l.cap {
		return false
	}
	l.slots[t%l.cap].Store(r)
	l.ctl.Tail.Store(t + 1)
	return true
}

// TryPop removes the head ref, reporting false when the lane is empty.
func (l *Lane) TryPop() (Ref, bool) {
	h := l.ctl.Head.Load()
	if h == l.ctl.Tail.Load() {
		return NilRef, false
	}
	r := l.slots[h%l.cap].Load()
	l.ctl.Head.Store(h + 1)
	return r, true
}

// Empty is the non-destructive poll (BSLS spin loop).
func (l *Lane) Empty() bool { return l.ctl.Head.Load() == l.ctl.Tail.Load() }

// Len returns the queued ref count (approximate under concurrency).
func (l *Lane) Len() int { return int(l.ctl.Tail.Load() - l.ctl.Head.Load()) }

// Reclaim audits and repairs a segment after its peers are gone. It
// must only be called with exclusive access (every other process dead
// or exited — the post-mortem doctrine): it drains every lane back to
// the pool (queued messages whose consumer died), then walks the free
// list and returns every unreachable node (refs a dead process held
// in-flight), and finally audits the payload slab arena the same way —
// every block unreachable from its class's free list was leased by a
// corpse and is returned. After Reclaim the pools are whole:
// Pool.FreeCount == Nodes and Blocks.TotalFree == Blocks.Capacity.
//
// Returns the three orphan classes separately — queued messages,
// in-flight node refs, leaked payload blocks — mirroring the in-process
// sweeper's OrphanMsgs / OrphanRefs / OrphanBlocks counters.
func (v *SegView) Reclaim() (orphanMsgs, orphanRefs, orphanBlocks int, err error) {
	nodes := v.lay.Cfg.Nodes
	for i := range v.lanes {
		for {
			r, ok := v.lanes[i].TryPop()
			if !ok {
				break
			}
			if int(r) >= nodes {
				return orphanMsgs, orphanRefs, 0, fmt.Errorf("%w: lane %d held ref %d outside arena", ErrBadGeometry, i, r)
			}
			v.Pool.Free(r)
			orphanMsgs++
		}
	}
	seen := make([]bool, nodes)
	_, top := unpackHead(v.Hdr.PoolHead.Load())
	walked := 0
	for r := top; r != NilRef; r = v.arena.Node(r).Next() {
		if int(r) >= nodes || seen[r] {
			return orphanMsgs, orphanRefs, 0, fmt.Errorf("%w: free list cycle or wild ref at %d", ErrBadGeometry, r)
		}
		seen[r] = true
		walked++
	}
	for i := 0; i < nodes; i++ {
		if !seen[i] {
			v.Pool.Free(Ref(i))
			orphanRefs++
		}
	}
	v.Hdr.PoolFree.Store(int64(nodes))
	if v.Blocks != nil {
		orphanBlocks, err = v.Blocks.ReclaimAll()
		if err != nil {
			return orphanMsgs, orphanRefs, orphanBlocks, err
		}
	}
	return orphanMsgs, orphanRefs, orphanBlocks, nil
}
