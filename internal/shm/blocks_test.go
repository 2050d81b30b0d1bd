package shm

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestBlockPoolValidation(t *testing.T) {
	if _, err := NewBlockPool(nil, 4); err == nil {
		t.Error("empty classes accepted")
	}
	if _, err := NewBlockPool([]int{64, 32}, 4); err == nil {
		t.Error("descending classes accepted")
	}
	if _, err := NewBlockPool([]int{64, 64}, 4); err == nil {
		t.Error("duplicate classes accepted")
	}
	if _, err := NewBlockPool([]int{64}, 0); err == nil {
		t.Error("zero count accepted")
	}
}

func TestBlockAllocPicksSmallestClass(t *testing.T) {
	p, err := NewBlockPool([]int{64, 256, 1024}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, buf, ok := p.Alloc(100)
	if !ok {
		t.Fatal("alloc failed")
	}
	if len(buf) != 256 {
		t.Fatalf("got a %d-byte block, want the 256 class", len(buf))
	}
	got, err := p.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Fatal("Get returned different storage")
	}
	if err := p.Free(ref); err != nil {
		t.Fatal(err)
	}
}

func TestBlockAllocTooLarge(t *testing.T) {
	p, _ := NewDefaultBlockPool(2)
	if _, _, ok := p.Alloc(p.MaxBlock() + 1); ok {
		t.Fatal("oversized alloc succeeded")
	}
	if _, _, ok := p.Alloc(-1); ok {
		t.Fatal("negative alloc succeeded")
	}
}

func TestBlockExhaustionFallsToLargerClass(t *testing.T) {
	p, err := NewBlockPool([]int{64, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, b1, ok := p.Alloc(10)
	if !ok || len(b1) != 64 {
		t.Fatalf("first alloc: %v %d", ok, len(b1))
	}
	// The 64 class is exhausted: the request spills into the 256 class.
	r2, b2, ok := p.Alloc(10)
	if !ok || len(b2) != 256 {
		t.Fatalf("spill alloc: %v %d", ok, len(b2))
	}
	if _, _, ok := p.Alloc(10); ok {
		t.Fatal("alloc succeeded with every class exhausted")
	}
	p.Free(r1)
	p.Free(r2)
	if p.FreeCount(10) != 1 || p.FreeCount(100) != 1 {
		t.Fatalf("free counts: %d %d", p.FreeCount(10), p.FreeCount(100))
	}
}

func TestBlockDataIsolation(t *testing.T) {
	p, _ := NewBlockPool([]int{16}, 4)
	refs := make([]BlockRef, 4)
	for i := range refs {
		ref, buf, ok := p.Alloc(16)
		if !ok {
			t.Fatal("alloc failed")
		}
		refs[i] = ref
		for j := range buf {
			buf[j] = byte(i)
		}
	}
	for i, ref := range refs {
		buf, err := p.Get(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i)}, 16)) {
			t.Fatalf("block %d corrupted: %v", i, buf)
		}
	}
}

func TestBlockBadRefs(t *testing.T) {
	p, _ := NewDefaultBlockPool(2)
	if _, err := p.Get(packBlock(200, 0)); err == nil {
		t.Error("bad class accepted by Get")
	}
	if _, err := p.Get(packBlock(0, 99)); err == nil {
		t.Error("bad slot accepted by Get")
	}
	if err := p.Free(packBlock(200, 0)); err == nil {
		t.Error("bad class accepted by Free")
	}
	if err := p.Free(packBlock(0, 99)); err == nil {
		t.Error("bad slot accepted by Free")
	}
}

func TestBlockRefPacking(t *testing.T) {
	check := func(class uint8, slot uint32) bool {
		s := int(slot & 0xFFFFFF)
		c, g := unpackBlock(packBlock(int(class), s))
		return c == int(class) && g == s
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// The backpressure counters: an exhausted class records the miss, the
// larger class that absorbs the request records the fallback.
func TestBlockFallbackExhaustCounters(t *testing.T) {
	p, err := NewBlockPool([]int{64, 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, _ := p.Alloc(10) // takes the 64 class
	r2, _, _ := p.Alloc(10) // 64 exhausted: spills to 256
	if _, _, ok := p.Alloc(10); ok {
		t.Fatal("alloc succeeded with every class exhausted")
	}
	st := p.Stats()
	if st[0].Exhausts != 2 {
		t.Errorf("class 64 exhausts = %d, want 2 (spill + total miss)", st[0].Exhausts)
	}
	if st[1].Fallbacks != 1 {
		t.Errorf("class 256 fallbacks = %d, want 1", st[1].Fallbacks)
	}
	if st[1].Exhausts != 1 {
		t.Errorf("class 256 exhausts = %d, want 1 (the total miss)", st[1].Exhausts)
	}
	if st[0].Free != 0 || st[1].Free != 0 {
		t.Errorf("free counts = %d/%d, want 0/0", st[0].Free, st[1].Free)
	}
	p.Free(r1)
	p.Free(r2)
	st = p.Stats()
	if st[0].Free != 1 || st[1].Free != 1 {
		t.Errorf("free counts after release = %d/%d, want 1/1", st[0].Free, st[1].Free)
	}
}

// ABA regression for the tagged-head Treiber pop: a pop that read the
// head before an A-pop/B-pop/A-push interleaving must fail its CAS even
// though the top slot is A again — only the tag distinguishes the two
// states. An untagged head would install the stale next pointer (B,
// which is now allocated) and hand the same block out twice.
func TestBlockTaggedHeadABA(t *testing.T) {
	p, err := NewBlockPool([]int{32}, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := &p.classes[0]

	// The stalled pop's view of the world.
	h0 := c.ctl.Head.Load()
	tag0, top0 := unpackHead(h0)
	next0 := c.next[top0].Load()

	// Interleaving: A and B pop, A is pushed back.
	a, ok := c.pop()
	if !ok || a != top0 {
		t.Fatalf("first pop got %d/%v, want top %d", a, ok, top0)
	}
	b, ok := c.pop()
	if !ok || b != next0 {
		t.Fatalf("second pop got %d/%v, want next %d", b, ok, next0)
	}
	c.push(a)

	// The ABA shape is real: the top slot matches the stale view...
	_, topNow := unpackHead(c.ctl.Head.Load())
	if topNow != top0 {
		t.Fatalf("head top = %d, want %d (ABA scenario not reconstructed)", topNow, top0)
	}
	// ...so only the tag can reject the stale CAS. If this succeeds, the
	// still-allocated B becomes the free-list head: a double allocation.
	if c.ctl.Head.CompareAndSwap(h0, packHead(tag0+1, next0)) {
		t.Fatal("stale pop CAS succeeded across an A-B-A interleaving")
	}
	c.push(b)
	if got := p.TotalFree(); got != 4 {
		t.Fatalf("total free = %d, want 4", got)
	}
}

// Claim-vs-reclaim is the lease discipline's race: when a peer dies
// mid-flight, its receiver's Claim and the sweeper's ReclaimOwner must
// pick exactly one winner per block — never a double free, never a
// use-after-reclaim.
func TestBlockClaimReclaimRace(t *testing.T) {
	const owner, claimer = 1, 2
	for round := 0; round < 50; round++ {
		p, err := NewBlockPool([]int{32}, 16)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]BlockRef, 16)
		for i := range refs {
			ref, _, ok := p.Alloc(32)
			if !ok {
				t.Fatal("alloc failed")
			}
			if err := p.Lease(ref, owner); err != nil {
				t.Fatal(err)
			}
			refs[i] = ref
		}
		var wg sync.WaitGroup
		var claimed, reclaimed int64
		wg.Add(2)
		go func() { // the surviving receiver resolving in-flight payloads
			defer wg.Done()
			for _, ref := range refs {
				if p.Claim(ref, claimer) {
					claimed++
					if err := p.Free(ref); err != nil {
						t.Errorf("free after claim: %v", err)
					}
				}
			}
		}()
		go func() { // the sweeper declaring the owner dead
			defer wg.Done()
			reclaimed = int64(p.ReclaimOwner(owner))
		}()
		wg.Wait()
		if claimed+reclaimed != 16 {
			t.Fatalf("round %d: claimed %d + reclaimed %d, want 16", round, claimed, reclaimed)
		}
		if free := p.TotalFree(); free != 16 {
			t.Fatalf("round %d: total free = %d, want 16", round, free)
		}
	}
}

// Claim after the sweeper cleared the tag must refuse: the slot may
// already be reallocated to someone else.
func TestBlockClaimAfterReclaim(t *testing.T) {
	p, _ := NewBlockPool([]int{32}, 2)
	ref, _, _ := p.Alloc(32)
	p.Lease(ref, 1)
	if n := p.ReclaimOwner(1); n != 1 {
		t.Fatalf("reclaimed %d, want 1", n)
	}
	if p.Claim(ref, 2) {
		t.Fatal("claim succeeded on a reclaimed block")
	}
	if got, leased := p.Owner(ref); leased {
		t.Fatalf("reclaimed block still leased to %d", got)
	}
}

// A reference stamped before a reclaim must not claim the slot's next
// holder: the dead sender's request is still queued when the sweeper
// returns its block, the slot is leased again, and only the generation
// tells the stale reference from the live lease.
func TestBlockClaimGenAfterRecycle(t *testing.T) {
	p, _ := NewBlockPool([]int{32}, 2)
	ref, _, _ := p.Alloc(32)
	p.Lease(ref, 1)
	stale := p.Gen(ref)
	if n := p.ReclaimOwner(1); n != 1 {
		t.Fatalf("reclaimed %d, want 1", n)
	}
	again, _, _ := p.Alloc(32)
	if again != ref {
		t.Fatalf("reclaimed slot not reused first: got %#x, want %#x", again, ref)
	}
	p.Lease(ref, 2)
	if p.Gen(ref) == stale {
		t.Fatal("reclaim did not advance the generation")
	}
	if p.ClaimGen(ref, stale, 3) {
		t.Fatal("stale reference claimed the new holder's block")
	}
	if got, _ := p.Owner(ref); got != 2 {
		t.Fatalf("owner = %d after the refused claim, want 2", got)
	}
	// A free keeps the generation: the new holder's own messages still
	// claim after it recycles the block through a plain Free/Alloc.
	live := p.Gen(ref)
	p.Free(ref)
	p.Alloc(32)
	p.Lease(ref, 2)
	if !p.ClaimGen(ref, live, 3) {
		t.Fatal("current reference refused after a plain free and re-lease")
	}
	if got, _ := p.Owner(ref); got != 3 {
		t.Fatalf("owner = %d after the claim, want 3", got)
	}
}

func TestBlockConcurrentStress(t *testing.T) {
	p, err := NewBlockPool([]int{32}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				ref, buf, ok := p.Alloc(32)
				if !ok {
					continue
				}
				buf[0] = byte(g)
				if buf[0] != byte(g) {
					t.Errorf("lost write")
				}
				if err := p.Free(ref); err != nil {
					t.Errorf("free: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if p.FreeCount(32) != 64 {
		t.Fatalf("free count = %d, want 64", p.FreeCount(32))
	}
}

// Cross-class stress under the race detector: goroutines allocate
// random sizes (so spills cross class boundaries mid-run), write a
// goroutine-unique pattern, re-verify it, and free — single blocks and
// FreeClassN batches mixed. The arena must end exactly full, with every
// class's free counter restored.
func TestBlockConcurrentCrossClassStress(t *testing.T) {
	p, err := NewBlockPool([]int{32, 128, 512}, 24)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{8, 32, 100, 128, 400, 512}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var batch []BlockRef
			var batchClass int
			for i := 0; i < 2000; i++ {
				ref, buf, ok := p.Alloc(sizes[(g+i)%len(sizes)])
				if !ok {
					continue // exhaustion is backpressure, not an error
				}
				for j := range buf {
					buf[j] = byte(g)
				}
				if buf[0] != byte(g) || buf[len(buf)-1] != byte(g) {
					t.Errorf("g%d: lost write", g)
				}
				// Batch same-class refs for FreeClassN; free the rest
				// singly, so both return paths run concurrently.
				class, _ := unpackBlock(ref)
				switch {
				case len(batch) == 0:
					batch, batchClass = append(batch, ref), class
				case class == batchClass && len(batch) < 4:
					batch = append(batch, ref)
				default:
					if err := p.FreeClassN(batch); err != nil {
						t.Errorf("g%d: FreeClassN: %v", g, err)
					}
					batch, batchClass = append(batch[:0], ref), class
				}
			}
			if err := p.FreeClassN(batch); err != nil {
				t.Errorf("g%d: final FreeClassN: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if free := p.TotalFree(); free != int64(p.Capacity()) {
		t.Fatalf("total free = %d, want %d", free, p.Capacity())
	}
	for _, st := range p.Stats() {
		if st.Free != int64(st.Count) {
			t.Fatalf("class %d free = %d, want %d", st.Size, st.Free, st.Count)
		}
	}
}
