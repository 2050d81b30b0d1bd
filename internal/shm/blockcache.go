package shm

import "sync"

// BlockCache is a private per-producer cache of payload blocks, the
// slab-arena analogue of PoolCache: one owner allocates through it, and
// the shared per-class Treiber heads are hit once per batch instead of
// once per block (AllocClassN/FreeClassN). The same light mutex makes
// Drain safe from the teardown path while staying uncontended in steady
// state.
//
// Blocks parked in the cache are FREE, not leased: Free clears the
// lease tag before parking, and Alloc re-tags on hand-out only via the
// caller's Lease. That keeps the sweeper's owner walk exact — a dead
// producer's parked blocks are returned by the cache spill (the sweeper
// drains the corpse's caches), while its genuinely-leased blocks are
// returned by ReclaimOwner; the two sets are disjoint, so nothing is
// freed twice.
type BlockCache struct {
	pool  *BlockPool
	batch int

	mu   sync.Mutex
	refs [][]BlockRef // per-class LIFO stashes; high end is the hot end

	// Refills and Spills count batched transfers from/to the pool,
	// written under mu; read them after the owner has quiesced.
	Refills int64
	Spills  int64
}

// NewBlockCache builds a cache drawing batches of batch blocks per
// class from the pool. A batch below 2 is clamped to 2.
func (p *BlockPool) NewBlockCache(batch int) *BlockCache {
	if batch < 2 {
		batch = 2
	}
	refs := make([][]BlockRef, len(p.classes))
	for i := range refs {
		refs[i] = make([]BlockRef, 0, 2*batch)
	}
	return &BlockCache{pool: p, batch: batch, refs: refs}
}

// Pool returns the backing pool (for Get/Lease/Claim pass-through).
func (c *BlockCache) Pool() *BlockPool { return c.pool }

// Batch returns the configured refill/spill batch size.
func (c *BlockCache) Batch() int { return c.batch }

// Len returns the number of blocks currently parked across classes.
func (c *BlockCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, rs := range c.refs {
		n += len(rs)
	}
	return n
}

// Alloc returns a block of at least n bytes, drawing from the per-class
// stash and refilling it with one batched pool operation when empty.
// Exhaustion falls through to larger classes with the same fallback /
// exhaustion accounting as BlockPool.Alloc. refilled reports that at
// least one batched refill happened (metrics hook).
func (c *BlockCache) Alloc(n int) (BlockRef, []byte, bool, bool) {
	first := c.pool.ClassFor(n)
	if first < 0 {
		return NilBlock, nil, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	refilled := false
	for ci := first; ci < len(c.pool.classes); ci++ {
		if len(c.refs[ci]) == 0 {
			got := c.pool.AllocClassN(ci, c.refs[ci][:c.batch])
			if got == 0 {
				c.pool.classes[ci].ctl.Exhausts.Add(1)
				continue
			}
			c.refs[ci] = c.refs[ci][:got]
			c.Refills++
			refilled = true
		}
		rs := c.refs[ci]
		r := rs[len(rs)-1]
		c.refs[ci] = rs[:len(rs)-1]
		if ci > first {
			c.pool.classes[ci].ctl.Fallbacks.Add(1)
		}
		buf, err := c.pool.Get(r)
		if err != nil {
			return NilBlock, nil, false, refilled
		}
		return r, buf, true, refilled
	}
	return NilBlock, nil, false, refilled
}

// Free parks a block in its class's stash (clearing the lease tag);
// when the stash reaches twice the batch size the cold half spills back
// to the pool in one batched operation. spilled reports a spill
// happened (metrics hook).
func (c *BlockCache) Free(r BlockRef) (spilled bool, err error) {
	ci, _ := unpackBlock(r)
	cls, slot, err := c.pool.class(r)
	if err != nil {
		return false, err
	}
	cls.setTag(slot, 0)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refs[ci] = append(c.refs[ci], r)
	if len(c.refs[ci]) >= 2*c.batch {
		if err := c.pool.FreeClassN(c.refs[ci][c.batch:]); err != nil {
			return false, err
		}
		c.refs[ci] = c.refs[ci][:c.batch]
		c.Spills++
		return true, nil
	}
	return false, nil
}

// Drain returns every parked block to the pool (one batched operation
// per class) and reports how many were spilled. Owners call it when the
// producer retires — and the teardown/recovery paths call it on the
// owner's behalf; afterwards the cache is empty but remains usable.
func (c *BlockCache) Drain() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for ci := range c.refs {
		if len(c.refs[ci]) == 0 {
			continue
		}
		if err := c.pool.FreeClassN(c.refs[ci]); err == nil {
			n += len(c.refs[ci])
			c.refs[ci] = c.refs[ci][:0]
			c.Spills++
		}
	}
	return n
}
