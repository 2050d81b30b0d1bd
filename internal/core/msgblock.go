package core

// Variable-sized messages (Section 2.1): a fixed-size message carries a
// reference to a variable-sized component in shared memory. The Ref
// field holds the block reference (bitwise-complemented, high 32 bits),
// the block's generation (8 bits, see shm.BlockPool.Gen) and the
// payload length (low 24 bits). Complementing the reference makes the
// zero Msg mean "no payload": a nil block ref (^uint32(0)) with length
// 0 encodes to exactly 0, so HasBlock is a single compare and
// forgetting to attach a payload can never alias block 0 of class 0.
//
// Refs used to round-trip through Val's float64 bits; that was fragile
// under NaN canonicalization (any runtime or FFI boundary that loads
// and re-stores the float may quiet the NaN and silently rewrite the
// reference), which is why Ref is a dedicated integer field.

// SetBlock stores a shared-memory block reference and payload length
// (below 1<<24) in the message's Ref field, at generation 0. Payloads
// attached through the lease surface (AttachPayload, SendPayload,
// ReplyPayloadCtx) carry their block's current generation instead.
func (m *Msg) SetBlock(ref uint32, n int) { m.setBlock(ref, 0, n) }

func (m *Msg) setBlock(ref uint32, gen uint8, n int) {
	m.Ref = uint64(^ref)<<32 | uint64(gen)<<24 | uint64(n)&0xFFFFFF
}

// Block extracts the shared-memory block reference and payload length
// stored by SetBlock.
func (m *Msg) Block() (ref uint32, n int) {
	return ^uint32(m.Ref >> 32), int(m.Ref & 0xFFFFFF)
}

// BlockGen returns the block generation the reference was stamped with.
// A receiver claims the lease at that generation, so a reference that
// outlived a reclaim of its block cannot claim the slot's next holder.
func (m *Msg) BlockGen() uint8 { return uint8(m.Ref >> 24) }

// HasBlock reports whether the message carries a payload reference.
func (m *Msg) HasBlock() bool { return m.Ref != 0 }

// ClearBlock removes the payload reference.
func (m *Msg) ClearBlock() { m.Ref = 0 }
