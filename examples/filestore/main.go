// filestore: variable-sized messages and the thread-per-client
// architecture together — a tiny content store whose values travel
// through shared-memory blocks while the fixed-size messages carry only
// references (Section 2.1: "variable sized messages can be accommodated
// by using one of the fields of the fixed sized message to point to a
// variable sized component in shared memory").
//
// Each client gets its own server thread over a full-duplex queue pair
// (the Section 2.1 alternative architecture), storing and reading back
// documents of varying sizes.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"

	"ulipc"
)

const (
	opStore = ulipc.OpWork // Seq = document id; Ref = block ref+len
	opLoad  = ulipc.OpEcho // Seq = document id; reply Ref = block ref+len
)

func main() {
	const clients = 3
	const docsPerClient = 200

	sys, err := ulipc.NewSystem(ulipc.Options{
		Alg:        ulipc.BSLS,
		Clients:    clients,
		Duplex:     true, // thread-per-client architecture
		BlockSlots: 64,   // shared variable-size component store
	})
	if err != nil {
		log.Fatal(err)
	}
	pool := sys.Blocks()

	// The store itself: one map per connection handler (handlers own
	// disjoint id ranges, so no cross-handler sharing is needed).
	var wg sync.WaitGroup
	verified := 0
	var verifiedMu sync.Mutex

	for c := 0; c < clients; c++ {
		cl, handler, err := sys.DuplexPair(c)
		if err != nil {
			log.Fatal(err)
		}

		// Server thread for this connection: stores block refs by id and
		// hands them back on load.
		go func(h *ulipc.DuplexHandler) {
			// Block references travel in the dedicated integer Ref field
			// (they used to be bit-packed into Val's float64, which NaN
			// canonicalization could silently corrupt).
			ctx := context.Background()
			docs := map[int32]uint64{}
			for {
				m, err := h.ReceiveCtx(ctx)
				if err != nil {
					log.Fatalf("handler: %v", err)
				}
				switch m.Op {
				case opStore:
					docs[m.Seq] = m.Ref // keep the packed block ref
				case opLoad:
					m.Ref = docs[m.Seq]
				}
				if err := h.ReplyCtx(ctx, m); err != nil {
					log.Fatalf("handler: %v", err)
				}
				if m.Op == ulipc.OpDisconnect {
					return
				}
			}
		}(handler)

		wg.Add(1)
		go func(c int, cl *ulipc.Client) {
			defer wg.Done()
			base := int32(c * docsPerClient)
			// Store documents of varying sizes.
			for i := int32(0); i < docsPerClient; i++ {
				doc := strings.Repeat(fmt.Sprintf("doc-%d;", base+i), 1+int(i)%40)
				if len(doc) > pool.MaxBlock() {
					doc = doc[:pool.MaxBlock()]
				}
				ref, buf, ok := pool.Alloc(len(doc))
				if !ok {
					log.Fatalf("client %d: block pool exhausted", c)
				}
				copy(buf, doc)
				req := ulipc.Msg{Op: opStore, Seq: base + i}
				req.SetBlock(ref, len(doc))
				cl.Send(req)

				// Load it back and verify, then free the block.
				ans := cl.Send(ulipc.Msg{Op: opLoad, Seq: base + i})
				gotRef, n := ans.Block()
				got, err := pool.Get(gotRef)
				if err != nil {
					log.Fatalf("client %d: %v", c, err)
				}
				if string(got[:n]) != doc {
					log.Fatalf("client %d: doc %d corrupted", c, base+i)
				}
				pool.Free(gotRef)
				verifiedMu.Lock()
				verified++
				verifiedMu.Unlock()
			}
			cl.Send(ulipc.Msg{Op: ulipc.OpDisconnect})
		}(c, cl)
	}
	wg.Wait()
	fmt.Printf("filestore: %d clients x %d documents stored and verified (%d total), thread-per-client over duplex queues\n",
		clients, docsPerClient, verified)
}
