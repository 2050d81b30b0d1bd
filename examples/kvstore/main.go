// kvstore: a small key-value store with variable-size values served
// over user-level IPC — the client-server shape (multiple clients, one
// single-threaded server, per-client reply queues) that motivated the
// paper's work on a database server.
//
// The fixed-size message carries only the key (Seq) and a verb (Val);
// the value bytes live in leased shared-memory blocks and never cross
// a queue (Section 2.1). The lease discipline doubles as the store's
// memory manager: a PUT's block is written once by the client and then
// *kept* by the server as the stored value — no copy on the way in —
// and a GET copies it into a fresh leased block whose lease rides the
// reply back to the client.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"

	"ulipc"
)

// Verbs, carried in Val on OpWork messages (OpWork is the only opcode
// that reaches the ServeCtx work callback).
const (
	verbPut = 1 // request payload carries the value; empty ack
	verbGet = 2 // no request payload; reply payload carries the value
)

func value(key int32) string {
	// Sizes sweep the pool's 64B..4KiB classes (3B up to ~4000B).
	return strings.Repeat(fmt.Sprintf("v%d;", key), 1+(int(key)*29)%800)
}

func main() {
	const clients = 4
	const keysPerClient = 24

	sys, err := ulipc.NewSystem(ulipc.Options{
		Alg:        ulipc.BSLS,
		Clients:    clients,
		BlockSlots: 96, // slab arena: 96 blocks per size class
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// The server owns the table outright — a single-threaded server
	// needs no locks. The stored values are leased blocks the server
	// holds on to: the client wrote the bytes, the server never copies
	// them in.
	table := map[int32]*ulipc.Payload{}
	srv := sys.Server()
	done := make(chan int64, 1)
	go func() {
		served, err := srv.ServeCtx(ctx, func(m *ulipc.Msg) {
			switch int(m.Val) {
			case verbPut:
				p, err := srv.Payload(*m) // claim the request's lease
				if err != nil {
					m.Val = -1
					m.ClearBlock()
					return
				}
				if old := table[m.Seq]; old != nil {
					old.Release()
				}
				table[m.Seq] = p // keep the lease as the stored value
				m.ClearBlock()   // the ack carries no payload
			case verbGet:
				v, ok := table[m.Seq]
				if !ok {
					m.Val = -1
					m.ClearBlock()
					return
				}
				p, err := srv.AllocPayload(v.Len()) // copy-on-read
				if err != nil {
					m.Val = -1
					m.ClearBlock()
					return
				}
				copy(p.Bytes(), v.Bytes())
				m.AttachPayload(p) // the reply carries the lease out
			}
		})
		if err != nil {
			log.Printf("kvstore server: %v", err)
		}
		done <- served
	}()

	// Connect every client before any starts work: ServeCtx returns once
	// its connected count drops to zero, so a client that finished and
	// disconnected before another connected would end the server early.
	conns := make([]*ulipc.Client, clients)
	for c := range conns {
		cl, err := sys.Client(c)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpConnect}); err != nil {
			log.Fatalf("client %d: connect: %v", c, err)
		}
		conns[c] = cl
	}

	var wg sync.WaitGroup
	var verified sync.Map
	for c, cl := range conns {
		wg.Add(1)
		go func(c int, cl *ulipc.Client) {
			defer wg.Done()
			base := int32(c * keysPerClient)
			good := 0
			for i := int32(0); i < keysPerClient; i++ {
				key := base + i
				want := value(key)

				// PUT: lease a block, fill it in place, send the lease.
				p, err := cl.AllocPayload(len(want))
				if err != nil {
					log.Fatalf("client %d: alloc: %v", c, err)
				}
				copy(p.Bytes(), want)
				ack, _, err := cl.SendPayload(ctx, ulipc.Msg{Op: ulipc.OpWork, Seq: key, Val: verbPut}, p)
				if err != nil || ack.Val < 0 {
					log.Fatalf("client %d: put %d failed: %v", c, key, err)
				}

				// GET: the reply's payload is leased to us; read, release.
				ans, rp, err := cl.SendPayload(ctx, ulipc.Msg{Op: ulipc.OpWork, Seq: key, Val: verbGet}, nil)
				if err != nil || ans.Val < 0 || rp == nil {
					log.Fatalf("client %d: get %d failed: %v", c, key, err)
				}
				if string(rp.Bytes()) != want {
					log.Fatalf("client %d: key %d corrupted (%d bytes)", c, key, rp.Len())
				}
				rp.Release()
				good++
			}
			verified.Store(c, good)
			if _, err := cl.SendCtx(ctx, ulipc.Msg{Op: ulipc.OpDisconnect}); err != nil {
				log.Fatalf("client %d: disconnect: %v", c, err)
			}
		}(c, cl)
	}
	wg.Wait()
	served := <-done

	// The stored values still hold their leases; return them and prove
	// lease conservation: every block the arena ever handed out is back.
	for _, p := range table {
		p.Release()
	}
	pool := sys.Blocks()
	if leaked := int64(pool.Capacity()) - pool.TotalFree(); leaked != 0 {
		log.Fatalf("kvstore: %d payload blocks leaked", leaked)
	}

	total := 0
	verified.Range(func(_, v any) bool { total += v.(int); return true })
	fmt.Printf("kvstore: %d clients x %d keys (values 3B..~4KB), server handled %d requests, %d round-trips verified, zero blocks leaked\n",
		clients, keysPerClient, served, total)
}
