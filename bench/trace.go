package main

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"ulipc"
)

// Spans are recorded by the harness around its calls into the system —
// nothing inside the program is instrumented. A client call records
// send (plus alloc, fill and verify_release on the payload workload);
// the server's explicit receive → reply loop records serve, the child
// of the send that carried the same (client, seq). Spans stay in
// memory until the run ends.
type spanKind uint8

const (
	spanSend spanKind = iota
	spanServe
	spanAlloc
	spanFill
	spanVerifyRelease
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"send", "serve", "alloc", "fill", "verify_release"}

// span covers n consecutive seqs of one client, from seq on: 1 except
// for a batched send. Times are nanoseconds on the recording process's
// own monotonic clock; Proc says which process that was.
type span struct {
	Start, End int64
	Client     int32
	Seq        int32
	N          int32
	Kind       spanKind
	Proc       uint8
	_          [2]byte
}

// Processes that record spans.
const (
	procHarness uint8 = iota
	procChild
)

// tracer owns one process's spans. A nil tracer records nothing.
type tracer struct {
	proc uint8
	base time.Time // monotonic anchor

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer(proc uint8) *tracer { return &tracer{proc: proc, base: time.Now()} }

// spanBuf is one goroutine's share of a tracer: appended to without
// synchronisation, preallocated so recording never grows the heap.
type spanBuf struct {
	tr    *tracer
	spans []span
}

func (tr *tracer) buf(capacity int) *spanBuf {
	if tr == nil {
		return nil
	}
	sb := &spanBuf{tr: tr, spans: make([]span, 0, capacity)}
	tr.mu.Lock()
	tr.bufs = append(tr.bufs, sb)
	tr.mu.Unlock()
	return sb
}

func (sb *spanBuf) now() int64 {
	if sb == nil {
		return 0
	}
	return int64(time.Since(sb.tr.base))
}

// record closes a span of n seqs opened at start and returns its end,
// which is the start of whatever the caller does next.
func (sb *spanBuf) record(kind spanKind, client, seq, n int32, start int64) int64 {
	if sb == nil {
		return 0
	}
	end := sb.now()
	sb.add(kind, client, seq, n, start, end)
	return end
}

func (sb *spanBuf) add(kind spanKind, client, seq, n int32, start, end int64) {
	sb.spans = append(sb.spans, span{Start: start, End: end, Client: client, Seq: seq, N: n, Kind: kind, Proc: sb.tr.proc})
}

// recordRuns closes, for one received batch answered since start, a
// serve span per run of consecutive seqs of one client: a batch holds
// several clients' messages interleaved, each client's in order.
func (sb *spanBuf) recordRuns(batch []ulipc.Msg, start int64) {
	if sb == nil {
		return
	}
	end := sb.now()
	type run struct{ first, n int32 }
	var runs [8]run // indexed by client; the batched workload has four
	for _, m := range batch {
		r := &runs[m.Client]
		if r.n > 0 && m.Seq != r.first+r.n {
			sb.add(spanServe, m.Client, r.first, r.n, start, end)
			r.n = 0
		}
		if r.n == 0 {
			r.first = m.Seq
		}
		r.n++
	}
	for c, r := range runs {
		if r.n > 0 {
			sb.add(spanServe, int32(c), r.first, r.n, start, end)
		}
	}
}

func (tr *tracer) all() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, sb := range tr.bufs {
		out = append(out, sb.spans...)
	}
	return out
}

// writeTo and readFrom carry the child's spans to the parent.
func (tr *tracer) writeTo(w io.Writer) error {
	if tr == nil {
		return nil
	}
	return binary.Write(w, binary.LittleEndian, tr.all())
}

func (tr *tracer) readFrom(r *bytes.Buffer) error {
	if tr == nil {
		return nil
	}
	spans := make([]span, r.Len()/binary.Size(span{}))
	if err := binary.Read(r, binary.LittleEndian, spans); err != nil {
		return err
	}
	tr.mu.Lock()
	tr.bufs = append(tr.bufs, &spanBuf{tr: tr, spans: spans})
	tr.mu.Unlock()
	return nil
}

// selfTime is a span's duration minus the part of it its children
// cover: overlapping children count once, and a child is clipped to
// its parent. Children recorded by another process are first moved by
// shift onto the parent's clock.
func selfTime(parent span, children []span, shift int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		if c.Proc != parent.Proc {
			c.Start, c.End = c.Start+shift, c.End+shift
		}
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, upTo := int64(0), parent.Start
	for _, x := range iv {
		if x[1] > upTo {
			covered += x[1] - max(x[0], upTo)
			upTo = x[1]
		}
	}
	return parent.End - parent.Start - covered
}

// childrenOf matches every send with the serve spans that answered its
// seqs. A send whose seqs are not all covered is left out (the caller
// reports how many matched), so a lost span cannot pass for transport.
func childrenOf(spans []span) (sends []span, children [][]span) {
	var serves []span
	for _, s := range spans {
		if s.Kind == spanServe {
			serves = append(serves, s)
		}
	}
	slices.SortFunc(serves, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.Seq, b.Seq))
	})
	for _, s := range spans {
		if s.Kind != spanSend {
			continue
		}
		// The first serve of this client that ends past the send's first seq.
		i, _ := slices.BinarySearchFunc(serves, s, func(c, s span) int {
			return cmp.Or(cmp.Compare(c.Client, s.Client), cmp.Compare(c.Seq+c.N-1, s.Seq))
		})
		var kids []span
		covered := int32(0)
		for ; i < len(serves) && serves[i].Client == s.Client && serves[i].Seq < s.Seq+s.N; i++ {
			c := serves[i]
			kids = append(kids, c)
			covered += min(c.Seq+c.N, s.Seq+s.N) - max(c.Seq, s.Seq)
		}
		if covered == s.N {
			sends = append(sends, s)
			children = append(children, kids)
		}
	}
	return sends, children
}

// clockShift places the server child's clock on the harness's. The two
// are never read against each other; causality does it: a serve cannot
// start before its send did, so every matched pair bounds the shift
// from below, and the largest bound is returned (0 when no child is
// from another process). That is early by the fastest request leg of
// the run, which errs towards clipping less: a serve's recorded end,
// read after the reply is already on its way, may lie past its send's.
func clockShift(sends []span, children [][]span) int64 {
	shift, remote := int64(math.MinInt64), false
	for i, s := range sends {
		for _, c := range children[i] {
			if c.Proc != s.Proc {
				shift, remote = max(shift, s.Start-c.Start), true
			}
		}
	}
	if !remote {
		return 0
	}
	return shift
}

// traceSummary is the traced run boiled down: the median duration of
// each span kind, the median of send's self time (transport: queues and
// wake-ups both ways), and how many sends found all their children.
type traceSummary struct {
	median    [numSpanKinds]float64
	count     [numSpanKinds]int
	transport float64
	matched   int
}

func summarize(spans []span) traceSummary {
	var ts traceSummary
	var durs [numSpanKinds][]float64
	for _, s := range spans {
		durs[s.Kind] = append(durs[s.Kind], float64(s.End-s.Start))
	}
	for k := range durs {
		ts.count[k] = len(durs[k])
		if len(durs[k]) > 0 {
			ts.median[k] = quantile(durs[k], 0.5)
		}
	}
	sends, children := childrenOf(spans)
	ts.matched = len(sends)
	shift := clockShift(sends, children)
	self := make([]float64, len(sends))
	for i, s := range sends {
		self[i] = float64(selfTime(s, children[i], shift))
	}
	if len(self) > 0 {
		ts.transport = quantile(self, 0.5)
	}
	return ts
}
