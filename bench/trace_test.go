package main

import (
	"bytes"
	"testing"

	"ulipc"
)

func msgOf(client, seq int32) ulipc.Msg {
	return ulipc.Msg{Seq: seq, MsgMeta: ulipc.MsgMeta{Client: client}}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child inside", []span{{Start: 120, End: 150}}, 70},
		{"two disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 130, End: 160}}, 50},
		{"identical children count once", []span{{Start: 110, End: 150}, {Start: 110, End: 150}}, 60},
		{"a child is clipped to its parent", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"a child outside covers nothing", []span{{Start: 10, End: 90}, {Start: 210, End: 300}}, 100},
		{"a child covering everything leaves nothing", []span{{Start: 0, End: 1000}}, 0},
		{"order does not matter", []span{{Start: 150, End: 170}, {Start: 110, End: 120}}, 70},
	} {
		if got := selfTime(parent, c.children, 0); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestChildrenMatchByClientAndSeq(t *testing.T) {
	spans := []span{
		{Kind: spanSend, Client: 0, Seq: 5, N: 1, Start: 0, End: 100},
		{Kind: spanSend, Client: 1, Seq: 5, N: 1, Start: 0, End: 100},
		{Kind: spanSend, Client: 0, Seq: 6, N: 1, Start: 100, End: 200}, // its serve was lost
		{Kind: spanServe, Client: 1, Seq: 5, N: 1, Start: 40, End: 60},
		{Kind: spanServe, Client: 0, Seq: 5, N: 1, Start: 10, End: 30},
		{Kind: spanAlloc, Client: 0, Seq: 5, N: 1, Start: 0, End: 1}, // not a child of send
	}
	sends, children := childrenOf(spans)
	if len(sends) != 2 {
		t.Fatalf("matched %d sends, want 2 (the send without a serve is left out)", len(sends))
	}
	for i, s := range sends {
		if len(children[i]) != 1 || children[i][0].Client != s.Client || children[i][0].Seq != s.Seq {
			t.Errorf("send client %d seq %d got children %+v", s.Client, s.Seq, children[i])
		}
	}
	ts := summarize(spans)
	if ts.count[spanSend] != 3 || ts.count[spanServe] != 2 || ts.matched != 2 {
		t.Errorf("summary counts: %+v", ts)
	}
	if ts.transport != 80 { // both matched sends: 100 − 20
		t.Errorf("transport %v, want 80", ts.transport)
	}
}

// A batched send of 16 is answered in two server batches, each with
// another client's messages interleaved: its children are the two runs
// that cover its seqs, and nobody else's.
func TestBatchedSendCollectsItsRuns(t *testing.T) {
	tr := newTracer(procHarness)
	sb := tr.buf(16)
	var first, second []ulipc.Msg
	for i := int32(0); i < 10; i++ {
		first = append(first, msgOf(2, 32+i), msgOf(3, 100+i))
	}
	for i := int32(10); i < 16; i++ {
		second = append(second, msgOf(2, 32+i))
	}
	sb.recordRuns(first, sb.now())
	sb.recordRuns(second, sb.now())
	spans := append(tr.all(), span{Kind: spanSend, Client: 2, Seq: 32, N: 16, Start: 0, End: 1 << 40})

	sends, children := childrenOf(spans)
	if len(sends) != 1 || len(children[0]) != 2 {
		t.Fatalf("got %d sends with children %+v, want one send with two runs", len(sends), children)
	}
	if a, b := children[0][0], children[0][1]; a.Seq != 32 || a.N != 10 || b.Seq != 42 || b.N != 6 {
		t.Errorf("runs %+v %+v, want seq 32 ×10 and seq 42 ×6", a, b)
	}
	// With six of its seqs unanswered the send must not match.
	short := append(tr.all()[:2:2], span{Kind: spanSend, Client: 2, Seq: 32, N: 16})
	if sends, _ := childrenOf(short); len(sends) != 0 {
		t.Errorf("a send with 10 of 16 seqs served matched anyway")
	}
}

// Spans from the server child are on another clock. The shift is the
// largest "serve cannot start before its send" bound; with it every
// child sits inside its parent and self time is duration minus serve.
func TestClockShiftPlacesTheChildProcess(t *testing.T) {
	const offset = 1_000_000 // child clock reads this much less
	var spans []span
	for i := int32(0); i < 50; i++ {
		start := int64(i) * 10_000
		leg := int64(300 + 7*i) // request leg: the fastest is 300
		spans = append(spans,
			span{Kind: spanSend, Seq: i, N: 1, Start: start, End: start + 5000, Proc: procHarness},
			span{Kind: spanServe, Seq: i, N: 1, Start: start + leg - offset, End: start + leg + 400 - offset, Proc: procChild})
	}
	sends, children := childrenOf(spans)
	if got := clockShift(sends, children); got != offset-300 {
		t.Errorf("clock shift %d, want %d (true offset less the fastest request leg)", got, offset-300)
	}
	if ts := summarize(spans); ts.transport != 4600 {
		t.Errorf("transport %v, want 4600", ts.transport)
	}
	if got := clockShift(childrenOf([]span{{Kind: spanSend, N: 1}, {Kind: spanServe, N: 1}})); got != 0 {
		t.Errorf("same-process spans shifted by %d", got)
	}
}

func TestSpansSurviveThePipe(t *testing.T) {
	child := newTracer(procChild)
	sb := child.buf(2)
	sb.add(spanServe, 0, 7, 1, 10, 20)
	sb.add(spanServe, 0, 8, 1, 30, 45)
	var pipe bytes.Buffer
	if err := child.writeTo(&pipe); err != nil {
		t.Fatal(err)
	}
	parent := newTracer(procHarness)
	if err := parent.readFrom(&pipe); err != nil {
		t.Fatal(err)
	}
	got := parent.all()
	if len(got) != 2 || got[1] != (span{Start: 30, End: 45, Seq: 8, N: 1, Kind: spanServe, Proc: procChild}) {
		t.Errorf("read back %+v", got)
	}
	var nilTracer *tracer
	if nilTracer.buf(1).record(spanSend, 0, 0, 1, 0) != 0 || nilTracer.all() != nil {
		t.Errorf("a nil tracer recorded something")
	}
}
