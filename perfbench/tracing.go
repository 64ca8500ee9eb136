package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lora"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// span is one traced interval at a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused this one (0 for a root).
// Server-side spans carry Op -1: the server's conns are wrapped before
// the hello names the vehicle, so they are attributed to the chunk only.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; write dumps them when the run ends.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	on   atomic.Bool // spans are recorded only while on (traced chunks)

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is where new spans attach: a tracer (nil when the run is not
// traced), the op, and the parent span.
type scope struct {
	t      *tracer
	op     int
	parent int64
}

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a child span of sc. It is a no-op outside traced chunks.
func (sc scope) start(name string) openSpan {
	if sc.t == nil || !sc.t.on.Load() {
		return openSpan{}
	}
	return openSpan{t: sc.t, s: span{
		ID: sc.t.next.Add(1), Parent: sc.parent, Op: sc.op, Name: name,
		Start: time.Since(sc.t.t0).Nanoseconds(),
	}}
}

// child returns the scope for spans caused by o.
func (o openSpan) child(sc scope) scope {
	if o.t == nil {
		return sc
	}
	return scope{t: sc.t, op: sc.op, parent: o.s.ID}
}

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = time.Since(o.t.t0).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// tracedScheme times every pipeline stage the protocol drives.
type tracedScheme struct {
	pipeline.Scheme
	sc scope
}

// traceScheme decorates s when the scope is traced, and returns it
// unchanged otherwise so untraced runs call the scheme directly.
func traceScheme(s pipeline.Scheme, sc scope) pipeline.Scheme {
	if sc.t == nil || !sc.t.on.Load() {
		return s
	}
	return tracedScheme{Scheme: s, sc: sc}
}

func (s tracedScheme) BobQuantize(seq []float64) ([]byte, []int, error) {
	defer s.sc.start("core.bob_quantize").end()
	return s.Scheme.BobQuantize(seq)
}

func (s tracedScheme) AlicePrecompute(seq []float64) (pipeline.Round, error) {
	defer s.sc.start("core.alice_precompute").end()
	return s.Scheme.AlicePrecompute(seq)
}

func (s tracedScheme) BobEncode(block, salt []byte) ([]float64, []byte, error) {
	defer s.sc.start("core.bob_encode").end()
	return s.Scheme.BobEncode(block, salt)
}

func (s tracedScheme) AliceCorrect(block []byte, code []float64, salt []byte) ([]byte, []byte, error) {
	defer s.sc.start("core.alice_correct").end()
	return s.Scheme.AliceCorrect(block, code, salt)
}

func (s tracedScheme) Amplify(bits, salt []byte) ([]byte, error) {
	defer s.sc.start("core.amplify").end()
	return s.Scheme.Amplify(bits, salt)
}

// wireMeter counts what the protocol puts on the wire. It is installed in
// every run (plain atomic adds), so wire_bytes_per_key comes from the
// untraced runs like every other end-to-end metric.
type wireMeter struct {
	sends     atomic.Int64
	bytes     atomic.Int64
	airtimeNs atomic.Int64 // modeled LoRa airtime of the messages sent
}

func (m *wireMeter) add(o *wireMeter) {
	m.sends.Add(o.sends.Load())
	m.bytes.Add(o.bytes.Load())
	m.airtimeNs.Add(o.airtimeNs.Load())
}

// phy is the shared medium's radio and fragment size, used to model the
// airtime of point-to-point traffic.
var phy = lora.MediumConfig{}.Normalize()

// messageAirtime is the time on air of one n-byte message sent as a
// back-to-back fragment burst at the medium's PHY.
func messageAirtime(n int) time.Duration {
	p := phy.PHY
	full, rem := n/phy.FragmentBytes, n%phy.FragmentBytes
	total := 0.0
	if full > 0 {
		p.PayloadBytes = phy.FragmentBytes
		total = float64(full) * p.Airtime()
	}
	if rem > 0 || n == 0 {
		p.PayloadBytes = max(rem, 1)
		total += p.Airtime()
	}
	return time.Duration(total * float64(time.Second))
}

// meteredConn counts sends and, in traced chunks, records a span per
// Send and per receive wait.
type meteredConn struct {
	transport.Conn
	m  *wireMeter
	sc scope
}

func meter(c transport.Conn, m *wireMeter, sc scope) *meteredConn {
	return &meteredConn{Conn: c, m: m, sc: sc}
}

func (c *meteredConn) Send(msg []byte) error {
	c.m.sends.Add(1)
	c.m.bytes.Add(int64(len(msg)))
	c.m.airtimeNs.Add(int64(messageAirtime(len(msg))))
	defer c.sc.start("transport.send").end()
	return c.Conn.Send(msg)
}

func (c *meteredConn) Recv() ([]byte, error) {
	defer c.sc.start("transport.recv").end()
	return c.Conn.Recv()
}

func (c *meteredConn) RecvTimeout(d time.Duration) ([]byte, error) {
	defer c.sc.start("transport.recv").end()
	return c.Conn.RecvTimeout(d)
}
