package main

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/lora"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/transport"
)

var workloads = map[string]func(*env, *tracer) (workload, error){
	"pair-mem":    newPairMem,
	"serve-tcp":   newServeTCP,
	"fleet-lora":  newFleetLora,
	"platoon-mem": newPlatoonMem,
}

// grace is how long a watchdog waits for an op to unwind after it closed
// the op's conns or medium.
const grace = 5 * time.Second

// watch runs f under a deadline. On expiry it calls stop, which closes
// the op's conns or medium, and reports the op as failed.
func watch[T any](limit time.Duration, stop func(), f func() T) (T, error) {
	done := make(chan T, 1)
	go func() { done <- f() }()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case v := <-done:
		return v, nil
	case <-t.C:
	}
	stop()
	var zero T
	g := time.NewTimer(grace)
	defer g.Stop()
	select {
	case <-done:
		return zero, fmt.Errorf("watchdog: op exceeded %s", limit)
	case <-g.C:
		return zero, fmt.Errorf("watchdog: op exceeded %s and was still running %s after its conns closed", limit, grace)
	}
}

// session is one finished protocol run on both ends.
type session struct {
	alice, bob []protocol.KeyOutcome
	err        error
}

// agree pairs the two ends' outcomes round by round. A key counts when
// both ends confirmed the round; a round confirmed on both ends with
// different bytes is a mismatch.
func (s session) agree() (keys [][]byte, mismatch bool) {
	alice := map[int]protocol.KeyOutcome{}
	for _, o := range s.alice {
		alice[o.Round] = o
	}
	for _, b := range s.bob {
		a, ok := alice[b.Round]
		if !b.Confirmed || !ok || !a.Confirmed {
			continue
		}
		if subtle.ConstantTimeCompare(a.Key, b.Key) != 1 {
			mismatch = true
			continue
		}
		keys = append(keys, b.Key)
	}
	return keys, mismatch
}

// score folds a session into r and into the op's key digest.
func (r *opResult) score(s session, h *keyHash, toKey float64) {
	keys, mismatch := s.agree()
	r.keys += len(keys)
	r.mismatch = r.mismatch || mismatch
	if len(keys) > 0 {
		r.keyed++
		r.toKey += toKey
	}
	if s.err != nil && r.err == nil {
		r.err = s.err
	}
	for _, k := range keys {
		h.add(k)
	}
}

// keyHash digests an op's confirmed keys in order.
type keyHash struct{ buf bytes.Buffer }

func (h *keyHash) add(b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	h.buf.Write(n[:])
	h.buf.Write(b)
}

func (h *keyHash) sum() [32]byte { return sha256.Sum256(h.buf.Bytes()) }

// compareFirst is the shared replay check: the replayed ops must confirm
// the same keys as the originals.
func compareFirst(first []opResult, again func(i int) opResult) error {
	for i, r := range first {
		if r.err != nil {
			continue
		}
		re := again(i)
		if re.err != nil {
			return fmt.Errorf("op %d replay: %w", i, re.err)
		}
		if subtle.ConstantTimeCompare(re.digest[:], r.digest[:]) != 1 || re.keys != r.keys {
			return fmt.Errorf("op %d replayed to %d keys (digest %x), first run gave %d (digest %x)",
				i, re.keys, re.digest[:8], r.keys, r.digest[:8])
		}
	}
	return nil
}

// runPair runs Alice and Bob over one connection pair: Alice on a new
// goroutine, Bob on this one, each inside its own session span.
func runPair(sc scope, e *env, aSys, bSys pipeline.Scheme, ca, cb transport.Conn, m *wireMeter, name string,
	alice, bob [][]float64, policy protocol.RetryPolicy) session {
	var s session
	var aErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sp := sc.start("protocol.session")
		in := sp.child(sc)
		n := protocol.NewNode(traceScheme(aSys, in), meter(ca, m, in), name,
			protocol.WithRetryPolicy(policy), protocol.WithRecorder(e.reg))
		s.alice, aErr = n.RunAlice(alice)
		sp.end()
	}()
	sp := sc.start("protocol.session")
	in := sp.child(sc)
	n := protocol.NewNode(traceScheme(bSys, in), meter(cb, m, in), name,
		protocol.WithRetryPolicy(policy), protocol.WithRecorder(e.reg))
	bob2, bErr := n.RunBob(bob)
	sp.end()
	wg.Wait()
	s.bob = bob2
	s.err = errors.Join(aErr, bErr)
	return s
}

// ---------------------------------------------------------------------
// pair-mem: one vehicle at a time, two protocol nodes over a mem pair.
// ---------------------------------------------------------------------

const (
	pairWindows = 8 // about one reconciliation block per session
	pairRate    = 350
)

// pairRetry keeps retransmits out of a clean in-process link.
var pairRetry = protocol.RetryPolicy{Timeout: 2 * time.Second, MaxRetries: 4}

type pairMem struct {
	*pool
	e          *env
	tr         *tracer
	alice, bob *core.System
}

func newPairMem(e *env, tr *tracer) (workload, error) {
	p, err := e.pool("pair-mem")
	if err != nil {
		return nil, err
	}
	return &pairMem{pool: p, e: e, tr: tr, alice: e.sys.Clone(), bob: e.sys.Clone()}, nil
}

func (w *pairMem) ops(seconds int) int { return seconds * pairRate }
func (w *pairMem) concurrency() int    { return 1 }
func (w *pairMem) close()              {}

func (w *pairMem) op(_, i int) opResult {
	alice, bob := w.session(i, pairWindows)
	name := fmt.Sprintf("perfbench/pair/%d/%d", w.e.seed, i)
	ca, cb := transport.Pair()
	stop := sync.OnceFunc(func() { _ = ca.Close() })
	defer stop()
	var m wireMeter
	root := scope{t: w.tr, op: i}
	r := opResult{windows: pairWindows}
	t0 := time.Now()
	sp := root.start("op")
	s, err := watch(10*time.Second, stop, func() session {
		return runPair(sp.child(root), w.e, w.alice, w.bob, ca, cb, &m, name, alice, bob, pairRetry)
	})
	sp.end()
	r.latency = time.Since(t0)
	r.wire = m.counts()
	r.airtime = r.wire.airtime.Seconds()
	if err != nil {
		r.err = err
		return r
	}
	var h keyHash
	r.score(s, &h, r.airtime)
	r.digest = h.sum()
	return r
}

func (w *pairMem) check(first []opResult) error {
	return compareFirst(first, func(i int) opResult { return w.op(0, i) })
}

func (w *pairMem) perLayer(metrics, []opResult) {}

// ---------------------------------------------------------------------
// serve-tcp: the in-process server on loopback TCP, two closed-loop
// clients, every session a vehicle the server has never seen.
// ---------------------------------------------------------------------

const (
	serveWindows = 8
	serveRate    = 6
)

// serveRetry must outlast the server's own window derivation, which
// runs between the hello and Alice's first reply.
var serveRetry = protocol.RetryPolicy{Timeout: 2 * time.Second, MaxRetries: 6}

type serveTCP struct {
	e      *env
	tr     *tracer
	srv    *server.Server
	addr   string
	prefix string // session-name prefix; the op index follows it
	bobs   [clients]*core.System

	pending sync.Map // session name → chan server.Result
	mu      sync.Mutex
	srvWire map[int]*wireMeter // op → the server end's meter

	winBusy atomic.Int64 // ns spent deriving client windows
	winN    atomic.Int64
}

func newServeTCP(e *env, tr *tracer) (workload, error) {
	w := &serveTCP{e: e, tr: tr, prefix: fmt.Sprintf("perfbench/serve/%d/", e.seed), srvWire: map[int]*wireMeter{}}
	for k := range w.bobs {
		w.bobs[k] = e.sys.Clone()
	}
	l, err := transport.Listen("tcp://127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.addr = "tcp://" + l.Addr().String()
	w.srv, err = server.New(server.Config{
		Template:       e.sys,
		Scenario:       e.sc,
		Seed:           e.seed,
		Workers:        clients,
		SessionTimeout: 30 * time.Second,
		Retry:          serveRetry,
		Recorder:       e.reg,
		WrapConn: func(c transport.Conn) transport.Conn {
			return &serverConn{meteredConn: meter(c, &wireMeter{}, scope{}), w: w}
		},
		OnSession: func(res server.Result) {
			if ch, ok := w.pending.LoadAndDelete(res.Session); ok {
				for k := range res.Outcomes {
					res.Outcomes[k].Key = bytes.Clone(res.Outcomes[k].Key)
				}
				ch.(chan server.Result) <- res
			}
		},
	})
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	go func() { _ = w.srv.Serve(l) }()
	return w, nil
}

// serverConn is the server end's metered conn. The first message it
// receives is the vehicle's hello, which carries the session name; from
// then on its bytes and spans belong to that op.
type serverConn struct {
	*meteredConn
	w        *serveTCP
	attached bool
	sp       openSpan
}

func (c *serverConn) attach(msg []byte) {
	c.attached = true
	j := bytes.Index(msg, []byte(c.w.prefix))
	if j < 0 {
		return
	}
	digits := msg[j+len(c.w.prefix):]
	k := 0
	for k < len(digits) && digits[k] >= '0' && digits[k] <= '9' {
		k++
	}
	op, err := strconv.Atoi(string(digits[:k]))
	if err != nil {
		return
	}
	c.w.mu.Lock()
	m := c.w.srvWire[op]
	if m == nil {
		m = &wireMeter{}
		c.w.srvWire[op] = m
	}
	c.w.mu.Unlock()
	c.m = m
	root := scope{t: c.w.tr, op: op}
	c.sp = root.start("server.session")
	c.sc = c.sp.child(root)
}

func (c *serverConn) RecvTimeout(d time.Duration) ([]byte, error) {
	msg, err := c.meteredConn.RecvTimeout(d)
	if err == nil && !c.attached {
		c.attach(msg)
	}
	return msg, err
}

func (c *serverConn) Close() error {
	c.sp.end()
	c.sp = openSpan{}
	return c.meteredConn.Close()
}

func (w *serveTCP) ops(seconds int) int { return seconds * serveRate }
func (w *serveTCP) concurrency() int    { return clients }
func (w *serveTCP) windowMs() float64 {
	return msPer(time.Duration(w.winBusy.Load()), int(w.winN.Load()))
}
func (w *serveTCP) close() { _ = w.srv.Close() }

func (w *serveTCP) op(worker, i int) opResult {
	id := uint64(w.e.seed)<<32 + uint64(i) // never seen before: the window cache misses
	name := w.prefix + strconv.Itoa(i)
	r := opResult{windows: serveWindows}
	t0 := time.Now()
	_, bob, err := server.SessionWindows(w.e.sc, w.e.sys.Cfg, w.e.seed, id, serveWindows)
	w.winBusy.Add(int64(time.Since(t0)))
	w.winN.Add(serveWindows)
	if err != nil {
		r.err = err
		return r
	}
	done := make(chan server.Result, 1)
	w.pending.Store(name, done)
	defer w.pending.Delete(name)

	root := scope{t: w.tr, op: i}
	var m wireMeter
	t1 := time.Now()
	sp := root.start("op")
	conn, err := transport.Dial(w.addr)
	if err != nil {
		r.err = err
		return r
	}
	stop := sync.OnceFunc(func() { _ = conn.Close() })
	defer stop()
	bs := sp.child(root).start("protocol.session")
	in := bs.child(sp.child(root))
	type out struct {
		o   []protocol.KeyOutcome
		err error
	}
	res, err := watch(30*time.Second, stop, func() out {
		o, err := server.RunVehicleWindows(meter(conn, &m, in), traceScheme(w.bobs[worker], in), bob,
			server.Vehicle{ID: id, Session: name},
			protocol.WithRetryPolicy(serveRetry), protocol.WithRecorder(w.e.reg))
		return out{o, err}
	})
	bs.end()
	sp.end()
	r.latency = time.Since(t1)
	stop()
	if err != nil {
		r.err = err
		return r
	}
	var srv server.Result
	select {
	case srv = <-done:
	case <-time.After(30 * time.Second):
		r.err = fmt.Errorf("server never resolved session %s", name)
		return r
	}
	r.serverS = srv.Elapsed.Seconds()
	w.mu.Lock()
	sm := w.srvWire[i]
	delete(w.srvWire, i)
	w.mu.Unlock()
	if sm != nil {
		m.add(sm)
	}
	r.wire = m.counts()
	r.airtime = r.wire.airtime.Seconds()
	var h keyHash
	r.score(session{alice: srv.Outcomes, bob: res.o, err: errors.Join(res.err, srv.Err)}, &h, r.airtime)
	r.digest = h.sum()
	return r
}

func (w *serveTCP) check(first []opResult) error {
	return compareFirst(first, func(i int) opResult { return w.op(0, i) })
}

func (w *serveTCP) perLayer(m metrics, rs []opResult) {
	var waits []float64
	for _, r := range rs {
		if r.err == nil {
			waits = append(waits, (r.latency.Seconds()-r.serverS)*1e3)
		}
	}
	m.set("server.wait_ms", median(waits), "ms")
}

// ---------------------------------------------------------------------
// fleet-lora: batches of vehicles contending on a fresh lockstep medium.
// ---------------------------------------------------------------------

const (
	fleetBatch    = 8
	fleetChannels = 4
	fleetWindows  = 8
	fleetRate     = 50
)

// fleetRetry works in the medium's virtual seconds: one protocol message
// is a multi-fragment burst of a second or two on the air.
var fleetRetry = protocol.RetryPolicy{Timeout: 4 * time.Second, MaxTimeout: 16 * time.Second, Backoff: 1.6, MaxRetries: 8}

type fleetLora struct {
	*pool
	e   *env
	tr  *tracer
	sys [2 * fleetBatch]*core.System // one clone per endpoint, reused batch to batch
}

func newFleetLora(e *env, tr *tracer) (workload, error) {
	p, err := e.pool("fleet-lora")
	if err != nil {
		return nil, err
	}
	w := &fleetLora{pool: p, e: e, tr: tr}
	for k := range w.sys {
		w.sys[k] = e.sys.Clone()
	}
	return w, nil
}

func (w *fleetLora) ops(seconds int) int { return seconds * fleetRate }
func (w *fleetLora) concurrency() int    { return 1 }
func (w *fleetLora) close()              {}

func (w *fleetLora) op(_, b int) opResult {
	mseed := rng.SubSeed(w.e.seed, "perfbench/fleet/medium", b)
	r := opResult{}
	m, err := lora.NewMedium(lora.MediumConfig{Channels: fleetChannels, Lockstep: true, Seed: mseed, Recorder: w.e.reg})
	if err != nil {
		r.err = err
		return r
	}
	stop := sync.OnceFunc(func() { _ = m.Close() })
	defer stop()
	type link struct{ veh, gw *lora.Conn }
	links := make([]link, fleetBatch)
	for k := range links {
		links[k].veh, links[k].gw, err = m.Link(fmt.Sprintf("veh-%d", k))
		if err != nil {
			r.err = err
			return r
		}
	}
	root := scope{t: w.tr, op: b}
	var wire wireMeter
	t0 := time.Now()
	sp := root.start("op")
	opScope := sp.child(root)
	type out struct {
		s   []session
		ttk []float64
	}
	res, err := watch(60*time.Second, stop, func() out {
		o := out{s: make([]session, fleetBatch), ttk: make([]float64, fleetBatch)}
		var wg sync.WaitGroup
		for k := range links {
			alice, bob := w.session(b*fleetBatch+k, fleetWindows)
			name := fmt.Sprintf("perfbench/fleet/%d/%d/%d", w.e.seed, b, k)
			l := links[k]
			wg.Add(2)
			go func() { // gateway: the Alice role
				defer wg.Done()
				defer func() { _ = l.gw.Close() }()
				gs := opScope.start("protocol.session")
				in := gs.child(opScope)
				n := protocol.NewNode(traceScheme(w.sys[2*k], in), meter(l.gw, &wire, in), name,
					protocol.WithRetryPolicy(fleetRetry), protocol.WithRecorder(w.e.reg))
				var err error
				o.s[k].alice, err = n.RunAlice(alice)
				gs.end()
				o.s[k].err = errors.Join(o.s[k].err, err)
			}()
			go func() { // vehicle: staggered ignition, then the Bob role
				defer wg.Done()
				defer func() { _ = l.veh.Close() }()
				jitter := rng.Stream(mseed, "perfbench/fleet/jitter", k).Uniform(0, 2)
				if err := l.veh.Wait(time.Duration(jitter * float64(time.Second))); err != nil {
					return
				}
				vs := opScope.start("protocol.session")
				in := vs.child(opScope)
				n := protocol.NewNode(traceScheme(w.sys[2*k+1], in), meter(l.veh, &wire, in), name,
					protocol.WithRetryPolicy(fleetRetry), protocol.WithRecorder(w.e.reg))
				keys, err := n.RunBob(bob)
				vs.end()
				o.ttk[k] = l.veh.LastActive()
				o.s[k].bob = keys
				o.s[k].err = errors.Join(o.s[k].err, err)
			}()
		}
		wg.Wait()
		return o
	})
	sp.end()
	r.latency = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	r.medium = m.Stats()
	r.airtime = r.medium.AirtimeSeconds
	r.wire = wire.counts()
	var h keyHash
	h.add([]byte(fmt.Sprintf("%+v", r.medium))) // the run digest pins every batch's MAC counters
	for k, s := range res.s {
		r.score(s, &h, res.ttk[k])
		r.windows += fleetWindows
	}
	r.digest = h.sum()
	return r
}

// check replays the first batches: the same keys, and the medium's
// counters (frames, collisions, airtime, virtual clock) repeat exactly.
func (w *fleetLora) check(first []opResult) error {
	return compareFirst(first, func(i int) opResult {
		re := w.op(0, i)
		if re.err == nil && re.medium != first[i].medium {
			re.err = fmt.Errorf("medium stats %+v, first run gave %+v", re.medium, first[i].medium)
		}
		return re
	})
}

func (w *fleetLora) perLayer(m metrics, rs []opResult) {
	var frames, delivered, collided, cadBusy, backoffs uint64
	var keys int
	var wall time.Duration
	for _, r := range rs {
		frames += r.medium.Frames
		delivered += r.medium.Delivered
		collided += r.medium.Collided
		cadBusy += r.medium.CADBusy
		backoffs += r.medium.Backoffs
		keys += r.keys
		wall += r.latency
	}
	n := float64(len(rs))
	m.set("lora.frames_per_key", ratio(float64(frames), keys), "count")
	m.set("lora.delivery_ratio", ratio(float64(delivered), int(frames)), "ratio")
	m.set("lora.collided", float64(collided)/n, "count")
	m.set("lora.cad_busy", float64(cadBusy)/n, "count")
	m.set("lora.backoffs", float64(backoffs)/n, "count")
	m.set("lora.wall_us_per_frame", ratio(wall.Seconds()*1e6, int(frames)), "us")
}

// ---------------------------------------------------------------------
// platoon-mem: group.Drive over in-process conns, eight members, two
// departures.
// ---------------------------------------------------------------------

const (
	platoonMembers = 8
	platoonWindows = poolWindows // two reconciliation rounds per pairwise key
	platoonRate    = 5
)

// The mem-endpoint timing profile of vehiclekey.RunPlatoon.
var (
	platoonRetry   = protocol.RetryPolicy{Timeout: 50 * time.Millisecond, MaxRetries: 8}
	platoonTick    = 20 * time.Millisecond
	platoonLeavers = map[uint64]bool{1: true, 6: true}
)

type platoonMem struct {
	*pool
	e  *env
	tr *tracer
}

func newPlatoonMem(e *env, tr *tracer) (workload, error) {
	p, err := e.pool("platoon-mem")
	if err != nil {
		return nil, err
	}
	return &platoonMem{pool: p, e: e, tr: tr}, nil
}

func (w *platoonMem) ops(seconds int) int { return seconds * platoonRate }
func (w *platoonMem) concurrency() int    { return 1 }
func (w *platoonMem) close()              {}

func (w *platoonMem) op(_, k int) opResult {
	member := func(id uint64) (alice, bob [][]float64) { return w.session(k*platoonMembers+int(id), platoonWindows) }
	r := opResult{windows: platoonMembers * platoonWindows}
	root := scope{t: w.tr, op: k}
	var wire wireMeter
	t0 := time.Now()
	sp := root.start("op")
	in := sp.child(root)
	link := newMemLink(&wire, in)
	dc := group.DriveConfig{
		Members: platoonMembers,
		Leavers: platoonLeavers,
		Seed:    rng.SubSeed(w.e.seed, "perfbench/platoon", k),
		Listen:  func() (transport.Listener, error) { return link, nil },
		Dial:    func(uint64) (transport.Conn, error) { return link.dial(), nil },
		Hub: group.HubConfig{
			Resolve: func(id uint64, n int) (pipeline.Scheme, [][]float64, error) {
				alice, _ := member(id)
				if n != len(alice) {
					return nil, nil, fmt.Errorf("member %d announced %d windows, it holds %d", id, n, len(alice))
				}
				return traceScheme(w.e.sys.Clone(), in), alice, nil
			},
			Retry:    platoonRetry,
			Tick:     platoonTick,
			Recorder: w.e.reg,
		},
		Member: func(id uint64) (group.MemberConfig, error) {
			_, bob := member(id)
			return group.MemberConfig{
				Scheme:   traceScheme(w.e.sys.Clone(), in),
				Windows:  bob,
				Retry:    platoonRetry,
				Tick:     platoonTick,
				Recorder: w.e.reg,
			}, nil
		},
		LeaveWait: 10 * time.Second,
	}
	type out struct {
		res group.DriveResult
		err error
	}
	o, err := watch(60*time.Second, link.closeAll, func() out {
		res, err := group.Drive(dc)
		return out{res, err}
	})
	sp.end()
	r.latency = time.Since(t0)
	r.wire = wire.counts()
	r.airtime = r.wire.airtime.Seconds()
	if err == nil {
		err = o.err
	}
	if err != nil {
		r.err = err
		return r
	}
	// A member whose channel gave no agreeing block does not join: the
	// platoon is degraded, not failed, as a session without a key is.
	res := o.res
	r.degraded = len(res.Failed)

	// Every member that accepted an epoch holds the same group key, and
	// the final epoch's key is the hub's.
	var h keyHash
	epochs := make([]uint32, 0, len(res.Accepted))
	for e := range res.Accepted {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(a, b int) bool { return epochs[a] < epochs[b] })
	for _, e := range epochs {
		acc := res.Accepted[e]
		ids := make([]uint64, 0, len(acc))
		for id := range acc {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		want := acc[ids[0]]
		if e == res.FinalEpoch {
			want = res.HubDigest
		}
		for _, id := range ids {
			if acc[id] != want {
				r.mismatch = true
			}
			h.add([]byte(fmt.Sprintf("%d/%d/%s", e, id, acc[id])))
			r.keys++
		}
	}
	if r.keys > 0 {
		r.keyed = 1
		r.toKey = r.airtime
	}
	h.add([]byte(strings.Trim(fmt.Sprint(res.Established), "[]")))
	r.digest = h.sum()
	return r
}

// memLink is platoon-mem's in-process endpoint: each dial makes a
// transport.Pair and queues its far end for Accept. The two ends of a
// pair share one close guard. Pair's conns close a shared channel
// without a lock, and group.Drive's teardown closes a member's conn
// from the member goroutine and from its final sweep at once. Over a
// plain mem:// endpoint this panicked with "close of closed channel" in
// 1 of 10 runs of this workload.
type memLink struct {
	m       *wireMeter
	sc      scope
	backlog chan transport.Conn // sized to the platoon: dials never block
	done    chan struct{}
	stop    func()

	mu    sync.Mutex
	conns []transport.Conn
}

func newMemLink(m *wireMeter, sc scope) *memLink {
	l := &memLink{m: m, sc: sc, backlog: make(chan transport.Conn, platoonMembers), done: make(chan struct{})}
	l.stop = sync.OnceFunc(func() { close(l.done) })
	return l
}

// guardedConn closes its pair through the guard the two ends share.
type guardedConn struct {
	transport.Conn
	close func()
}

func (c guardedConn) Close() error {
	c.close()
	return nil
}

func (l *memLink) dial() transport.Conn {
	a, b := transport.Pair()
	shut := sync.OnceFunc(func() { _ = a.Close() })
	near, far := guardedConn{a, shut}, guardedConn{b, shut}
	l.mu.Lock()
	l.conns = append(l.conns, near)
	l.mu.Unlock()
	l.backlog <- meter(far, l.m, l.sc)
	return meter(near, l.m, l.sc)
}

func (l *memLink) Accept() (transport.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

func (l *memLink) Addr() net.Addr { return memAddr("perfbench-platoon") }

func (l *memLink) Close() error {
	l.stop()
	return nil
}

// closeAll is the watchdog's stop: close the listener and every pair.
func (l *memLink) closeAll() {
	l.stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.Close()
	}
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

func (w *platoonMem) check(first []opResult) error {
	return compareFirst(first, func(i int) opResult { return w.op(0, i) })
}

func (w *platoonMem) perLayer(m metrics, rs []opResult) {
	degraded := 0
	for _, r := range rs {
		degraded += r.degraded
	}
	m.set("group.degraded", float64(degraded)/float64(len(rs)), "count")
}
