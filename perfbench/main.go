// Command perfbench is the repository benchmark. It trains the paper's
// scheme, runs one workload's fixed op list from a seed, checks that
// every confirmed key is identical on both ends and repeats exactly, and
// prints one JSON result line. See README.md for the workloads and
// metrics; run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload pair-mem --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/lora"
	"repro/internal/obs"
)

// clients is the closed-loop concurrency cap: never more CPU-busy load
// goroutines than the 2-CPU host the benchmark is sized for.
const clients = 2

// chunks splits the op list; a host-reference slice runs before each.
const chunks = 20

// outDir holds build outputs, span dumps and digest records, relative to
// the checkout root the benchmark runs from.
const outDir = ".bench_build"

// opResult is one op's outcome. Counts are summed over the op's sessions.
type opResult struct {
	latency  time.Duration
	traced   bool
	err      error // an error or a watchdog expiry: the op failed
	mismatch bool  // a key confirmed on both ends differs
	digest   [32]byte

	keys     int     // keys confirmed and equal on both ends
	keyed    int     // sessions that ended with at least one key
	degraded int     // platoon members that got no pairwise key
	toKey    float64 // seconds to key over keyed sessions (virtual on lora, modeled airtime elsewhere)
	airtime  float64 // seconds on air (medium-measured on lora, modeled elsewhere)
	windows  int     // probing windows used
	wire     wireCounts
	medium   lora.Stats
	serverS  float64 // the server's own session time (serve-tcp)
}

type wireCounts struct {
	sends, bytes int64
	airtime      time.Duration
}

func (m *wireMeter) counts() wireCounts {
	return wireCounts{sends: m.sends.Load(), bytes: m.bytes.Load(), airtime: time.Duration(m.airtimeNs.Load())}
}

// workload is one benchmark scenario over a trained env.
type workload interface {
	// ops is the op-list length for a run of the given seconds.
	ops(seconds int) int
	// concurrency is how many closed-loop clients run ops.
	concurrency() int
	// op runs op i on client goroutine worker. Ops must not fail on a
	// healthy program; a watchdog bounds each one.
	op(worker, i int) opResult
	// check re-runs the first ops after the timed loop and compares
	// them with the originals, byte for byte.
	check(first []opResult) error
	// perLayer adds the workload's own per-layer metrics.
	perLayer(m metrics, rs []opResult)
	close()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "pair-mem, serve-tcp, fleet-lora or platoon-mem")
	seed := flag.Int64("seed", 1, "workload seed: vehicles, session names and medium seeds derive from it")
	seconds := flag.Int("seconds", 10, "run length; sizes the fixed op list at the workload's nominal rate")
	traced := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1"))
	}
	mk, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q", *name))
	}
	if err := run(*name, mk, *seed, *seconds, *traced == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	_, _ = fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func run(name string, mk func(*env, *tracer) (workload, error), seed int64, seconds int, traced bool) error {
	e, err := setUp(seed)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	w, err := mk(e, tr)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defer w.close()

	n := w.ops(seconds)
	rs := make([]opResult, n)
	before := e.reg.Snapshot()
	var wall, cpu time.Duration
	var alloc uint64
	var refs []float64
	nc := min(chunks, n)
	for c := 0; c < nc; c++ {
		refs = append(refs, refSlice())
		lo, hi := c*n/nc, (c+1)*n/nc
		if tr != nil {
			tr.on.Store(c%2 == 0) // alternate, so tracing overhead is measured in-run
		}
		cpu0, mem0 := cpuTime(), allocated()
		t0 := time.Now()
		runChunk(lo, hi, w.concurrency(), func(worker, i int) {
			rs[i] = w.op(worker, i)
			rs[i].traced = tr != nil && tr.on.Load()
		})
		wall += time.Since(t0)
		cpu += cpuTime() - cpu0
		alloc += allocated() - mem0
	}
	if tr != nil {
		tr.on.Store(false)
	}
	after := e.reg.Snapshot()

	// Correctness gate: keys equal on both ends, the first ops replay to
	// the same bytes, and the whole run's digest matches any earlier run
	// of this binary with the same seed and op count.
	correct := true
	var problems []string
	failed := 0
	for i, r := range rs {
		if r.err != nil {
			failed++
			_, _ = fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, r.err)
		}
		if r.mismatch {
			correct = false
			problems = append(problems, fmt.Sprintf("op %d: keys differ between the two ends", i))
		}
	}
	if err := w.check(rs[:min(2, n)]); err != nil {
		correct = false
		problems = append(problems, "replay: "+err.Error())
	}
	digest := runDigest(rs)
	if err := recordDigest(name, seed, n, digest); err != nil {
		correct = false
		problems = append(problems, err.Error())
	}

	ref := median(refs)
	m := metrics{}
	if traced {
		perLayer(m, w, rs, before, after, ref, tr)
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	} else {
		endToEnd(m, e, rs, wall, cpu, alloc, nominalRefNs/ref)
	}
	keys := 0
	for _, r := range rs {
		keys += r.keys
	}
	_, _ = fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d ops=%d keys=%d failed=%d digest=%s host.ref_ns=%.1f wall=%.2fs\n",
		name, seed, n, keys, failed, digest[:16], ref, wall.Seconds())
	for _, p := range problems {
		_, _ = fmt.Fprintf(os.Stderr, "perfbench: INCORRECT: %s\n", p)
	}
	out, err := json.Marshal(result{Correct: correct, Attempted: n, Failed: failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
	return nil
}

// runChunk runs ops [lo, hi) in order on conc closed-loop goroutines.
func runChunk(lo, hi, conc int, do func(worker, i int)) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for wk := 0; wk < conc; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				do(wk, i)
			}
		}()
	}
	wg.Wait()
}

// endToEnd computes the user-facing metrics of an untraced run. The
// time-based ones are scaled to the nominal host speed: speed is the
// nominal reference time over the one this run measured.
func endToEnd(m metrics, e *env, rs []opResult, wall, cpu time.Duration, alloc uint64, speed float64) {
	n := float64(len(rs))
	lat := make([]float64, 0, len(rs))
	var keys, keyed, failed int
	var bytes int64
	var toKey, airtime float64
	for _, r := range rs {
		lat = append(lat, r.latency.Seconds()*1e3)
		keys += r.keys
		keyed += r.keyed
		bytes += r.wire.bytes
		toKey += r.toKey
		airtime += r.airtime
		if r.err != nil || r.mismatch {
			failed++
		}
	}
	m.set("setup_s", median(e.setup)*speed, "s")
	m.set("ops_per_s", n/wall.Seconds()/speed, "1/s")
	m.set("op_ms_p50", quantile(lat, 0.5)*speed, "ms")
	m.set("op_ms_tail", quantile(lat, tailQ(len(lat)))*speed, "ms")
	m.set("cpu_ms_per_op", cpu.Seconds()*1e3/n*speed, "ms")
	m.set("alloc_kb_per_op", float64(alloc)/1024/n, "KiB")
	m.set("keys_per_op", float64(keys)/n, "count")
	m.set("ok_ratio", 1-float64(failed)/n, "ratio")
	m.set("wire_bytes_per_key", ratio(float64(bytes), keys), "B")
	m.set("airtime_s_per_key", ratio(airtime, keys), "s")
	m.set("vtime_s_to_key", ratio(toKey, keyed), "s")
}

// perLayer computes the traced run's per-layer metrics from the spans of
// the traced chunks and from the program's own counters.
func perLayer(m metrics, w workload, rs []opResult, before, after obs.Snapshot, ref float64, tr *tracer) {
	var traced, plain []float64
	var windows, failed int
	var sends, bytes int64
	for _, r := range rs {
		if r.traced {
			traced = append(traced, r.latency.Seconds())
		} else {
			plain = append(plain, r.latency.Seconds())
		}
		windows += r.windows
		sends += r.wire.sends
		bytes += r.wire.bytes
		if r.err != nil || r.mismatch {
			failed++
		}
	}
	n := float64(len(rs))
	nt := float64(len(traced))
	m.set("host.ref_ns", ref, "ns")
	overhead := 0.0
	if p := median(plain); p > 0 {
		overhead = (median(traced)/p - 1) * 100
	}
	m.set("trace.overhead_pct", overhead, "%")
	m.set("fail_ratio", float64(failed)/n, "ratio")

	// Spans: per-call stage times, and the session breakdown. The
	// children of a protocol.session span are the core stage calls and
	// the transport sends and receive waits of that endpoint; the
	// protocol's self time is what remains, so core + transport +
	// protocol self account for the session time.
	spans := tr.snapshot()
	sessions := map[int64]bool{}
	calls := map[string][]float64{}
	for _, s := range spans {
		if s.Name == "protocol.session" {
			sessions[s.ID] = true
		}
		calls[s.Name] = append(calls[s.Name], time.Duration(s.End-s.Start).Seconds())
	}
	var session, core, send, recv time.Duration
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		switch {
		case s.Name == "protocol.session":
			session += d
		case !sessions[s.Parent]:
		case s.Name == "transport.send":
			send += d
		case s.Name == "transport.recv":
			recv += d
		default:
			core += d
		}
	}
	for _, st := range []string{"alice_precompute", "bob_quantize", "bob_encode", "alice_correct", "amplify"} {
		m.set("core."+st+"_us", median(calls["core."+st])*1e6, "us")
	}
	perOp := func(d time.Duration) float64 { return ratio(d.Seconds()*1e3, int(nt)) }
	m.set("core.windows_per_op", ratio(float64(len(calls["core.bob_quantize"])), int(nt)), "count")
	m.set("core.blocks_per_op", ratio(float64(len(calls["core.bob_encode"])), int(nt)), "count")
	m.set("core.self_ms", perOp(core), "ms")
	m.set("transport.send_ms", perOp(send), "ms")
	m.set("transport.recv_wait_ms", perOp(recv), "ms")
	m.set("protocol.session_ms", perOp(session), "ms")
	m.set("protocol.self_ms", perOp(session-core-send-recv), "ms")

	// The program's own counters, over the timed loop.
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	m.set("protocol.msgs", delta(obs.ProtocolSent)/n, "count")
	m.set("protocol.retransmits", delta(obs.ProtocolRetransmits)/n, "count")
	m.set("protocol.timeouts", delta(obs.ProtocolTimeouts)/n, "count")
	m.set("protocol.stale", delta(obs.ProtocolStale)/n, "count")
	m.set("protocol.garbage", delta(obs.ProtocolGarbage)/n, "count")
	m.set("transport.sends", float64(sends)/n, "count")
	m.set("transport.bytes", float64(bytes)/n, "B")

	hist := func(name string) float64 {
		h, h0 := after.Histograms[name], before.Histograms[name]
		if h.Count == h0.Count {
			return 0
		}
		return (h.Sum - h0.Sum) / float64(h.Count-h0.Count) * 1e3
	}
	m.set("server.session_ms", hist(obs.ServerSessionSeconds), "ms")
	m.set("group.establish_ms", hist(obs.GroupEstablishSeconds), "ms")
	m.set("group.fanout_ms", hist(obs.GroupFanoutSeconds), "ms")
	m.set("group.rekey_ms", hist(obs.GroupRekeySeconds), "ms")
	var envelopes float64
	for _, res := range obs.GroupResults {
		envelopes += delta(obs.Labeled(obs.GroupEnvelopes, "result", res))
	}
	m.set("group.envelopes", envelopes/n, "count")
	m.set("group.stale", delta(obs.GroupStaleDrops)/n, "count")

	// Replay guard: the pool-replaying workloads must not be helped by a
	// window-keyed cache, or they measure replay instead of the system.
	var hits float64
	for _, c := range obs.CacheNames {
		h := delta(obs.Labeled(obs.CacheHits, "cache", c))
		miss := delta(obs.Labeled(obs.CacheMisses, "cache", c))
		hits += h
		m.set("cache."+c+".hit_ratio", ratio(h, int(h+miss)), "ratio")
	}
	share := 0.0
	if p, ok := w.(interface{ windows() int }); ok {
		share = max(0, 1-ratio(float64(p.windows()), windows))
	}
	flagged := 0.0
	if share > 0 && hits > 0 {
		flagged = 1
		_, _ = fmt.Fprintf(os.Stderr, "perfbench: FLAG: a window-keyed cache hit %.0f times on replayed pool windows; this run measures replay, not the system\n", hits)
	}
	m.set("replay.share", share, "ratio")
	m.set("replay.flagged", flagged, "count")
	m.set("trace.window_ms", windowMs(w), "ms")

	// Layer-specific metrics default to 0 where the workload does not
	// cross the layer.
	for name, unit := range map[string]string{
		"server.wait_ms": "ms", "group.degraded": "count",
		"lora.frames_per_key": "count", "lora.delivery_ratio": "ratio", "lora.collided": "count",
		"lora.cad_busy": "count", "lora.backoffs": "count", "lora.wall_us_per_frame": "us",
	} {
		m.set(name, 0, unit)
	}
	w.perLayer(m, rs)
}

// windowMs reports the simulator's cost per derived window, however the
// workload derived them (setup pool or the serving loop).
func windowMs(w workload) float64 {
	if d, ok := w.(interface{ windowMs() float64 }); ok {
		return d.windowMs()
	}
	return 0
}

// nominalRefNs is the reference loop's time per iteration on the host the
// benchmark was sized on, a 2-CPU x86-64 container, where run medians
// ranged from 12.1 to 12.8 µs. Time-based end-to-end metrics are
// reported as if the host ran the reference at this speed.
const nominalRefNs = 12500

// refBuf is the host-speed reference loop's fixed input.
var refBuf = make([]byte, 16<<10)

const refIters = 1000

// refSlice runs the fixed reference loop, SHA-256 over 16 KiB, and
// returns ns per iteration. It runs before every chunk, so it samples
// the host's speed over the same stretch of time as the workload.
func refSlice() float64 {
	t0 := time.Now()
	for i := 0; i < refIters; i++ {
		sum := sha256.Sum256(refBuf)
		refBuf[i%len(refBuf)] ^= sum[0]
	}
	return float64(time.Since(t0).Nanoseconds()) / refIters
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runDigest folds every op's key digest, in op order.
func runDigest(rs []opResult) string {
	h := sha256.New()
	for _, r := range rs {
		h.Write(r.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordDigest compares the run's key digest with the one an earlier run
// of this same binary recorded for this workload, seed and op count, and
// records it when there is none.
func recordDigest(name string, seed int64, n int, digest string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	_ = f.Close()
	if err != nil {
		return err
	}
	build := hex.EncodeToString(h.Sum(nil))[:16]
	path := filepath.Join(outDir, "digests", fmt.Sprintf("%s-%s-seed%d-n%d", build, name, seed, n))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if subtle.ConstantTimeCompare(prev, []byte(digest)) != 1 {
			return fmt.Errorf("key digest %.16s differs from %.16s recorded by an earlier run of this build", digest, prev)
		}
		return nil
	case os.IsNotExist(err):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(digest), 0o644)
	default:
		return err
	}
}

// tailQ is the highest percentile of the ladder p75, p90, p95, p99,
// p99.9 with at least ten of n samples beyond it. The op list is fixed
// per workload and run length, so the percentile is too.
func tailQ(n int) float64 {
	q := 0.5
	for _, p := range []float64{0.75, 0.9, 0.95, 0.99, 0.999} {
		if float64(n)*(1-p) >= 10 {
			q = p
		}
	}
	return q
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func ratio(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}
