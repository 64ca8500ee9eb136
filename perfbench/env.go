package main

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	vehiclekey "repro"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/trace"
)

// The trained model is part of the system under test, so it is trained
// from a fixed seed; --seed generates only the inputs (vehicles, session
// names, medium seeds). A per-seed model would make every key count
// depend on how well that one model happened to train.
const (
	trainSeed    = 21
	trainWindows = 64
	trainEpochs  = 6
	setupReps    = 3 // setup_s is the median of this many trainings
)

// env is what every workload shares: the trained scheme, the channel
// scenario, and the metrics registry the program's own counters land in.
type env struct {
	seed  int64
	sys   *core.System
	sc    trace.Scenario
	reg   *vehiclekey.MetricsRegistry
	setup []float64 // seconds per setup repetition
}

// setUp trains the paper's scheme setupReps times and keeps the last
// instance. Training is deterministic, so every repetition must produce
// the same model bytes.
func setUp(seed int64) (*env, error) {
	e := &env{seed: seed, sc: trace.NewScenario(channel.Urban, channel.V2I), reg: vehiclekey.NewMetricsRegistry()}
	var first string
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		vs, err := vehiclekey.SetupWith(vehiclekey.Options{
			Seed:            trainSeed,
			Scheme:          "vehicle-key",
			TrainingWindows: trainWindows,
			TrainingEpochs:  trainEpochs,
			Recorder:        e.reg,
		})
		if err != nil {
			return nil, err
		}
		e.setup = append(e.setup, time.Since(t0).Seconds())
		var buf bytes.Buffer
		if err := vs.SaveModel(&buf); err != nil {
			return nil, fmt.Errorf("save model: %w", err)
		}
		sum := sha256.Sum256(buf.Bytes())
		digest := hex.EncodeToString(sum[:])
		if r == 0 {
			first = digest
		} else if subtle.ConstantTimeCompare([]byte(digest), []byte(first)) != 1 {
			return nil, fmt.Errorf("setup %d trained model %s, setup 0 trained %s: training is not deterministic", r, digest[:16], first[:16])
		}
		e.sys = vs.System()
	}
	return e, nil
}

// vehicle is one pool entry: a vehicle ID and both ends' windows.
type vehicle struct {
	id         uint64
	alice, bob [][]float64
}

// Pool shape shared by the replaying workloads: 64 distinct vehicles of
// 16 windows each, 1024 windows in all.
const (
	poolVehicles = 64
	poolWindows  = 16
)

// pool is a set of distinct vehicles' windows derived during setup, so
// the timed path replays them instead of simulating the channel.
type pool struct {
	seed  int64
	label string
	vs    []vehicle
	winMs float64 // derivation time per window: trace.window_ms
}

// pool derives the workload's vehicles on `clients` goroutines.
func (e *env) pool(label string) (*pool, error) {
	p := &pool{seed: e.seed, label: label, vs: make([]vehicle, poolVehicles)}
	errs := make([]error, poolVehicles)
	busy := make([]time.Duration, poolVehicles)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				id := uint64(rng.SubSeed(e.seed, "perfbench/"+label+"/vehicle", k))
				t0 := time.Now()
				a, b, err := server.SessionWindows(e.sc, e.sys.Cfg, e.seed, id, poolWindows)
				busy[k] = time.Since(t0)
				p.vs[k], errs[k] = vehicle{id: id, alice: a, bob: b}, err
			}
		}()
	}
	for k := 0; k < poolVehicles; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
	var total time.Duration
	for k := range p.vs {
		if errs[k] != nil {
			return nil, errs[k]
		}
		total += busy[k]
	}
	p.winMs = msPer(total, poolVehicles*poolWindows)
	return p, nil
}

// session returns the windows of session i: n windows of vehicle
// i mod 64, in an order drawn from the seed. Windows repeat across a run
// but sessions do not, so key yield averages over many block
// compositions instead of a few dozen.
func (p *pool) session(i, n int) (alice, bob [][]float64) {
	v := p.vs[i%len(p.vs)]
	for _, k := range rng.Stream(p.seed, "perfbench/"+p.label+"/session", i).Perm(poolWindows)[:n] {
		alice = append(alice, v.alice[k])
		bob = append(bob, v.bob[k])
	}
	return alice, bob
}

func (p *pool) windowMs() float64 { return p.winMs }
func (p *pool) windows() int      { return poolVehicles * poolWindows }

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() * 1e3 / float64(n)
}
