package main

// paper-sim: the core that reproduces the paper — tree construction,
// schedule emission and the discrete-event engine — with no sockets, no
// svc and no rank goroutines.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bst"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/msbt"
	"repro/internal/sbt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The simulated machine: the paper's iPSC constants in milliseconds
// (internal/exp.IPSC) with unbounded internal packets, so one packet of
// B elements costs exactly τ + B·t_c as in the closed forms.
const (
	simDim = 8
	simTau = 1.0
	simTc  = 0.001
)

var simPort = model.OneSendAndRecv

// simPoint is one point of the sweep.
type simPoint struct {
	alg     model.Algorithm
	scatter bool
	order   sched.Order // scatter only
	dim     int
	M, B    float64 // elements per destination, max packet size
	src     cube.NodeID
}

func (p simPoint) String() string {
	op := "bcast"
	if p.scatter {
		op = "scatter"
	}
	return fmt.Sprintf("%v %s d=%d M=%g B=%g src=%d", p.alg, op, p.dim, p.M, p.B, p.src)
}

func (p simPoint) params() model.Params {
	return model.Params{N: p.dim, M: p.M, B: p.B, Tau: simTau, Tc: simTc}
}

// modelTime is the paper's closed form for the point.
func (p simPoint) modelTime() float64 {
	if p.scatter {
		return model.ScatterTime(p.alg, simPort, p.params())
	}
	return model.BroadcastTime(p.alg, simPort, p.params())
}

func (p simPoint) config() sim.Config {
	return sim.Config{Dim: p.dim, Model: simPort, Tau: simTau, Tc: simTc}
}

// schedule emits the point's transmissions: core.BroadcastSchedule for
// broadcasts; the algorithm's core topology and sched.ScatterTree (what
// core.SimScatter runs) for scatters.
func (p simPoint) schedule() ([]sim.Xmit, error) {
	if !p.scatter {
		return core.BroadcastSchedule(p.alg, p.src, p.M, p.B, p.config())
	}
	topo, err := core.TopologyFor(p.alg, p.dim, p.src)
	if err != nil {
		return nil, err
	}
	t, err := topo.Tree()
	if err != nil {
		return nil, err
	}
	return sched.ScatterTree(t, p.M, p.B, p.order, sched.RoundRobin)
}

// sweep is the fixed point mix: Figure 5's SBT broadcast against MSBT
// at several packet sizes, and Figure 8's SBT against BST scatter, on
// the one-port full-duplex d=8 machine. Every packet size is at most
// the per-destination size, where the closed forms are exact.
func sweep() []simPoint {
	return []simPoint{
		{alg: model.SBT, M: 64 << 10, B: 256},
		{alg: model.MSBT, M: 64 << 10, B: 256},
		{alg: model.SBT, M: 64 << 10, B: 1024},
		{alg: model.MSBT, M: 64 << 10, B: 1024},
		{alg: model.SBT, scatter: true, order: sched.OrderDescending, M: 4 << 10, B: 256},
		{alg: model.BST, scatter: true, order: sched.OrderDF, M: 4 << 10, B: 256},
		{alg: model.BST, scatter: true, order: sched.OrderDF, M: 4 << 10, B: 1024},
	}
}

// buildTrees is paper-sim's set-up: construct and validate the d=8
// SBT, BST and MSBT trees from their parent functions, uncached.
func buildTrees(s cube.NodeID) error {
	if _, err := sbt.New(simDim, s); err != nil {
		return err
	}
	if _, err := bst.New(simDim, s); err != nil {
		return err
	}
	_, err := msbt.Trees(simDim, s)
	return err
}

// simSetupRepeats is how many times paper-sim builds its trees; setup_s
// is the median, since one build takes well under a millisecond.
const simSetupRepeats = 41

func runPaperSim(e *env) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(e.seed))
	var setups []float64
	for i := 0; i < simSetupRepeats; i++ {
		runtime.GC() // no collection left over from the last build
		t0 := time.Now()
		if err := buildTrees(cube.NodeID(rng.Intn(1 << simDim))); err != nil {
			return nil, fmt.Errorf("building trees: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.metrics["setup_s"] = median(setups)

	pts := sweep()
	var lat, tracedLat, untracedLat, runT, eff []float64
	perPoint := make([][]float64, len(pts))
	var xmits, useful []float64
	var schedAlloc, tracedXmits float64
	rt0 := readRuntime()
	stopPeak := sampleGoroutines(e.traced)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(e.seconds * float64(time.Second)))
	op := 0
	for time.Now().Before(deadline) {
		// One whole sweep per round, in a seeded order from seeded
		// sources; by the cube's symmetry the work is the same.
		for _, k := range rng.Perm(len(pts)) {
			p := pts[k]
			p.dim = simDim
			p.src = cube.NodeID(rng.Intn(1 << simDim))
			tr := e.tracerFor(op)
			e.progress.attempted.Add(1)
			var a0 rtSnap
			if tr != nil {
				a0 = readRuntime()
			}
			s0 := time.Now()
			xs, err := p.schedule()
			s1 := time.Now()
			var r *sim.Result
			if err == nil {
				r, err = sim.Run(p.config(), xs)
			}
			s2 := time.Now()
			if err != nil {
				if res.failed == 0 {
					res.note("FAILED: %s: %v", p, err)
				}
				res.failed++
				e.progress.failed.Add(1)
				e.progress.done.Add(1)
				op++
				continue
			}
			if tr != nil {
				a1 := readRuntime()
				id := tr.record("bench.op", int64(op)+1, 0, -1, s0, s2)
				tr.record("core.schedule", int64(op)+1, id, -1, s0, s1)
				tr.record("sim.Run", int64(op)+1, id, -1, s1, s2)
				schedAlloc += runtimeDelta(a0, a1).allocBytes
				tracedXmits += float64(len(xs))
				runT = append(runT, s2.Sub(s1).Seconds())
			}
			l := s2.Sub(s0).Seconds()
			lat = append(lat, l)
			perPoint[k] = append(perPoint[k], l)
			if tr != nil {
				tracedLat = append(tracedLat, l)
			} else {
				untracedLat = append(untracedLat, l)
			}
			xmits = append(xmits, float64(len(xs)))
			useful = append(useful, float64(int(1)<<simDim-1)*p.M)
			if err := checkSimPoint(p, r.Makespan, r.Delivered, len(xs)); err != nil && res.correct {
				res.correct = false
				res.note("FAILED check: %v", err)
			}
			eff = append(eff, p.modelTime()/r.Makespan)
			e.progress.done.Add(1)
			op++
		}
	}
	wall := time.Since(t0).Seconds()
	peakG := stopPeak()
	rt1 := readRuntime()

	res.attempted = op
	// Windows keep whole sweeps, so each holds the same point mix.
	if err := opMetrics(res, lat, useful, xmits, len(pts)); err != nil {
		return nil, err
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	for k, p := range pts {
		p.dim = simDim
		res.note("point %v: median %.3fms over %d runs", p, 1e3*median(perPoint[k]), len(perPoint[k]))
	}
	res.note("%d points (%d sweeps of %d) in %.2fs; %.0f transmissions; setup median %.3fms",
		op, op/len(pts), len(pts), wall, sum(xmits), 1e3*median(setups))
	if !e.traced {
		return res, nil
	}
	res.metrics["core.schedule_ms_per_point"] = 1e3 * median(e.tr.durations("core.schedule"))
	res.metrics["core.alloc_bytes_per_xmit"] = schedAlloc / tracedXmits
	res.metrics["sim.run_ms_per_point"] = 1e3 * median(e.tr.durations("sim.Run"))
	res.metrics["sim.engine_xmits_per_s"] = tracedXmits / sum(runT)
	res.metrics["model.efficiency"] = median(eff)
	runtimeMetrics(res, runtimeDelta(rt0, rt1), wall, peakG)
	overhead(res, tracedLat, untracedLat)
	return res, nil
}
