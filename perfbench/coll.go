package main

// The closed-loop collective engine shared by bcast-bulk and
// alltoall-small: 2^d rank goroutines, each running one communicator,
// driven round by round from a coordinator. A round is an untimed
// barrier, then the timed collective on every rank; the coordinator
// starts the next round only after every rank returned and the outputs
// were checked.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/transport"
)

// collective describes one closed-loop workload.
type collective struct {
	dim     int
	network string // "tcp" or "unix"
	// op is the span name of the timed call, the public comm function.
	op string
	// prepare builds round r's inputs; it runs before the round starts.
	prepare func(round int)
	// call is the timed collective on one rank.
	call func(c *comm.Comm, round int) (any, error)
	// check verifies one rank's output of round r, after every rank of
	// the round returned.
	check func(rank, round int, out any) error
	// bytesPerOp is the payload one operation lands at final
	// destinations.
	bytesPerOp float64
	// xmitsPerOp counts the point-to-point messages the operation's
	// algorithm sends (tree edges), independent of how the transport
	// frames them.
	xmitsPerOp float64
}

// rankReport is one rank's answer to one command.
type rankReport struct {
	rank       int
	entry, ret time.Time
	out        any
	err        error
}

// cmdProfile is the command, sent instead of a round number, that asks a
// rank for its transport's link-cost fit.
const cmdProfile = -1

// rankSet is a running set of rank goroutines.
type rankSet struct {
	n     int
	cmds  []chan int
	done  chan rankReport
	exits chan error
	nexit int
	trs   []*transport.TCP
}

// program returns the rank body: a first barrier (the end of set-up),
// then one command at a time until its command channel closes.
func (rs *rankSet) program(cl *collective, e *env) func(c *comm.Comm) error {
	return func(c *comm.Comm) error {
		me := int(c.Rank())
		if err := c.Barrier(); err != nil {
			rs.done <- rankReport{rank: me, err: err}
			return err
		}
		rs.done <- rankReport{rank: me}
		for round := range rs.cmds[me] {
			if round == cmdProfile {
				p, _ := c.Profile()
				rs.done <- rankReport{rank: me, out: p}
				continue
			}
			if err := c.Barrier(); err != nil {
				rs.done <- rankReport{rank: me, err: err}
				return err
			}
			tr := e.tracerFor(round)
			entry := time.Now()
			out, err := cl.call(c, round)
			ret := time.Now()
			tr.record(cl.op, int64(round)+1, 0, me, entry, ret)
			rs.done <- rankReport{rank: me, entry: entry, ret: ret, out: out, err: err}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func newRankSet(n int) *rankSet {
	rs := &rankSet{n: n, done: make(chan rankReport, n), exits: make(chan error, n)}
	for i := 0; i < n; i++ {
		// One slot: the coordinator never has more than one command
		// outstanding per rank.
		rs.cmds = append(rs.cmds, make(chan int, 1))
	}
	return rs
}

// collect waits for one report from every rank.
func (rs *rankSet) collect() []rankReport {
	out := make([]rankReport, rs.n)
	for i := 0; i < rs.n; i++ {
		r := <-rs.done
		out[r.rank] = r
	}
	return out
}

// startMesh brings up a socket mesh and its ranks: fresh transports,
// dial and handshake, one machine and communicator per rank, and a first
// barrier. It returns once every rank passed that barrier.
func startMesh(cl *collective, e *env) (*rankSet, error) {
	size := 1 << cl.dim
	rs := newRankSet(size)
	peers := make([]string, size)
	for i := 0; i < size; i++ {
		tr, err := transport.NewTCP(transport.TCPOptions{
			Dim: cl.dim, Locals: []cube.NodeID{cube.NodeID(i)},
			Depth: comm.CollectiveDepth(cl.dim), Network: cl.network,
		})
		if err != nil {
			rs.closeTransports()
			return nil, err
		}
		rs.trs = append(rs.trs, tr)
		peers[i] = tr.Addr()
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i, tr := range rs.trs {
		wg.Add(1)
		go func(i int, tr *transport.TCP) {
			defer wg.Done()
			errs[i] = tr.Connect(peers)
		}(i, tr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rs.closeTransports()
			return nil, fmt.Errorf("connecting the mesh: %w", err)
		}
	}
	prog := rs.program(cl, e)
	for _, tr := range rs.trs {
		go func(tr *transport.TCP) {
			rs.exits <- comm.RunOn(mpx.NewWithTransport(tr, nil), prog)
		}(tr)
	}
	rs.nexit = size
	for _, r := range rs.collect() {
		if r.err != nil {
			rs.stop()
			return nil, fmt.Errorf("first barrier: %w", r.err)
		}
	}
	return rs, nil
}

// startInProc runs the same ranks on one in-process machine (comm.Run),
// with no transport underneath.
func startInProc(cl *collective, e *env) (*rankSet, error) {
	rs := newRankSet(1 << cl.dim)
	prog := rs.program(cl, e)
	go func() { rs.exits <- comm.Run(cl.dim, prog) }()
	rs.nexit = 1
	for _, r := range rs.collect() {
		if r.err != nil {
			rs.stop()
			return nil, fmt.Errorf("first barrier: %w", r.err)
		}
	}
	return rs, nil
}

func (rs *rankSet) closeTransports() {
	for _, tr := range rs.trs {
		tr.Close()
	}
}

// stop ends every rank, waits for them and closes the transports.
func (rs *rankSet) stop() error {
	for _, c := range rs.cmds {
		close(c)
	}
	var first error
	for i := 0; i < rs.nexit; i++ {
		if err := <-rs.exits; err != nil && first == nil {
			first = err
		}
	}
	rs.closeTransports()
	return first
}

func (rs *rankSet) stats() mpx.TransportStats {
	var s mpx.TransportStats
	for _, tr := range rs.trs {
		s.Add(tr.Stats())
	}
	return s
}

// profile asks every rank for its transport's link-cost fit and returns
// the median τ and t_c over the ranks whose fit has settled.
func (rs *rankSet) profile() (tau, tc float64, ok bool) {
	for _, c := range rs.cmds {
		c <- cmdProfile
	}
	var taus, tcs []float64
	for _, r := range rs.collect() {
		if p, _ := r.out.(mpx.LinkProfile); p.Valid() {
			taus = append(taus, p.Tau)
			tcs = append(tcs, p.Tc)
		}
	}
	if len(taus) == 0 {
		return 0, 0, false
	}
	return median(taus), median(tcs), true
}

// loopStats is what a run of rounds measured.
type loopStats struct {
	rounds, failed int
	checkErr       error
	latency        []float64 // seconds, first entry → last return
	tracedLat      []float64 // the latencies of traced rounds
	untracedLat    []float64
	calls          []float64 // every rank's time in the call
}

// runRounds runs whole rounds until the deadline passes, or until a
// round fails (the mesh is then unusable).
func (cl *collective) runRounds(e *env, rs *rankSet, deadline time.Time, maxRounds int) loopStats {
	var ls loopStats
	for round := 0; time.Now().Before(deadline) && round < maxRounds; round++ {
		cl.prepare(round)
		tr := e.tracerFor(round)
		e.progress.attempted.Add(1)
		for _, c := range rs.cmds {
			c <- round
		}
		reps := rs.collect()
		ls.rounds++
		var firstIn, lastOut time.Time
		var err error
		for i, r := range reps {
			if r.err != nil && err == nil {
				err = r.err
			}
			if i == 0 || r.entry.Before(firstIn) {
				firstIn = r.entry
			}
			if i == 0 || r.ret.After(lastOut) {
				lastOut = r.ret
			}
		}
		if err != nil {
			ls.failed++
			e.progress.failed.Add(1)
			e.progress.done.Add(1)
			if ls.checkErr == nil {
				ls.checkErr = fmt.Errorf("round %d: %w", round, err)
			}
			return ls
		}
		tr.record("bench.op", int64(round)+1, 0, -1, firstIn, lastOut)
		lat := lastOut.Sub(firstIn).Seconds()
		ls.latency = append(ls.latency, lat)
		if tr != nil {
			ls.tracedLat = append(ls.tracedLat, lat)
		} else {
			ls.untracedLat = append(ls.untracedLat, lat)
		}
		for _, r := range reps {
			ls.calls = append(ls.calls, r.ret.Sub(r.entry).Seconds())
			if cerr := cl.check(r.rank, round, r.out); cerr != nil && ls.checkErr == nil {
				ls.checkErr = cerr
			}
		}
		e.progress.done.Add(1)
	}
	return ls
}

// setupRepeats is how many times a socket workload brings its mesh up;
// setup_s is the median (one bring-up varies several-fold).
const setupRepeats = 31

// bringUp starts an instance setupRepeats times, each after a forced
// collection, tearing all but the last down again. It returns the last
// instance and every start's duration in seconds.
func bringUp[T any](start func() (T, error), stop func(T) error) (T, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		runtime.GC() // no collection left over from the last bring-up
		t0 := time.Now()
		x, err := start()
		if err != nil {
			return x, nil, fmt.Errorf("bring-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return x, setups, nil
		}
		if err := stop(x); err != nil {
			return x, nil, fmt.Errorf("bring-up %d: teardown: %w", i, err)
		}
	}
}

// measureCollective runs a closed-loop workload end to end: repeated
// bring-ups for setup_s, then rounds for the run's seconds on the last
// mesh, then (traced runs) the in-process twin and the link-cost fit.
func measureCollective(cl *collective, e *env, res *result) error {
	rs, setups, err := bringUp(func() (*rankSet, error) { return startMesh(cl, e) }, (*rankSet).stop)
	if err != nil {
		return err
	}
	res.metrics["setup_s"] = median(setups)

	st0 := rs.stats()
	rt0 := readRuntime()
	stopPeak := sampleGoroutines(e.traced)
	t0 := time.Now()
	ls := cl.runRounds(e, rs, t0.Add(time.Duration(e.seconds*float64(time.Second))), 1<<30)
	wall := time.Since(t0).Seconds()
	peakG := stopPeak()
	rt1 := readRuntime()
	st1 := rs.stats()
	tau, tc, profOK := 0.0, 0.0, false
	if ls.failed == 0 {
		tau, tc, profOK = rs.profile()
	}
	stopErr := rs.stop()

	res.attempted, res.failed = ls.rounds, ls.failed
	if ls.checkErr != nil {
		res.note("FAILED: %v", ls.checkErr)
		if ls.failed == 0 {
			res.correct = false
		}
	}
	if stopErr != nil && ls.failed == 0 {
		return fmt.Errorf("teardown: %w", stopErr)
	}
	if len(ls.latency) == 0 {
		return fmt.Errorf("no round completed")
	}
	n := len(ls.latency)
	if err := opMetrics(res, ls.latency, constants(n, cl.bytesPerOp), constants(n, cl.xmitsPerOp), 1); err != nil {
		return err
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.note("%d rounds in %.2fs; setup median of %d bring-ups %.2fms (min %.2f, max %.2f)",
		ls.rounds, wall, len(setups), 1e3*median(setups), 1e3*slices.Min(setups), 1e3*slices.Max(setups))

	if !e.traced {
		return nil
	}
	d := runtimeDelta(rt0, rt1)
	calls := float64(len(ls.latency) * rs.n)
	res.metrics["comm.call_p50_us"] = 1e6 * median(e.tr.durations(cl.op))
	res.metrics["comm.skew_p50_us"] = 1e6 * median(skewsFromSpans(e.tr, cl.op))
	res.metrics["comm.allocs_per_call"] = d.allocObjects / calls
	delivered := float64(st1.PayloadDelivered - st0.PayloadDelivered)
	res.metrics["transport.frames_per_op"] = float64(st1.FramesSent-st0.FramesSent) / float64(ls.rounds)
	if recv := float64(st1.FramesReceived - st0.FramesReceived); recv > 0 {
		res.metrics["transport.payload_bytes_per_frame"] = delivered / recv
	}
	if delivered > 0 {
		res.metrics["transport.wire_bytes_per_payload_byte"] = float64(st1.BytesSent-st0.BytesSent) / delivered
	}
	if profOK {
		res.metrics["transport.tau_us"] = tau * 1e6
		res.metrics["transport.tc_ns_per_byte"] = tc * 1e9
	} else {
		res.note("transport link-cost fit did not settle")
	}
	runtimeMetrics(res, d, wall, peakG)
	overhead(res, ls.tracedLat, ls.untracedLat)

	inproc, err := inprocCallP50(cl, e)
	if err != nil {
		return fmt.Errorf("in-process twin: %w", err)
	}
	res.metrics["comm.inproc_call_p50_us"] = 1e6 * inproc
	res.metrics["mpx.hop_ns"] = mpxHopNs()
	return nil
}

// skewsFromSpans returns, per traced operation, the last rank's return
// minus the first rank's return.
func skewsFromSpans(t *tracer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := map[int64]int64{}
	last := map[int64]int64{}
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if f, ok := first[s.Op]; !ok || s.End < f {
			first[s.Op] = s.End
		}
		if l, ok := last[s.Op]; !ok || s.End > l {
			last[s.Op] = s.End
		}
	}
	var out []float64
	for op, f := range first {
		out = append(out, float64(last[op]-f)/1e9)
	}
	return out
}

// inprocRounds is how many rounds the in-process twin runs.
const inprocRounds = 200

// inprocCallP50 runs the workload's collective on comm.Run — the same
// ranks and inputs, no sockets — and returns the median time a rank
// spends in the call, in seconds.
func inprocCallP50(cl *collective, e *env) (float64, error) {
	twin := &env{seed: e.seed} // untraced, with its own progress counts
	rs, err := startInProc(cl, twin)
	if err != nil {
		return 0, err
	}
	ls := cl.runRounds(twin, rs, time.Now().Add(5*time.Second), inprocRounds)
	if err := rs.stop(); err != nil {
		return 0, err
	}
	if ls.checkErr != nil {
		return 0, ls.checkErr
	}
	return median(ls.calls), nil
}

// Operations are summarised per window: a run's operations, in order,
// split into windowCount consecutive windows, and each end-to-end figure
// is the median over the windows. A burst of host noise shorter than
// half the run then moves the figure by one window at most.
const (
	windowCount  = 10
	minWindowOps = 100 // so that a window's p90 has ten samples beyond it
)

// windowBounds returns the size and count of the windows for n
// operations: equal windows of a whole number of unit-operation groups,
// at least minWindowOps each when the run allows; one window of all n
// otherwise. Operations past the last window are left out.
func windowBounds(n, unit int) (size, count int) {
	count = min(windowCount, n/minWindowOps)
	if count > 1 {
		if size = n / count / unit * unit; size > 0 {
			return size, count
		}
	}
	return n, 1
}

// opMetrics sets latency_p50_ms, latency_p90_ms, goodput_mb_s and
// xmits_per_s from per-operation latencies (seconds), payload bytes at
// final destinations and transmissions, in operation order; unit is the
// group of operations a window keeps whole (a sweep, a job rotation).
func opMetrics(res *result, lat, bytes, xmits []float64, unit int) error {
	size, count := windowBounds(len(lat), unit)
	var p50s, p90s, goods, rates []float64
	for w := 0; w < count; w++ {
		lo, hi := w*size, (w+1)*size
		s := sortedCopy(lat[lo:hi])
		p50, err := quantile(s, 0.5)
		if err != nil {
			return err
		}
		p90, err := quantile(s, 0.9)
		if err != nil {
			return fmt.Errorf("latency_p90_ms: %w", err)
		}
		t := sum(lat[lo:hi])
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		goods = append(goods, sum(bytes[lo:hi])/t/1e6)
		rates = append(rates, sum(xmits[lo:hi])/t)
	}
	res.metrics["latency_p50_ms"] = 1e3 * median(p50s)
	res.metrics["latency_p90_ms"] = 1e3 * median(p90s)
	res.metrics["goodput_mb_s"] = median(goods)
	res.metrics["xmits_per_s"] = median(rates)
	all := sortedCopy(lat)
	line := fmt.Sprintf("latency over %d operations in %d windows of %d: window medians p50 %.3fms p90 %.3fms",
		len(lat), count, size, res.metrics["latency_p50_ms"], res.metrics["latency_p90_ms"])
	if q, v, ok := tail(all); ok {
		line += fmt.Sprintf("; whole run p%g %.3fms (not gated)", 100*q, 1e3*v)
	}
	res.note("%s", line)
	return nil
}

// constants returns n copies of v.
func constants(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// runtimeMetrics sets the Go runtime's per-layer metrics.
func runtimeMetrics(res *result, d rtDelta, wall float64, peakG int) {
	res.metrics["runtime.gc_cpu_fraction"] = d.gcCPUFraction
	res.metrics["runtime.alloc_mb_per_s"] = d.allocBytes / wall / 1e6
	res.metrics["runtime.sched_latency_p50_us"] = d.schedP50s * 1e6
	res.metrics["runtime.sched_latency_p99_us"] = d.schedP99 * 1e6
	res.metrics["runtime.goroutines_peak"] = float64(peakG)
}

// overhead sets trace.overhead_pct: the traced operations' median
// latency over the untraced ones' in the same run, minus one.
func overhead(res *result, traced, untraced []float64) {
	if len(traced) == 0 || len(untraced) == 0 {
		return
	}
	t, u := median(traced), median(untraced)
	res.metrics["trace.overhead_pct"] = 100 * (t/u - 1)
	res.note("tracing overhead: traced p50 %.4gms vs untraced p50 %.4gms (%+.2f%%) over %d+%d operations",
		1e3*t, 1e3*u, 100*(t/u-1), len(traced), len(untraced))
}
