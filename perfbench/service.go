package main

// service-mix: the svc job service under an open loop.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/svc"
)

const (
	// svcRate is the one offered rate, in jobs/s: about a fifth of what
	// the d=4 Unix-socket service completes on a 2-CPU host, so the
	// queue stays short and latency measures the service, not a backlog.
	svcRate    = 300.0
	svcTenants = 4
)

// Job kinds, rotating like comm.MixedJobSpec.
const (
	jobBcast = iota
	jobScatter
	jobAllReduce
	numJobKinds
)

var jobKindName = [numJobKinds]string{"comm.Bcast", "comm.Scatter", "comm.AllReduce"}

// svcJob is one job of the mix: its inputs and, per rank, when the
// collective started and ended (ns since the run's base time) and what
// its check said.
type svcJob struct {
	tenant int
	kind   int
	root   cube.NodeID
	bytes  int
	key    uint64
	input  []byte   // bcast: the root's payload
	parts  [][]byte // scatter: the root's per-destination payloads

	start, end [1 << meshDim]int64
	bad        [1 << meshDim]error
	left       atomic.Int32
}

// makeJobs draws the seeded job mix: bcast, scatter and allreduce in
// rotation over four tenants, roots uniform over the ranks, payloads of
// 64..646 bytes in steps of 97 (comm.MixedJobSpec's sizes).
func makeJobs(seed int64, n int) []*svcJob {
	size := 1 << meshDim
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*svcJob, n)
	for i := range jobs {
		j := &svcJob{
			tenant: 1 + i%svcTenants, kind: i % numJobKinds,
			root: cube.NodeID(rng.Intn(size)), bytes: 64 + rng.Intn(7)*97, key: rng.Uint64(),
		}
		switch j.kind {
		case jobBcast:
			j.input = payload(j.bytes, j.key)
		case jobScatter:
			j.parts = make([][]byte, size)
			for d := range j.parts {
				j.parts[d] = payload(j.bytes, mix(j.key, uint64(d)))
			}
		}
		j.left.Store(int32(size))
		jobs[i] = j
	}
	return jobs
}

// collective runs the job's collective on one rank.
func (j *svcJob) collective(c *comm.Comm) ([]byte, error) {
	me := c.Rank()
	switch j.kind {
	case jobBcast:
		var in []byte
		if me == j.root {
			in = j.input
		}
		return c.Bcast(j.root, in)
	case jobScatter:
		var in [][]byte
		if me == j.root {
			in = j.parts
		}
		return c.Scatter(j.root, in)
	default:
		mine := make([]byte, 8)
		binary.LittleEndian.PutUint64(mine, contribution(j.key, int(me)))
		return c.AllReduce(mine, func(a, b []byte) []byte {
			binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
			return a
		})
	}
}

// check verifies one rank's output against the benchmark's own
// regeneration: payloads from the job's key, the allreduce sum in
// closed form.
func (j *svcJob) check(rank int, out []byte) error {
	var want []byte
	switch j.kind {
	case jobBcast:
		want = payload(j.bytes, j.key)
	case jobScatter:
		want = payload(j.bytes, mix(j.key, uint64(rank)))
	default:
		return checkAllReduce(out, j.key, 1<<meshDim, rank)
	}
	if i := firstDiff(out, want); i >= 0 {
		return fmt.Errorf("%s job (root %d, %dB): rank %d: first mismatch at byte %d of %d",
			jobKindName[j.kind], j.root, j.bytes, rank, i, len(out))
	}
	return nil
}

// usefulBytes is the payload the job lands at final destinations.
func (j *svcJob) usefulBytes() float64 {
	n := float64(1<<meshDim - 1)
	if j.kind == jobAllReduce {
		return n * 8
	}
	return n * float64(j.bytes)
}

// xmits counts the messages the job's algorithm sends: one per
// spanning-tree edge for bcast (SBT) and scatter (BST), one per rank and
// dimension for the dimension-exchange allreduce.
func (j *svcJob) xmits() float64 {
	if j.kind == jobAllReduce {
		return float64(meshDim << meshDim)
	}
	return float64(1<<meshDim - 1)
}

// svcRun is one open-loop run over a cluster. The job programs reach
// their job through run.jobs[i], so dropping the slice frees every
// input even while the service still references the programs.
type svcRun struct {
	e    *env
	base time.Time
	jobs []*svcJob
}

func (r *svcRun) program(i int) svc.Program {
	return comm.Job(func(c *comm.Comm) error {
		j := r.jobs[i]
		me := int(c.Rank())
		t0 := time.Now()
		out, err := j.collective(c)
		t1 := time.Now()
		j.start[me], j.end[me] = t0.Sub(r.base).Nanoseconds(), t1.Sub(r.base).Nanoseconds()
		r.e.tracerFor(i).record(jobKindName[j.kind], int64(i)+1, 0, me, t0, t1)
		if err != nil {
			return err
		}
		j.bad[me] = j.check(me, out)
		if j.left.Add(-1) == 0 {
			r.e.progress.done.Add(1)
		}
		return nil
	})
}

// startService brings the service up once: 16 Unix-socket endpoints,
// one svc runtime each, and a first barrier job through all of them.
func startService() (*comm.Cluster, error) {
	cl, err := comm.StartCluster(meshDim, svc.Options{TenantQueue: -1}, comm.TCPRunOptions{Network: "unix"})
	if err != nil {
		return nil, err
	}
	h, err := cl.Submit(1, comm.Job(func(c *comm.Comm) error { return c.Barrier() }))
	if err == nil {
		err = h.Wait()
	}
	if err != nil {
		cl.Drain()
		return nil, fmt.Errorf("first barrier job: %w", err)
	}
	return cl, nil
}

func runServiceMix(e *env) (*result, error) {
	res := newResult()
	cl, setups, err := bringUp(startService, (*comm.Cluster).Drain)
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(setups)

	// The run is sized by job count: the offered rate times the run's
	// seconds, the same count on every seed.
	n := int(svcRate * e.seconds)
	var heap0 uint64
	if e.traced {
		heap0 = liveHeap()
	}
	run := &svcRun{e: e, jobs: makeJobs(e.seed, n)}
	jobs := run.jobs
	e.progress.attempted.Store(int64(n))

	st0 := cl.Stats()
	rt0 := readRuntime()
	stopPeak := sampleGoroutines(e.traced)
	handles := make([]*comm.ClusterHandle, n)
	late := make([]float64, n)
	submitErrs := 0
	run.base = time.Now().Add(10 * time.Millisecond)
	for i := range jobs {
		due := run.base.Add(time.Duration(float64(i) / svcRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		h, err := cl.Submit(jobs[i].tenant, run.program(i))
		t1 := time.Now()
		e.tracerFor(i).record("svc.Submit", int64(i)+1, 0, -1, t0, t1)
		late[i] = t0.Sub(due).Seconds()
		if err != nil {
			submitErrs++
			res.note("FAILED: submitting job %d: %v", i, err)
			continue
		}
		handles[i] = h
	}
	var firstErr error
	failed := submitErrs
	for i, h := range handles {
		if h == nil {
			continue
		}
		if err := h.Wait(); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("job %d: %w", i, err)
			}
		}
		handles[i] = nil
	}
	wall := time.Since(run.base).Seconds()
	peakG := stopPeak()
	rt1 := readRuntime()
	st1 := cl.Stats()
	e.progress.failed.Store(int64(failed))
	if firstErr != nil {
		res.note("FAILED: %v", firstErr)
	}

	var tau, tc float64
	if e.traced {
		tau, tc = serviceProfile(cl)
	}

	// Condense the per-rank records, then release them.
	var lat, useful, xmits []float64
	for i, j := range jobs {
		if j.left.Load() != 0 {
			continue // failed
		}
		due := float64(i) / svcRate
		first, last := j.start[0], j.end[0]
		for r := range j.start {
			first, last = min(first, j.start[r]), max(last, j.end[r])
			if j.bad[r] != nil && res.correct {
				res.correct = false
				res.note("FAILED check: job %d: %v", i, j.bad[r])
			}
		}
		lat = append(lat, float64(last)/1e9-due)
		useful = append(useful, j.usefulBytes())
		xmits = append(xmits, j.xmits())
		if tr := e.tracerFor(i); tr != nil {
			at := func(ns int64) time.Time { return run.base.Add(time.Duration(ns)) }
			dueAt := at(int64(due * 1e9))
			id := tr.record("bench.op", int64(i)+1, 0, -1, dueAt, at(last))
			tr.record("svc.queue", int64(i)+1, id, -1, dueAt, at(first))
			tr.record("svc.run", int64(i)+1, id, -1, at(first), at(last))
		}
	}
	var inproc float64
	if e.traced {
		if inproc, err = inprocCallP50(jobTwin(run), e); err != nil {
			return nil, fmt.Errorf("in-process twin: %w", err)
		}
	}
	run.jobs, jobs = nil, nil
	var heap1 uint64
	if e.traced {
		heap1 = liveHeap()
	}
	if err := cl.Drain(); err != nil && failed == 0 {
		return nil, fmt.Errorf("drain: %w", err)
	}

	res.attempted, res.failed = n, failed
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	// Windows keep whole rotations of job kind and tenant.
	if err := opMetrics(res, lat, useful, xmits, numJobKinds*svcTenants); err != nil {
		return nil, err
	}
	frames := float64(st1.FramesSent - st0.FramesSent)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	sl := sortedCopy(late)
	lateP99, _ := quantile(sl, 0.99)
	res.note("%d jobs offered at %.0f/s over %.2fs; generator late p50 %.3fms p99 %.3fms max %.3fms",
		n, svcRate, wall, 1e3*median(late), 1e3*lateP99, 1e3*sl[len(sl)-1])
	res.note("setup median of %d bring-ups %.2fms (min %.2f, max %.2f)",
		len(setups), 1e3*median(setups), 1e3*slices.Min(setups), 1e3*slices.Max(setups))
	if !e.traced {
		return res, nil
	}

	d := runtimeDelta(rt0, rt1)
	var calls, skew []float64
	for _, name := range jobKindName {
		calls = append(calls, e.tr.durations(name)...)
		skew = append(skew, skewsFromSpans(e.tr, name)...)
	}
	res.metrics["comm.call_p50_us"] = 1e6 * median(calls)
	res.metrics["comm.skew_p50_us"] = 1e6 * median(skew)
	res.metrics["comm.allocs_per_call"] = d.allocObjects / float64(n<<meshDim)
	res.metrics["comm.inproc_call_p50_us"] = 1e6 * inproc
	delivered := float64(st1.PayloadDelivered - st0.PayloadDelivered)
	res.metrics["transport.frames_per_op"] = frames / float64(n)
	pbpf := 0.0
	if recv := float64(st1.FramesReceived - st0.FramesReceived); recv > 0 {
		pbpf = delivered / recv
		res.metrics["transport.payload_bytes_per_frame"] = pbpf
	}
	if delivered > 0 {
		res.metrics["transport.wire_bytes_per_payload_byte"] = float64(st1.BytesSent-st0.BytesSent) / delivered
	}
	res.metrics["transport.tau_us"] = tau * 1e6
	res.metrics["transport.tc_ns_per_byte"] = tc * 1e9
	wireMetrics(res, 1, max(1, int(pbpf+0.5)))
	res.metrics["mpx.hop_ns"] = mpxHopNs()
	queue := e.tr.durations("svc.queue")
	sq := sortedCopy(queue)
	res.metrics["svc.queue_wait_p50_ms"] = 1e3 * median(queue)
	if v, err := quantile(sq, 0.9); err == nil {
		res.metrics["svc.queue_wait_p90_ms"] = 1e3 * v
	}
	res.metrics["svc.run_p50_ms"] = 1e3 * median(e.tr.durations("svc.run"))
	res.metrics["svc.submit_us"] = 1e6 * median(e.tr.durations("svc.Submit"))
	res.metrics["svc.retained_kb_per_job"] = (float64(heap1) - float64(heap0)) / float64(n) / 1e3
	res.metrics["load.late_p99_ms"] = 1e3 * lateP99
	res.metrics["load.late_max_ms"] = 1e3 * sl[len(sl)-1]
	runtimeMetrics(res, d, wall, peakG)
	var tLat, uLat []float64
	for i, l := range lat {
		if e.tracerFor(i) != nil {
			tLat = append(tLat, l)
		} else {
			uLat = append(uLat, l)
		}
	}
	overhead(res, tLat, uLat)
	res.note("live heap %.1fMB before the jobs, %.1fMB after %d (service still up)", float64(heap0)/1e6, float64(heap1)/1e6, n)
	return res, nil
}

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// serviceProfile reads every rank's link-cost fit through Comm.Profile
// inside one more job and returns the median τ and t_c, in seconds.
func serviceProfile(cl *comm.Cluster) (tau, tc float64) {
	var profs [1 << meshDim]mpx.LinkProfile
	h, err := cl.Submit(1, comm.Job(func(c *comm.Comm) error {
		profs[c.Rank()], _ = c.Profile()
		return nil
	}))
	if err != nil || h.Wait() != nil {
		return 0, 0
	}
	var taus, tcs []float64
	for _, p := range profs {
		if p.Valid() {
			taus = append(taus, p.Tau)
			tcs = append(tcs, p.Tc)
		}
	}
	return median(taus), median(tcs)
}

// twinJobs is how many of the mix's jobs the in-process twin replays.
const twinJobs = 300

// jobTwin replays the mix's first jobs, one at a time, on comm.Run: the
// same collectives and sizes with neither sockets nor svc underneath.
func jobTwin(run *svcRun) *collective {
	jobs := run.jobs[:min(twinJobs, len(run.jobs))]
	return &collective{
		dim: meshDim, op: "twin",
		prepare: func(int) {},
		call: func(c *comm.Comm, round int) (any, error) {
			return jobs[round%len(jobs)].collective(c)
		},
		check: func(rank, round int, out any) error {
			got, _ := out.([]byte)
			return jobs[round%len(jobs)].check(rank, got)
		},
	}
}
