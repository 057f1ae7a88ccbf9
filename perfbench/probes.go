package main

// Probes time single layers from outside, through their public
// functions, at the sizes the workload itself produces. They run only
// in traced runs: the goroutine sampler during the measured operations,
// the timed probes after them.

import (
	"runtime"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/sched"
	"repro/internal/wire"
)

// sampleGoroutines samples the goroutine count every 2ms until the
// returned stop function is called, which returns the peak. It samples
// nothing when on is false.
func sampleGoroutines(on bool) func() int {
	if !on {
		return func() int { return 0 }
	}
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		p := runtime.NumGoroutine()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p = max(p, runtime.NumGoroutine())
			case <-stop:
				peak <- max(p, runtime.NumGoroutine())
				return
			}
		}
	}()
	return func() int {
		close(stop)
		return <-peak
	}
}

// probeReps is how many timed batches each probe runs; it reports the
// median batch.
const probeReps = 7

// mpxHopNs times one SendTo→Recv hop on the in-process machine: a
// ping-pong between the two nodes of a 1-cube, half a round trip.
func mpxHopNs() float64 {
	const trips = 5000
	var batches []float64
	msg := mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 1, Data: make([]byte, 64)}}}
	for rep := 0; rep < probeReps; rep++ {
		m := mpx.New(1, 4)
		var d time.Duration
		err := m.Run(func(nd *mpx.Node) error {
			if nd.ID == 0 {
				t0 := time.Now()
				for i := 0; i < trips; i++ {
					nd.SendTo(1, msg)
					nd.Recv()
				}
				d = time.Since(t0)
				return nil
			}
			for i := 0; i < trips; i++ {
				env := nd.Recv()
				nd.SendTo(0, env.Message)
			}
			return nil
		})
		m.Shutdown()
		if err != nil {
			return 0
		}
		batches = append(batches, float64(d.Nanoseconds())/(2*trips))
	}
	return median(batches)
}

// cycleReader serves the same bytes over and over, so a wire.Reader can
// decode one frame repeatedly without a socket.
type cycleReader struct {
	b   []byte
	off int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := copy(p, c.b[c.off:])
	c.off = (c.off + n) % len(c.b)
	return n, nil
}

// wireTimes times the socket path's codec on msg: AppendFrameVec (the
// vectored encoder sends use) and Reader.ReadAnyInto (the read pumps'
// decoder), per frame, in nanoseconds.
func wireTimes(msg mpx.Message) (encNs, decNs float64) {
	reps := max(16, min(20000, (4<<20)/max(1, msg.Size())))
	var blk []byte
	var segs [][]byte
	var enc, dec []float64
	frame := wire.AppendFrameV(nil, wire.Version2, msg)
	rd := wire.NewReader(&cycleReader{b: frame})
	var fr wire.Frame
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			blk, segs = wire.AppendFrameVec(blk[:0], segs[:0], wire.Version2, msg)
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/float64(reps))
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if err := rd.ReadAnyInto(&fr); err != nil {
				return 0, 0
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/float64(reps))
	}
	return median(enc), median(dec)
}

// bulkFrame is the broadcast's tree chunk: 1 MiB over four trees.
const bulkFrame = 256 << 10

// wireMetrics sets the wire layer's metrics for a workload whose data
// frames carry parts parts of partBytes each.
func wireMetrics(res *result, parts, partBytes int) {
	msg := mpx.Message{Tag: 1 << 16}
	for i := 0; i < parts; i++ {
		msg.Parts = append(msg.Parts, mpx.Part{Dest: cube.NodeID(i), Data: payload(partBytes, uint64(i))})
	}
	enc, dec := wireTimes(msg)
	res.metrics["wire.encode_ns_per_frame"] = enc
	res.metrics["wire.decode_ns_per_frame"] = dec
	bulk, _ := wireTimes(mpx.Message{Tag: 1 << 16, Parts: []mpx.Part{{Data: payload(bulkFrame, 7)}}})
	if bulk > 0 {
		res.metrics["wire.encode_mb_s"] = bulkFrame / bulk * 1e9 / 1e6
	}
	res.note("wire probe: %d part(s) of %dB per frame; bulk frame %dB", parts, partBytes, bulkFrame)
}

func payload(n int, key uint64) []byte {
	b := make([]byte, n)
	fill(b, key)
	return b
}

// planSteps is the slot count of the conflict-free all-to-all schedule
// the d-cube's all-node collectives walk.
func planSteps(d int) float64 { return float64(sched.MultiSourcePlan(d).Steps) }
