package main

// bcast-bulk and alltoall-small: the two closed-loop socket workloads.

import (
	"repro/internal/comm"
	"repro/internal/cube"
	"repro/internal/model"
)

const (
	meshDim    = 4       // 16 ranks
	bcastBytes = 1 << 20 // one MSBT broadcast: four 256 KiB tree chunks
	a2aBytes   = 256     // one all-to-all packet
)

// runBcastBulk: Comm.BcastMSBT of 1 MiB over loopback TCP, the root
// rotating over every rank from a seeded start. Bytes dominate: the
// per-byte work of the transport and wire layers (copies, CRC, writev)
// takes most of the time.
func runBcastBulk(e *env) (*result, error) {
	size := 1 << meshDim
	first := int(mix(uint64(e.seed)) % uint64(size))
	root := func(round int) cube.NodeID { return cube.NodeID((first + round) % size) }
	var in [2][]byte
	for i := range in {
		in[i] = make([]byte, bcastBytes)
	}
	want := make([]byte, bcastBytes)
	wantRound := -1
	cl := &collective{
		dim: meshDim, network: "tcp", op: "comm.BcastMSBT",
		prepare: func(round int) { fill(in[round%2], bcastKey(e.seed, round)) },
		call: func(c *comm.Comm, round int) (any, error) {
			var data []byte
			if c.Rank() == root(round) {
				data = in[round%2]
			}
			return c.BcastMSBT(root(round), data)
		},
		check: func(rank, round int, out any) error {
			if wantRound != round {
				fill(want, bcastKey(e.seed, round))
				wantRound = round
			}
			got, _ := out.([]byte)
			return checkBcast(got, want, round, rank)
		},
		bytesPerOp: float64((size - 1) * bcastBytes),
		// One chunk down each of the n spanning trees.
		xmitsPerOp: float64(meshDim * (size - 1)),
	}
	res := newResult()
	if err := measureCollective(cl, e, res); err != nil {
		return nil, err
	}
	if e.traced {
		wireMetrics(res, 1, bcastBytes/meshDim)
		modelEfficiency(res, model.BroadcastTime(model.MSBT, model.AllPorts, model.Params{
			N: meshDim, M: bcastBytes, B: bcastBytes / meshDim,
			Tau: res.metrics["transport.tau_us"] / 1e6, Tc: res.metrics["transport.tc_ns_per_byte"] / 1e9,
		}))
	}
	return res, nil
}

// runAllToAllSmall: Comm.AllToAll of 256-byte packets between every
// pair of 16 ranks over Unix-domain sockets. 240 pairs a round and
// negligible bytes make it bound by start-up cost: per-frame work, tree
// routing, the multi-source schedule and goroutine wake-ups.
func runAllToAllSmall(e *env) (*result, error) {
	size := 1 << meshDim
	var in [2][][][]byte // parity, source, destination
	for p := range in {
		in[p] = make([][][]byte, size)
		for s := range in[p] {
			in[p][s] = make([][]byte, size)
			for d := range in[p][s] {
				in[p][s][d] = make([]byte, a2aBytes)
			}
		}
	}
	scratch := make([]byte, a2aBytes)
	cl := &collective{
		dim: meshDim, network: "unix", op: "comm.AllToAll",
		prepare: func(round int) {
			for s, row := range in[round%2] {
				for d, p := range row {
					a2aPacket(p, e.seed, s, d, round)
				}
			}
		},
		call: func(c *comm.Comm, round int) (any, error) {
			return c.AllToAll(in[round%2][c.Rank()])
		},
		check: func(rank, round int, out any) error {
			got, _ := out.([][]byte)
			return checkAllToAll(got, scratch, e.seed, rank, round)
		},
		bytesPerOp: float64(size * (size - 1) * a2aBytes),
		// One bundle down each edge of N balanced spanning trees.
		xmitsPerOp: float64(size * (size - 1)),
	}
	res := newResult()
	if err := measureCollective(cl, e, res); err != nil {
		return nil, err
	}
	if e.traced {
		parts := max(1, int(res.metrics["transport.payload_bytes_per_frame"]/a2aBytes+0.5))
		wireMetrics(res, parts, a2aBytes)
		res.metrics["sched.plan_steps"] = planSteps(meshDim)
		// One BST scatter per source, all-port, one message per subtree:
		// the single-source time, a lower bound for N concurrent ones.
		modelEfficiency(res, model.ScatterTime(model.BST, model.AllPorts, model.Params{
			N: meshDim, M: a2aBytes, B: float64(size * a2aBytes),
			Tau: res.metrics["transport.tau_us"] / 1e6, Tc: res.metrics["transport.tc_ns_per_byte"] / 1e9,
		}))
	}
	return res, nil
}

// modelEfficiency sets model.efficiency: the paper's closed-form time
// at the fitted τ and t_c (seconds) over the measured median latency.
func modelEfficiency(res *result, modelS float64) {
	p50 := res.metrics["latency_p50_ms"] / 1e3
	if res.metrics["transport.tau_us"] == 0 || p50 <= 0 {
		return
	}
	res.metrics["model.efficiency"] = modelS / p50
	res.note("model: closed form %.4gms at tau=%.3gus tc=%.3gns/B vs measured p50 %.4gms",
		1e3*modelS, res.metrics["transport.tau_us"], res.metrics["transport.tc_ns_per_byte"], 1e3*p50)
}
