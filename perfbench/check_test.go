package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestCheckBcastRejectsFlippedByte(t *testing.T) {
	const seed, round = 7, 3
	want := payload(bcastBytes, bcastKey(seed, round))
	got := append([]byte(nil), want...)
	if err := checkBcast(got, want, round, 5); err != nil {
		t.Fatalf("intact payload rejected: %v", err)
	}
	got[123457] ^= 0x10
	if err := checkBcast(got, want, round, 5); err == nil {
		t.Fatal("payload with a flipped byte accepted")
	}
	if err := checkBcast(got[:len(got)-1], want, round, 5); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestCheckAllToAllRejectsSwappedPackets(t *testing.T) {
	const seed, me, round = 11, 6, 42
	size := 1 << meshDim
	got := make([][]byte, size)
	for src := range got {
		got[src] = make([]byte, a2aBytes)
		a2aPacket(got[src], seed, src, me, round)
	}
	scratch := make([]byte, a2aBytes)
	if err := checkAllToAll(got, scratch, seed, me, round); err != nil {
		t.Fatalf("intact round rejected: %v", err)
	}
	got[2], got[9] = got[9], got[2]
	if err := checkAllToAll(got, scratch, seed, me, round); err == nil {
		t.Fatal("round with two swapped packets accepted")
	}
	got[2], got[9] = got[9], got[2]
	a2aPacket(got[4], seed, 4, me, round-1) // last round's packet
	if err := checkAllToAll(got, scratch, seed, me, round); err == nil {
		t.Fatal("stale packet accepted")
	}
}

func TestCheckAllReduceRejectsOffByOne(t *testing.T) {
	size := 1 << meshDim
	for _, key := range []uint64{0, 1, 0xDEADBEEFCAFEF00D, ^uint64(0)} {
		var loop uint64
		for r := 0; r < size; r++ {
			loop += contribution(key, r)
		}
		if got := allreduceSum(key, size); got != loop {
			t.Fatalf("key %#x: closed form %#x, summed %#x", key, got, loop)
		}
		out := binary.LittleEndian.AppendUint64(nil, loop)
		if err := checkAllReduce(out, key, size, 3); err != nil {
			t.Fatalf("key %#x: correct sum rejected: %v", key, err)
		}
		out = binary.LittleEndian.AppendUint64(nil, loop+1)
		if err := checkAllReduce(out, key, size, 3); err == nil {
			t.Fatalf("key %#x: sum off by one accepted", key)
		}
	}
}

func TestServiceJobCheckRejectsCorruptPayload(t *testing.T) {
	jobs := makeJobs(5, 3) // one of each kind
	for _, j := range jobs[:2] {
		rank := 1 + int(j.root)%15
		var out []byte
		if j.kind == jobBcast {
			out = append([]byte(nil), j.input...)
		} else {
			out = append([]byte(nil), j.parts[rank]...)
		}
		if err := j.check(rank, out); err != nil {
			t.Fatalf("%s: intact output rejected: %v", jobKindName[j.kind], err)
		}
		out[len(out)/2] ^= 1
		if err := j.check(rank, out); err == nil {
			t.Fatalf("%s: corrupt output accepted", jobKindName[j.kind])
		}
	}
}

func TestCheckSimRejectsMakespanBelowBound(t *testing.T) {
	for _, p := range []simPoint{
		{alg: model.MSBT, dim: simDim, M: 4096, B: 256, src: 5},
		{alg: model.BST, scatter: true, order: sched.OrderDF, dim: simDim, M: 256, B: 64, src: 9},
	} {
		xs, err := p.schedule()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(p.config(), xs)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSimPoint(p, r.Makespan, r.Delivered, len(xs)); err != nil {
			t.Fatalf("%v: real simulation rejected: %v", p, err)
		}
		if err := checkSimPoint(p, 0.999*simBound(p), r.Delivered, len(xs)); err == nil {
			t.Fatalf("%v: makespan below the port/diameter bound accepted", p)
		}
		if err := checkSimPoint(p, r.Makespan, r.Delivered-1, len(xs)); err == nil {
			t.Fatalf("%v: lost transmission accepted", p)
		}
	}
}

// The sweep's own points must pass their checks on the current
// program, or the workload would fail on a correct one.
func TestSweepPassesChecks(t *testing.T) {
	for i, p := range sweep() {
		p.dim, p.src = simDim, 3*cube.NodeID(i)
		xs, err := p.schedule()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(p.config(), xs)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSimPoint(p, r.Makespan, r.Delivered, len(xs)); err != nil {
			t.Error(err)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics the program prints.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
