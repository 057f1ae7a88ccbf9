package main

// Inputs and checks. Every payload the workloads send is a pure
// function of (seed, operation, ...) computed here, and every check
// recomputes what the program should have delivered from those same
// coordinates instead of trusting the buffers the program was handed.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// mix folds words into one 64-bit stream key (splitmix64 finaliser).
func mix(words ...uint64) uint64 {
	h := uint64(0x243F6A8885A308D3)
	for _, w := range words {
		h ^= w + 0x9E3779B97F4A7C15 + h<<6 + h>>2
		h = splitmix(h)
	}
	return h
}

func splitmix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// fill writes the deterministic byte stream of key into b.
func fill(b []byte, key uint64) {
	x := key
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x += 0x9E3779B97F4A7C15
		binary.LittleEndian.PutUint64(b[i:], splitmix(x))
	}
	if i < len(b) {
		x += 0x9E3779B97F4A7C15
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(x))
		copy(b[i:], tail[:])
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// bcastKey names the payload of broadcast round r.
func bcastKey(seed int64, round int) uint64 { return mix(1, uint64(seed), uint64(round)) }

// checkBcast verifies one rank's broadcast result against want, the
// benchmark's own regeneration of the round's payload (fill with
// bcastKey), never the buffer the root sent.
func checkBcast(got, want []byte, round, rank int) error {
	if i := firstDiff(got, want); i >= 0 {
		return fmt.Errorf("bcast round %d: rank %d: %d bytes, first mismatch at byte %d", round, rank, len(got), i)
	}
	return nil
}

// stampLen is the (source, destination, round) header every all-to-all
// packet starts with.
const stampLen = 12

// a2aPacket writes the packet source src sends to dst in round into b:
// the stamp, then seeded content.
func a2aPacket(b []byte, seed int64, src, dst, round int) {
	binary.LittleEndian.PutUint32(b[0:], uint32(src))
	binary.LittleEndian.PutUint32(b[4:], uint32(dst))
	binary.LittleEndian.PutUint32(b[8:], uint32(round))
	fill(b[stampLen:], mix(2, uint64(seed), uint64(src), uint64(dst), uint64(round)))
}

// checkAllToAll verifies what rank me received in one all-to-all round:
// got[src] must be exactly the packet src addressed to me in that round.
func checkAllToAll(got [][]byte, scratch []byte, seed int64, me, round int) error {
	if len(got) == 0 {
		return fmt.Errorf("alltoall round %d: rank %d: no result", round, me)
	}
	for src, p := range got {
		a2aPacket(scratch, seed, src, me, round)
		if i := firstDiff(p, scratch); i >= 0 {
			if len(p) >= stampLen && i < stampLen {
				return fmt.Errorf("alltoall round %d: rank %d: slot %d holds the packet stamped (src %d, dst %d, round %d)",
					round, me, src, binary.LittleEndian.Uint32(p[0:]), binary.LittleEndian.Uint32(p[4:]), binary.LittleEndian.Uint32(p[8:]))
			}
			return fmt.Errorf("alltoall round %d: rank %d: packet from %d differs at byte %d", round, me, src, i)
		}
	}
	return nil
}

// contribution is rank r's allreduce input for a job seeded key: an
// arithmetic progression in r, so the sum over ranks has a closed form.
func contribution(key uint64, r int) uint64 {
	return key + uint64(r)*(key>>17|1)
}

// allreduceSum is the closed form of the sum of contribution(key, r)
// over r < size (mod 2^64).
func allreduceSum(key uint64, size int) uint64 {
	n := uint64(size)
	return n*key + (key>>17|1)*(n*(n-1)/2)
}

func checkAllReduce(got []byte, key uint64, size, rank int) error {
	if len(got) != 8 {
		return fmt.Errorf("allreduce: rank %d: %d-byte result, want 8", rank, len(got))
	}
	if v, want := binary.LittleEndian.Uint64(got), allreduceSum(key, size); v != want {
		return fmt.Errorf("allreduce: rank %d: sum %#x, want %#x", rank, v, want)
	}
	return nil
}

// simBound is the lower bound no correct simulation of a point can
// beat: the source sends at least the point's outbound elements through
// one port, in packets of at most B elements, each paying tau; and the
// farthest node sits a cube diameter (dim hops) away, each hop paying at
// least tau.
func simBound(p simPoint) float64 {
	out := p.M // broadcast: every element leaves the source once
	if p.scatter {
		out = p.M * float64(int(1)<<p.dim-1)
	}
	port := math.Ceil(out/p.B)*simTau + out*simTc
	return math.Max(port, float64(p.dim)*simTau)
}

// simTolerance is the relative distance from the paper's closed form
// within which every simulated point must land (README: Checks).
const simTolerance = 0.02

// checkSimPoint verifies one simulated point: every transmission was
// delivered, the makespan respects simBound, and it lies within
// simTolerance of the model's time.
func checkSimPoint(p simPoint, makespan float64, delivered, xmits int) error {
	if delivered != xmits {
		return fmt.Errorf("%s: %d of %d transmissions delivered", p, delivered, xmits)
	}
	// A schedule that keeps the source's port busy throughout (SBT
	// scatter) finishes exactly at the bound; allow for the rounding of
	// the engine's summed costs.
	if lb := simBound(p); makespan < lb*(1-1e-9) {
		return fmt.Errorf("%s: makespan %.4g below the port/diameter bound %.4g", p, makespan, lb)
	}
	if m := p.modelTime(); math.Abs(makespan-m) > simTolerance*m {
		return fmt.Errorf("%s: makespan %.4g is %.2f%% from the model's %.4g (tolerance %.0f%%)",
			p, makespan, 100*(makespan-m)/m, m, 100*simTolerance)
	}
	return nil
}
