package main

import "time"

// The reference box is a shared 2-vCPU VM whose speed moves by tens of
// per cent over tens of seconds (a neighbour on the sibling hardware thread,
// stolen time), and it moves compiler-like code — pointer chasing, map
// look-ups, unpredictable branches — far more than an arithmetic loop. A run
// is too short to average that out, so the benchmark measures it: a fixed
// reference kernel with that kind of code is timed around every pass (before,
// between and after the ops of a direct pass; right before and right after
// the timed list of a serve pass, never inside it), and the pass's times are
// divided by how much slower than nominal the kernel ran. README.md,
// "Host-normalised seconds", has the numbers that led here.

// kernelNominalS is what one run of the reference kernel takes between ops on
// a quiet reference box. It only fixes the scale of the normalised metrics: on that
// box they read as quiet-host seconds, on another host as a constant multiple.
const kernelNominalS = 0.004

const kernelNodes = 4096

// kernelData is a random 4-regular graph laid out on a 64x64 grid. It is built
// once, so a reading allocates nothing and no program under test can move it.
type kernelData struct {
	adj, w [kernelNodes][4]int32
	x, y   [kernelNodes]int32
	look   map[int32]int32
	rng    uint64
}

func (k *kernelData) rand(n int) int32 {
	k.rng = k.rng*6364136223846793005 + 1442695040888963407
	return int32((k.rng >> 33) % uint64(n))
}

var kernel = func() *kernelData {
	k := &kernelData{look: map[int32]int32{}, rng: 99}
	for i := range k.x {
		k.x[i], k.y[i] = int32(i%64), int32(i/64)
		k.look[int32(i)] = k.rand(7) + 1
		for e := range k.adj[i] {
			k.adj[i][e] = k.rand(kernelNodes)
			k.w[i][e] = k.rand(7)
		}
	}
	return k
}()

func abs32(a int32) int32 {
	if a < 0 {
		return -a
	}
	return a
}

// cost is the weighted Manhattan wire length of node a's edges.
func (k *kernelData) cost(a int32) int32 {
	c := int32(0)
	for e, o := range k.adj[a] {
		c += (abs32(k.x[a]-k.x[o]) + abs32(k.y[a]-k.y[o])) * k.w[a][e] * k.look[o]
	}
	return c
}

var kernelSink int32

// kernelReading times 20 000 swap-and-evaluate placement steps on the
// reference graph: random loads, map reads and data-dependent branches. Every
// swap is undone and the generator restarted, so each reading is the same
// work. It works on the one shared graph: a pass calls it only from the
// goroutine that sequences its ops.
func kernelReading() float64 {
	t0 := time.Now()
	k := kernel
	k.rng = 7
	for i := 0; i < 20000; i++ {
		a, b := k.rand(kernelNodes), k.rand(kernelNodes)
		before := k.cost(a) + k.cost(b)
		k.x[a], k.x[b], k.y[a], k.y[b] = k.x[b], k.x[a], k.y[b], k.y[a]
		if after := k.cost(a) + k.cost(b); after < before {
			kernelSink += before - after
		}
		k.x[a], k.x[b], k.y[a], k.y[b] = k.x[b], k.x[a], k.y[b], k.y[a]
	}
	return time.Since(t0).Seconds()
}

// hostMeter accumulates kernel readings over a stretch of work.
type hostMeter struct {
	sum float64
	n   int
}

func (m *hostMeter) read(times int) {
	for i := 0; i < times; i++ {
		m.sum += kernelReading()
	}
	m.n += times
}

func (m *hostMeter) mean() float64 { return m.sum / float64(m.n) }

// perGap is how many readings to take in each of a pass's gaps so that the
// pass ends up with at least want.
func perGap(want, gaps int) int { return (want + gaps - 1) / gaps }

// calibrate is host.calib_s: the mean of 16 kernel readings. Every run takes
// it at its start and at its end; two values far apart say the host moved
// while the run was measured.
func calibrate() float64 {
	var m hostMeter
	m.read(16)
	return m.mean()
}
