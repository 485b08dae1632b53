package workloads

import (
	"fmt"

	"sara/internal/gpu"
	"sara/internal/ir"
	"sara/spatial"
)

// Streaming applications: bs (Black-Scholes), sort (multi-pass merge sort),
// rf (random-forest inference), ms (streaming time-series statistics). bs and
// rf fully streamline deep pipelines (paper §IV-D); rf saturates HBM at par
// 128 in the scalability study (Fig 9a).

const (
	bsOptions  = 1 << 20
	sortKeys   = 1 << 20
	rfSamples  = 1 << 18
	rfFeatures = 128
	rfTrees    = 64
	rfDepth    = 8
	msWindow   = 64
	msSamples  = 1 << 20
)

func init() {
	register(&Workload{
		Name:       "bs",
		Domain:     "streaming / finance",
		Control:    "flat stream, 30-op transcendental pipeline",
		DefaultPar: 256,
		Build:      buildBS,
		GPUProfile: bsGPU,
	})
	register(&Workload{
		Name:        "sort",
		Domain:      "streaming",
		Control:     "log N sequential merge passes over DRAM",
		DefaultPar:  64,
		MemoryBound: true,
		Build:       buildSort,
		GPUProfile:  sortGPU,
	})
	register(&Workload{
		Name:        "rf",
		Domain:      "machine learning / streaming",
		Control:     "sample stream × tree loop × depth chain of gated lookups",
		DefaultPar:  128,
		MemoryBound: true,
		Build:       buildRF,
		GPUProfile:  rfGPU,
	})
	register(&Workload{
		Name:       "ms",
		Domain:     "streaming",
		Control:    "flat stream, windowed reduction with branch per element",
		DefaultPar: 192,
		Build:      buildMS,
		GPUProfile: msGPU,
	})
}

// buildBS streams option parameters through the Black-Scholes closed form:
// a deep chain of logs, exponentials, square roots, and the CDF
// approximation. Pure pipeline parallelism — the shape the RDA was built for.
func buildBS(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	N := scaled(bsOptions, p.Scale, 256)
	b := spatial.NewBuilder("bs")
	opts := b.DRAM("options", N*5)
	strikes := b.DRAM("strikes", N*2)
	prices := b.DRAM("prices", N*2)
	b.For("o", 0, N, 1, lanes*outer, func(o spatial.Iter) {
		b.Block("bsform", func(blk *spatial.Block) {
			s := blk.Read(opts, spatial.Streaming())
			k := blk.Read(strikes, spatial.Streaming())
			_ = k
			// d1 = (ln(S/K) + (r+σ²/2)T) / (σ√T); d2 = d1 - σ√T;
			// price = S·N(d1) - K·e^{-rT}·N(d2).
			ratio := blk.Op(spatial.OpDiv, s, spatial.External)
			l := blk.Op(spatial.OpLog, ratio)
			v2 := blk.Op(spatial.OpMul, spatial.External, spatial.External)
			num := blk.Op(spatial.OpAdd, l, v2)
			sq := blk.Op(spatial.OpSqrt, spatial.External)
			den := blk.Op(spatial.OpMul, sq, spatial.External)
			d1 := blk.Op(spatial.OpDiv, num, den)
			d2 := blk.Op(spatial.OpSub, d1, den)
			// Polynomial CDF approximations.
			n1 := blk.OpChain(spatial.OpFMA, 5)
			e1 := blk.Op(spatial.OpExp, d1)
			n2 := blk.OpChain(spatial.OpFMA, 5)
			e2 := blk.Op(spatial.OpExp, d2)
			c1 := blk.Op(spatial.OpMul, n1, e1)
			c2 := blk.Op(spatial.OpMul, n2, e2)
			disc := blk.Op(spatial.OpExp, spatial.External)
			k2 := blk.Op(spatial.OpMul, c2, disc)
			call := blk.Op(spatial.OpSub, c1, k2)
			blk.WriteFrom(prices, spatial.Streaming(), call)
		})
	})
	return b.MustBuild()
}

func bsGPU(p Params) gpu.Workload {
	p = p.norm()
	N := float64(scaled(bsOptions, p.Scale, 256))
	// 2 input streams + 1 output stream of 4-byte elements.
	return gpu.Workload{
		Name: "bs", FLOPs: 60 * N, Bytes: 12 * N,
		Class: gpu.StreamingKernel, Kernels: 1,
	}
}

// buildSort is a multi-pass merge sort: log(N/tile) sequential passes, each
// streaming the whole array through on-chip merge networks. Every pass is
// bandwidth-bound; passes serialize on DRAM round trips.
func buildSort(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	N := scaled(sortKeys, p.Scale, 1024)
	passes := 5
	b := spatial.NewBuilder("sort")
	buf0 := b.DRAM("buf0", N)
	buf1 := b.DRAM("buf1", N)
	for ps := 0; ps < passes; ps++ {
		src, dst := buf0, buf1
		if ps%2 == 1 {
			src, dst = buf1, buf0
		}
		ps := ps
		b.For(fmt.Sprintf("pass%d", ps), 0, N, 1, lanes*outer, func(i spatial.Iter) {
			b.Block(fmt.Sprintf("mergenet%d", ps), func(blk *spatial.Block) {
				v := blk.Read(src, spatial.Streaming())
				// A lanes-wide bitonic merge network step.
				s1 := blk.Op(spatial.OpShuffle, v)
				m1 := blk.Op(spatial.OpMin, v, s1)
				x1 := blk.Op(spatial.OpMax, v, s1)
				s2 := blk.Op(spatial.OpShuffle, m1)
				m2 := blk.Op(spatial.OpMin, s2, x1)
				blk.WriteFrom(dst, spatial.Streaming(), m2)
			})
		})
	}
	return b.MustBuild()
}

func sortGPU(p Params) gpu.Workload {
	p = p.norm()
	N := float64(scaled(sortKeys, p.Scale, 1024))
	// Radix sort on a V100 sustains ~1.3 Gkeys/s for 32-bit keys (CUB-class
	// implementations): 8 digit passes, each a read plus a scattered write
	// whose bank conflicts hold effective bandwidth to ~25% of peak — that
	// published throughput is what the override encodes.
	passes := 8.0
	return gpu.Workload{
		Name: "sort", FLOPs: 4 * N * passes, Bytes: 2 * 8 * N * passes,
		Class: gpu.StreamingKernel, Kernels: int(2 * passes), SerialSteps: int(passes),
		MemEffOverride: 0.25,
	}
}

// buildRF streams samples through a forest of resident decision trees: per
// tree a depth-long chain of node fetches (data-dependent addresses within
// the tree table), compares, and child selection; per-tree votes reduce to a
// prediction. On the GPU the same traversal diverges per warp and scatters
// reads (paper §IV-D); on the RDA the whole forest is a spatial pipeline.
func buildRF(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	N := scaled(rfSamples, p.Scale, 256)
	trees := scaled(rfTrees, p.Scale, 8)
	b := spatial.NewBuilder("rf")
	samples := b.DRAM("samples", N*rfFeatures)
	preds := b.DRAM("preds", N)
	nodes := b.SRAM("nodes", trees*(1<<rfDepth))
	nsrc := b.DRAM("nsrc", trees*(1<<rfDepth))
	feat := b.SRAM("feat", rfFeatures)

	b.For("tl", 0, trees*(1<<rfDepth), 1, lanes, func(i spatial.Iter) {
		b.Block("tload", func(blk *spatial.Block) {
			v := blk.Read(nsrc, spatial.Streaming())
			blk.WriteFrom(nodes, spatial.Affine(0, spatial.Term(i, 1)), v)
		})
	})
	b.For("s", 0, N, 1, outer, func(s spatial.Iter) {
		b.For("fl", 0, rfFeatures, 1, lanes, func(f spatial.Iter) {
			b.Block("sload", func(blk *spatial.Block) {
				v := blk.Read(samples, spatial.Streaming())
				blk.WriteFrom(feat, spatial.Affine(0, spatial.Term(f, 1)), v)
			})
		})
		b.For("t", 0, trees, 1, min16(trees), func(t spatial.Iter) {
			b.Block("traverse", func(blk *spatial.Block) {
				// Depth-long gated lookup chain: node fetch (data-dependent
				// address within the tree), feature fetch, compare, select.
				// The per-level fetches pipeline through two wide ports; the
				// datapath carries the level-by-level compare/select chain.
				nv := blk.Read(nodes, spatial.Random())
				fv := blk.Read(feat, spatial.Random())
				c := blk.Op(spatial.OpCmp, nv, fv)
				blk.Op(spatial.OpMux, c)
				chain := blk.OpChain(spatial.OpCmp, rfDepth-1)
				sel := blk.Op(spatial.OpMux, chain)
				blk.Accum(sel)
			})
		})
		b.Block("vote", func(blk *spatial.Block) {
			r := blk.Op(spatial.OpReduce, spatial.External)
			blk.WriteFrom(preds, spatial.Streaming(), r)
		})
	})
	return b.MustBuild()
}

func rfGPU(p Params) gpu.Workload {
	p = p.norm()
	N := float64(scaled(rfSamples, p.Scale, 256))
	trees := float64(scaled(rfTrees, p.Scale, 8))
	return gpu.Workload{
		Name:  "rf",
		FLOPs: 2 * N * trees * rfDepth,
		// Scattered node reads defeat coalescing on the GPU.
		Bytes:   N*trees*rfDepth*8 + N*rfFeatures*4,
		Class:   gpu.DivergentTree,
		Kernels: 8,
	}
}

// buildMS is a streaming time-series kernel: per element, a windowed
// mean/variance update and an outlier branch. Reaches 100% pipeline
// utilization under SARA's decentralized control (paper §IV-D: 3.4× over the
// GPU).
func buildMS(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	N := scaled(msSamples, p.Scale, 512)
	b := spatial.NewBuilder("ms")
	in := b.DRAM("series", N)
	outD := b.DRAM("stats", N)
	win := b.FIFO("window", msWindow)

	b.For("i", 0, N, 1, lanes*outer, func(i spatial.Iter) {
		b.Block("winup", func(blk *spatial.Block) {
			v := blk.Read(in, spatial.Streaming())
			old := blk.Read(win, spatial.Streaming())
			d := blk.Op(spatial.OpSub, v, old)
			mean := blk.Accum(d)
			dv := blk.Op(spatial.OpSub, v, mean)
			sq := blk.Op(spatial.OpMul, dv, dv)
			vr := blk.Accum(sq)
			sd := blk.Op(spatial.OpSqrt, vr)
			z := blk.Op(spatial.OpDiv, dv, sd)
			cmp := blk.Op(spatial.OpCmp, z)
			sel := blk.Op(spatial.OpMux, cmp, z)
			blk.WriteFrom(win, spatial.Streaming(), v)
			blk.WriteFrom(outD, spatial.Streaming(), sel)
		})
	})
	return b.MustBuild()
}

func msGPU(p Params) gpu.Workload {
	p = p.norm()
	N := float64(scaled(msSamples, p.Scale, 512))
	// The windowed recurrence decomposes into ~2 segmented-scan passes on
	// the GPU, each touching the full series.
	return gpu.Workload{
		Name: "ms", FLOPs: 12 * N, Bytes: 2 * 8 * N,
		Class: gpu.StreamingKernel, Kernels: 4,
	}
}
