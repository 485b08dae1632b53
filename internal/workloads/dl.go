package workloads

import (
	"fmt"

	"sara/internal/gpu"
	"sara/internal/ir"
	"sara/spatial"
)

// mlpDims are the single-batch MLP layer widths (paper §IV-a uses mlp for the
// scalability study precisely because a single batch has no trivial
// data-level parallelism).
var mlpDims = []int{784, 512, 256, 64}

const mlpSamples = 256

func init() {
	register(&Workload{
		Name:       "mlp",
		Domain:     "deep learning",
		Control:    "3-level static nest per layer, pipelined across layers and samples",
		DefaultPar: 256,
		Build:      buildMLP,
		GPUProfile: mlpGPU,
	})
	register(&Workload{
		Name:        "lstm",
		Domain:      "deep learning",
		Control:     "sequential time loop with loop-carried state, gate-level parallelism",
		DefaultPar:  128,
		Build:       buildLSTM,
		GPUProfile:  lstmGPU,
		MemoryBound: false,
	})
	register(&Workload{
		Name:       "snet",
		Domain:     "deep learning",
		Control:    "4-level static conv nests, deeply pipelined stages",
		DefaultPar: 256,
		Build:      buildSNet,
		GPUProfile: snetGPU,
	})
}

// buildMLP keeps weights resident in banked scratchpads and streams samples:
// per layer, the output-row loop spatially unrolls and the input reduction
// vectorizes. Activations flow layer to layer through on-chip buffers, so
// the whole network pipelines across samples.
func buildMLP(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	b := spatial.NewBuilder("mlp")
	samples := scaled(mlpSamples, p.Scale, 8)

	dims := make([]int, len(mlpDims))
	for i, d := range mlpDims {
		dims[i] = scaled(d, p.Scale, 16)
	}
	in := b.DRAM("x", samples*dims[0])
	out := b.DRAM("y", samples*dims[len(dims)-1])

	// Resident weights, loaded once before the sample loop.
	var weights []*spatial.Mem
	var acts []*spatial.Mem
	for l := 0; l+1 < len(dims); l++ {
		weights = append(weights, b.SRAM(fmt.Sprintf("w%d", l), dims[l]*dims[l+1]))
	}
	for l := 0; l < len(dims); l++ {
		acts = append(acts, b.SRAM(fmt.Sprintf("a%d", l), dims[l]))
	}
	wsrc := b.DRAM("wsrc", totalWeights(dims))
	for l := 0; l+1 < len(dims); l++ {
		l := l
		b.For(fmt.Sprintf("wl%d", l), 0, dims[l]*dims[l+1], 1, lanes, func(i spatial.Iter) {
			b.Block(fmt.Sprintf("wload%d", l), func(blk *spatial.Block) {
				v := blk.Read(wsrc, spatial.Streaming())
				blk.WriteFrom(weights[l], spatial.Affine(0, spatial.Term(i, 1)), v)
			})
		})
	}

	b.For("s", 0, samples, 1, 1, func(s spatial.Iter) {
		// Stage in the input activation.
		b.For("ld", 0, dims[0], 1, lanes, func(i spatial.Iter) {
			b.Block("xload", func(blk *spatial.Block) {
				v := blk.Read(in, spatial.Streaming())
				blk.WriteFrom(acts[0], spatial.Affine(0, spatial.Term(i, 1)), v)
			})
		})
		for l := 0; l+1 < len(dims); l++ {
			l := l
			b.For(fmt.Sprintf("o%d", l), 0, dims[l+1], 1, outer, func(o spatial.Iter) {
				b.For(fmt.Sprintf("i%d", l), 0, dims[l], 1, lanes, func(i spatial.Iter) {
					b.Block(fmt.Sprintf("mac%d", l), func(blk *spatial.Block) {
						x := blk.Read(acts[l], spatial.Affine(0, spatial.Term(i, 1)))
						w := blk.Read(weights[l], spatial.Affine(0, spatial.Term(o, dims[l]), spatial.Term(i, 1)))
						m := blk.Op(spatial.OpFMA, x, w, spatial.External)
						r := blk.Op(spatial.OpReduce, m)
						blk.Accum(r)
					})
				})
				b.Block(fmt.Sprintf("act%d", l), func(blk *spatial.Block) {
					v := blk.Op(spatial.OpSigmoid, spatial.External)
					blk.WriteFrom(acts[l+1], spatial.Affine(0, spatial.Term(o, 1)), v)
				})
			})
		}
		b.For("st", 0, dims[len(dims)-1], 1, min16(dims[len(dims)-1]), func(i spatial.Iter) {
			b.Block("ystore", func(blk *spatial.Block) {
				v := blk.Read(acts[len(dims)-1], spatial.Affine(0, spatial.Term(i, 1)))
				blk.WriteFrom(out, spatial.Streaming(), v)
			})
		})
	})
	return b.MustBuild()
}

func min16(n int) int {
	if n < 16 {
		return n
	}
	return 16
}

func totalWeights(dims []int) int {
	t := 0
	for l := 0; l+1 < len(dims); l++ {
		t += dims[l] * dims[l+1]
	}
	return t
}

func mlpGPU(p Params) gpu.Workload {
	p = p.norm()
	samples := scaled(mlpSamples, p.Scale, 8)
	flops, bytes := 0.0, 0.0
	prev := scaled(mlpDims[0], p.Scale, 16)
	for _, d := range mlpDims[1:] {
		cur := scaled(d, p.Scale, 16)
		flops += 2 * float64(prev) * float64(cur) * float64(samples)
		bytes += 4 * float64(prev) * float64(cur) * float64(samples) // GEMV rereads weights per sample
		prev = cur
	}
	return gpu.Workload{
		Name: "mlp", FLOPs: flops, Bytes: bytes,
		Class: gpu.SmallBatchRNN, Kernels: samples * (len(mlpDims) - 1), SerialSteps: samples,
	}
}

// LSTM: T time steps over hidden width H; the recurrent state lives on chip
// and serializes steps through CMMC credits, while gate rows parallelize.
const (
	lstmHidden = 256
	lstmSteps  = 96
)

func buildLSTM(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	H := scaled(lstmHidden, p.Scale, 32)
	T := scaled(lstmSteps, p.Scale, 8)
	b := spatial.NewBuilder("lstm")

	wsrc := b.DRAM("w", 4*H*H)
	xin := b.DRAM("x", T*H)
	yout := b.DRAM("y", T*H)
	wg := b.SRAM("wg", 4*H*H)
	h := b.SRAM("h", H)
	c := b.SRAM("c", H)
	gates := b.SRAM("gates", 4*H)

	b.For("wl", 0, 4*H*H, 1, lanes, func(i spatial.Iter) {
		b.Block("wload", func(blk *spatial.Block) {
			v := blk.Read(wsrc, spatial.Streaming())
			blk.WriteFrom(wg, spatial.Affine(0, spatial.Term(i, 1)), v)
		})
	})
	b.For("t", 0, T, 1, 1, func(t spatial.Iter) {
		b.For("g", 0, 4*H, 1, outer, func(g spatial.Iter) {
			b.For("i", 0, H, 1, lanes, func(i spatial.Iter) {
				b.Block("gemv", func(blk *spatial.Block) {
					hv := blk.Read(h, spatial.Affine(0, spatial.Term(i, 1)))
					wv := blk.Read(wg, spatial.Affine(0, spatial.Term(g, H), spatial.Term(i, 1)))
					m := blk.Op(spatial.OpFMA, hv, wv, spatial.External)
					r := blk.Op(spatial.OpReduce, m)
					blk.Accum(r)
				})
			})
			b.Block("gact", func(blk *spatial.Block) {
				v := blk.Op(spatial.OpSigmoid, spatial.External)
				blk.WriteFrom(gates, spatial.Affine(0, spatial.Term(g, 1)), v)
			})
		})
		b.For("e", 0, H, 1, lanes, func(e spatial.Iter) {
			b.Block("elem", func(blk *spatial.Block) {
				xv := blk.Read(xin, spatial.Streaming())
				i := blk.Read(gates, spatial.Affine(0, spatial.Term(e, 1)))
				f := blk.Read(gates, spatial.Affine(H, spatial.Term(e, 1)))
				o := blk.Read(gates, spatial.Affine(2*H, spatial.Term(e, 1)))
				gg := blk.Read(gates, spatial.Affine(3*H, spatial.Term(e, 1)))
				cv := blk.Read(c, spatial.Affine(0, spatial.Term(e, 1)))
				fc := blk.Op(spatial.OpMul, f, cv)
				ig := blk.Op(spatial.OpMul, i, gg)
				nc := blk.Op(spatial.OpAdd, fc, ig)
				th := blk.Op(spatial.OpTanh, nc)
				nh := blk.Op(spatial.OpMul, o, th)
				_ = xv
				blk.WriteFrom(c, spatial.Affine(0, spatial.Term(e, 1)), nc)
				blk.WriteFrom(h, spatial.Affine(0, spatial.Term(e, 1)), nh)
				blk.WriteFrom(yout, spatial.Streaming(), nh)
			})
		})
	})
	return b.MustBuild()
}

func lstmGPU(p Params) gpu.Workload {
	p = p.norm()
	H := scaled(lstmHidden, p.Scale, 32)
	T := scaled(lstmSteps, p.Scale, 8)
	flops := 2 * 4 * float64(H) * float64(H) * float64(T)
	// cuDNN persistent-RNN kernels keep the (1 MB) weights in L2/SMEM and
	// fuse step groups, so traffic is activations plus one weight pass.
	bytes := 4*4*float64(H)*float64(H) + 8*float64(H)*float64(T)
	return gpu.Workload{
		Name: "lstm", FLOPs: flops, Bytes: bytes,
		Class: gpu.SmallBatchRNN, Kernels: maxi(T/8, 1),
	}
}

// snet is a SqueezeNet-style stack of convolution stages: deeply pipelined
// static nests with heavy FMA reductions. GPUs run these near peak through
// cuDNN; the RDA wins only area-normalized (paper Table VI).
type convStage struct {
	cin, cout, pix, k int
}

func snetStages(scale int) []convStage {
	return []convStage{
		{cin: 3, cout: scaled(64, scale, 8), pix: scaled(12544, scale, 64), k: 3},
		{cin: scaled(64, scale, 8), cout: scaled(128, scale, 8), pix: scaled(3136, scale, 32), k: 3},
		{cin: scaled(128, scale, 8), cout: scaled(256, scale, 8), pix: scaled(784, scale, 16), k: 3},
		{cin: scaled(256, scale, 8), cout: scaled(512, scale, 8), pix: scaled(196, scale, 8), k: 1},
	}
}

func buildSNet(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	b := spatial.NewBuilder("snet")
	stages := snetStages(p.Scale)
	img := b.DRAM("img", 1<<20)
	res := b.DRAM("res", 1<<20)

	// Stage 0's input pixels stage into an on-chip buffer once, then every
	// output channel re-reads them from scratchpads (no DRAM re-reads).
	actIn := b.SRAM("actin", 4096)
	b.For("imgl", 0, 4096, 1, lanes, func(i spatial.Iter) {
		b.Block("imgload", func(blk *spatial.Block) {
			v := blk.Read(img, spatial.Streaming())
			blk.WriteFrom(actIn, spatial.Affine(0, spatial.Term(i, 1)), v)
		})
	})
	prevAct := actIn
	for si, st := range stages {
		si, st := si, st
		act := b.SRAM(fmt.Sprintf("act%d", si), st.cout*64)
		w := b.SRAM(fmt.Sprintf("cw%d", si), st.cin*st.cout*st.k*st.k)
		wsrc := b.DRAM(fmt.Sprintf("cwsrc%d", si), st.cin*st.cout*st.k*st.k)
		b.For(fmt.Sprintf("cwl%d", si), 0, st.cin*st.cout*st.k*st.k, 1, lanes, func(i spatial.Iter) {
			b.Block(fmt.Sprintf("cwload%d", si), func(blk *spatial.Block) {
				v := blk.Read(wsrc, spatial.Streaming())
				blk.WriteFrom(w, spatial.Affine(0, spatial.Term(i, 1)), v)
			})
		})
		b.For(fmt.Sprintf("oc%d", si), 0, st.cout, 1, outer, func(oc spatial.Iter) {
			b.For(fmt.Sprintf("px%d", si), 0, st.pix, 1, 1, func(px spatial.Iter) {
				// The real in-channel × kernel reduction: one vectorized
				// firing per 'lanes' MACs, so compute throughput is bounded
				// by the fabric, not compressed into free op chains.
				red := maxi(st.cin*st.k*st.k, lanes)
				b.For(fmt.Sprintf("ic%d", si), 0, red, 1, lanes, func(ic spatial.Iter) {
					b.Block(fmt.Sprintf("conv%d", si), func(blk *spatial.Block) {
						src := blk.Read(prevAct, spatial.Affine(0, spatial.Term(ic, 1)))
						wv := blk.Read(w, spatial.Affine(0, spatial.Term(oc, st.cin), spatial.Term(ic, 1)))
						m := blk.Op(spatial.OpFMA, src, wv, spatial.External)
						r := blk.Op(spatial.OpReduce, m)
						blk.Accum(r)
					})
				})
				b.Block(fmt.Sprintf("relu%d", si), func(blk *spatial.Block) {
					a := blk.Op(spatial.OpMax, spatial.External)
					blk.WriteFrom(act, spatial.Affine(0, spatial.Term(oc, 1)), a)
				})
			})
		})
		prevAct = act
	}
	b.For("res", 0, 64, 1, 1, func(i spatial.Iter) {
		b.Block("store", func(blk *spatial.Block) {
			v := blk.Read(prevAct, spatial.Affine(0, spatial.Term(i, 1)))
			blk.WriteFrom(res, spatial.Streaming(), v)
		})
	})
	return b.MustBuild()
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func snetGPU(p Params) gpu.Workload {
	p = p.norm()
	flops, bytes := 0.0, 0.0
	for _, st := range snetStages(p.Scale) {
		flops += 2 * float64(st.cin) * float64(st.cout) * float64(st.pix) * float64(st.k*st.k)
		bytes += 4 * float64(st.cin*st.cout*st.k*st.k+st.cout*st.pix)
	}
	return gpu.Workload{Name: "snet", FLOPs: flops, Bytes: bytes, Class: gpu.DenseLinear, Kernels: 8}
}
