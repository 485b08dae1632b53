package workloads

import (
	"sara/internal/gpu"
	"sara/internal/ir"
	"sara/spatial"
)

// Machine-learning analytics kernels, the compute-bound set used for the
// vanilla-compiler comparison (paper Table V): kmeans and gda are heavily
// compute-bound (14× over PC), logreg and sgd saturate off-chip bandwidth
// earlier and gain less.

const (
	mlPoints   = 16384
	mlFeatures = 64
	mlCenters  = 32
)

func init() {
	register(&Workload{
		Name:       "kmeans",
		Domain:     "machine learning",
		Control:    "point stream × center loop × feature reduction, argmin update",
		DefaultPar: 256,
		Build:      buildKMeans,
		GPUProfile: kmeansGPU,
	})
	register(&Workload{
		Name:       "gda",
		Domain:     "machine learning",
		Control:    "point stream × feature² outer-product accumulation",
		DefaultPar: 256,
		Build:      buildGDA,
		GPUProfile: gdaGPU,
	})
	register(&Workload{
		Name:        "logreg",
		Domain:      "machine learning",
		Control:     "point stream × feature dot product, sigmoid, gradient update",
		DefaultPar:  64,
		MemoryBound: true,
		Build:       buildLogReg,
		PCBuild:     func(p Params) *ir.Program { return buildLinearModelPC("logreg", p, true) },
		GPUProfile:  logregGPU,
	})
	register(&Workload{
		Name:        "sgd",
		Domain:      "machine learning",
		Control:     "point stream × feature dot product, scalar step",
		DefaultPar:  64,
		MemoryBound: true,
		Build:       buildSGD,
		PCBuild:     func(p Params) *ir.Program { return buildLinearModelPC("sgd", p, false) },
		GPUProfile:  sgdGPU,
	})
}

// buildKMeans streams points from DRAM; for each point, distances to every
// resident centroid reduce over features, an argmin selects the cluster, and
// per-cluster accumulators update.
func buildKMeans(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	N := scaled(mlPoints, p.Scale, 64)
	F := scaled(mlFeatures, p.Scale, 16)
	K := mlCenters
	b := spatial.NewBuilder("kmeans")
	pts := b.DRAM("points", N*F)
	cent := b.SRAM("centroids", K*F)
	pbuf := b.SRAM("pbuf", F)
	accum := b.SRAM("accum", K*F)
	counts := b.SRAM("counts", K)
	csrc := b.DRAM("csrc", K*F)

	b.For("cl", 0, K*F, 1, lanes, func(i spatial.Iter) {
		b.Block("cload", func(blk *spatial.Block) {
			v := blk.Read(csrc, spatial.Streaming())
			blk.WriteFrom(cent, spatial.Affine(0, spatial.Term(i, 1)), v)
		})
	})
	b.For("n", 0, N, 1, outer, func(n spatial.Iter) {
		// Stage the point once; the K-center sweep re-reads it from on-chip.
		b.For("pl", 0, F, 1, lanes, func(i spatial.Iter) {
			b.Block("pload", func(blk *spatial.Block) {
				v := blk.Read(pts, spatial.Streaming())
				blk.WriteFrom(pbuf, spatial.Affine(0, spatial.Term(i, 1)), v)
			})
		})
		b.For("k", 0, K, 1, 1, func(k spatial.Iter) {
			b.For("f", 0, F, 1, lanes, func(f spatial.Iter) {
				b.Block("dist", func(blk *spatial.Block) {
					pv := blk.Read(pbuf, spatial.Affine(0, spatial.Term(f, 1)))
					cv := blk.Read(cent, spatial.Affine(0, spatial.Term(k, F), spatial.Term(f, 1)))
					d := blk.Op(spatial.OpSub, pv, cv)
					sq := blk.Op(spatial.OpMul, d, d)
					r := blk.Op(spatial.OpReduce, sq)
					blk.Accum(r)
				})
			})
			b.Block("argmin", func(blk *spatial.Block) {
				m := blk.Op(spatial.OpMin, spatial.External, spatial.External)
				blk.Op(spatial.OpMux, m)
			})
		})
		b.For("u", 0, F, 1, lanes, func(f spatial.Iter) {
			b.Block("update", func(blk *spatial.Block) {
				av := blk.Read(accum, spatial.Random())
				nv := blk.Op(spatial.OpAdd, av, spatial.External)
				blk.WriteFrom(accum, spatial.Random(), nv)
			})
		})
		b.Block("count", func(blk *spatial.Block) {
			cv := blk.Read(counts, spatial.Random())
			nv := blk.Op(spatial.OpAdd, cv)
			blk.WriteFrom(counts, spatial.Random(), nv)
		})
	})
	return b.MustBuild()
}

func kmeansGPU(p Params) gpu.Workload {
	p = p.norm()
	N := float64(scaled(mlPoints, p.Scale, 64))
	F := float64(scaled(mlFeatures, p.Scale, 16))
	return gpu.Workload{
		Name: "kmeans", FLOPs: 3 * N * F * mlCenters, Bytes: 4 * N * F,
		Class: gpu.StreamingKernel, Kernels: 4,
	}
}

// buildGDA accumulates per-class means and a shared covariance: the feature
// outer product gives it the suite's highest arithmetic intensity.
func buildGDA(p Params) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	N := scaled(mlPoints, p.Scale, 64)
	F := scaled(mlFeatures, p.Scale, 16)
	b := spatial.NewBuilder("gda")
	pts := b.DRAM("points", N*F)
	// Two copies of the centered point: the outer product reads a row scalar
	// and a column vector simultaneously, and duplicating the small buffer
	// keeps each scratchpad at one writer and one reader (also the shape the
	// vanilla compiler requires, paper §IV-C).
	x := b.SRAM("x", F)
	x2 := b.SRAM("x2", F)
	cov := b.SRAM("cov", F*F)

	b.For("n", 0, N, 1, outer, func(n spatial.Iter) {
		b.For("ld", 0, F, 1, lanes, func(i spatial.Iter) {
			b.Block("pload", func(blk *spatial.Block) {
				v := blk.Read(pts, spatial.Streaming())
				s := blk.Op(spatial.OpSub, v, spatial.External) // x - mu
				blk.WriteFrom(x, spatial.Affine(0, spatial.Term(i, 1)), s)
				blk.WriteFrom(x2, spatial.Affine(0, spatial.Term(i, 1)), s)
			})
		})
		// Outer product: row loop × vectorized column loop. The column loop
		// carries the full feature width per execution, keeping control
		// granularity coarse for both compared compilers.
		b.For("r", 0, F, 1, 1, func(r spatial.Iter) {
			b.For("c", 0, F, 1, lanes, func(cc spatial.Iter) {
				b.Block("outer", func(blk *spatial.Block) {
					xr := blk.Read(x, spatial.Affine(0, spatial.Term(r, 1)))
					xc := blk.Read(x2, spatial.Affine(0, spatial.Term(cc, 1)))
					m := blk.Op(spatial.OpMul, xr, xc)
					cv := blk.Read(cov, spatial.Affine(0, spatial.Term(r, F), spatial.Term(cc, 1)))
					s := blk.Op(spatial.OpAdd, m, cv)
					blk.WriteFrom(cov, spatial.Affine(0, spatial.Term(r, F), spatial.Term(cc, 1)), s)
				})
			})
		})
	})
	return b.MustBuild()
}

func gdaGPU(p Params) gpu.Workload {
	p = p.norm()
	N := float64(scaled(mlPoints, p.Scale, 64))
	F := float64(scaled(mlFeatures, p.Scale, 16))
	return gpu.Workload{
		Name: "gda", FLOPs: 2 * N * F * F, Bytes: 4 * N * F,
		Class: gpu.StreamingKernel, Kernels: 3,
	}
}

// buildLogReg streams points through a dot product, a sigmoid, and a scaled
// gradient update of the resident weight vector: one pass of logistic
// regression. Arithmetic intensity is ~2 FLOPs per streamed byte, so HBM
// saturates before the fabric does.
func buildLogReg(p Params) *ir.Program {
	return buildLinearModel("logreg", p, true)
}

// buildSGD is the same skeleton without the transcendental: a linear
// least-squares SGD pass.
func buildSGD(p Params) *ir.Program {
	return buildLinearModel("sgd", p, false)
}

func buildLinearModel(name string, p Params, sigmoid bool) *ir.Program {
	p = p.norm()
	lanes, outer := splitPar(p.Par)
	N := scaled(mlPoints*4, p.Scale, 64)
	F := scaled(mlFeatures, p.Scale, 16)
	b := spatial.NewBuilder(name)
	pts := b.DRAM("points", N*F)
	w := b.SRAM("w", F)
	xbuf := b.SRAM("xbuf", F)

	b.For("n", 0, N, 1, outer, func(n spatial.Iter) {
		b.For("d", 0, F, 1, lanes, func(i spatial.Iter) {
			b.Block("dot", func(blk *spatial.Block) {
				xv := blk.Read(pts, spatial.Streaming())
				blk.WriteFrom(xbuf, spatial.Affine(0, spatial.Term(i, 1)), xv)
				wv := blk.Read(w, spatial.Affine(0, spatial.Term(i, 1)))
				m := blk.Op(spatial.OpFMA, xv, wv, spatial.External)
				r := blk.Op(spatial.OpReduce, m)
				blk.Accum(r)
			})
		})
		b.Block("grad", func(blk *spatial.Block) {
			if sigmoid {
				s := blk.Op(spatial.OpSigmoid, spatial.External)
				blk.Op(spatial.OpSub, s, spatial.External)
			} else {
				blk.Op(spatial.OpSub, spatial.External, spatial.External)
			}
		})
		b.For("u", 0, F, 1, lanes, func(i spatial.Iter) {
			b.Block("wupd", func(blk *spatial.Block) {
				xv := blk.Read(xbuf, spatial.Affine(0, spatial.Term(i, 1)))
				wv := blk.Read(w, spatial.Affine(0, spatial.Term(i, 1)))
				g := blk.Op(spatial.OpFMA, xv, wv, spatial.External)
				blk.WriteFrom(w, spatial.Affine(0, spatial.Term(i, 1)), g)
			})
		})
	})
	return b.MustBuild()
}

func logregGPU(p Params) gpu.Workload {
	p = p.norm()
	N := float64(scaled(mlPoints*4, p.Scale, 64))
	F := float64(scaled(mlFeatures, p.Scale, 16))
	return gpu.Workload{
		Name: "logreg", FLOPs: 4 * N * F, Bytes: 4 * N * F,
		Class: gpu.StreamingKernel, Kernels: 3,
	}
}

func sgdGPU(p Params) gpu.Workload {
	w := logregGPU(p)
	w.Name = "sgd"
	w.FLOPs *= 0.75
	return w
}

// buildLinearModelPC is the restructured variant the vanilla compiler can
// accept: the weight read, gradient, and update fold into a single
// read-modify-write block so the weight memory keeps one reader and one
// writer location (paper §IV-C: PC's single-access restriction limits the
// design space).
func buildLinearModelPC(name string, p Params, sigmoid bool) *ir.Program {
	p = p.norm()
	lanes, _ := splitPar(p.Par)
	N := scaled(mlPoints*4, p.Scale, 64)
	F := scaled(mlFeatures, p.Scale, 16)
	b := spatial.NewBuilder(name + "-pc")
	pts := b.DRAM("points", N*F)
	w := b.SRAM("w", F)

	b.For("n", 0, N, 1, 1, func(n spatial.Iter) {
		b.For("d", 0, F, 1, lanes, func(i spatial.Iter) {
			b.Block("rmw", func(blk *spatial.Block) {
				xv := blk.Read(pts, spatial.Streaming())
				wv := blk.Read(w, spatial.Affine(0, spatial.Term(i, 1)))
				m := blk.Op(spatial.OpFMA, xv, wv, spatial.External)
				r := blk.Op(spatial.OpReduce, m)
				acc := blk.Accum(r)
				var g int
				if sigmoid {
					s := blk.Op(spatial.OpSigmoid, acc)
					g = blk.Op(spatial.OpFMA, s, xv, wv)
				} else {
					g = blk.Op(spatial.OpFMA, acc, xv, wv)
				}
				blk.WriteFrom(w, spatial.Affine(0, spatial.Term(i, 1)), g)
			})
		})
	})
	return b.MustBuild()
}
