package bt

//go:generate go run ./lanegen

// Lane form: four lines side by side. Element e of lane q is at [e][q],
// so one 256-bit register holds element e of all four lines, and each
// kernel below runs its scalar namesake's statements once for all four.
// On amd64 with AVX the work is done by the lanegen output in
// lanes_amd64.s; otherwise, and on every other architecture, each lane
// is gathered, run through the scalar kernel and scattered back. Either
// way lane q's results are, bit for bit, what the scalar kernel computes
// on the same machine (TestLaneKernelsMatchScalar).
type (
	blk4 [25][4]float64 // a 5x5 block of each lane, column-major like the scalar blocks
	vec4 [5][4]float64  // a 5-vector of each lane
	pt4  [3][4]float64  // 1/rho, q/rho, 0.5*|m|^2/rho of each lane
)

// useAVX selects the assembly kernels. It is set once, at package
// initialization, from what the CPU and the OS support; tests clear it
// to run the portable path.
var useAVX = avxSupported()

func (b *blk4) lane(q int) (s [25]float64) {
	for e := range b {
		s[e] = b[e][q]
	}
	return s
}

func (b *blk4) setLane(q int, s *[25]float64) {
	for e := range b {
		b[e][q] = s[e]
	}
}

func (v *vec4) lane(q int) (s [5]float64) {
	for e := range v {
		s[e] = v[e][q]
	}
	return s
}

func (v *vec4) setLane(q int, s *[5]float64) {
	for e := range v {
		v[e][q] = s[e]
	}
}

func (p *pt4) lane(q int) (s [3]float64) {
	for e := range p {
		s[e] = p[e][q]
	}
	return s
}

// binvcrhs4 is binvcrhs on each lane.
func binvcrhs4(blk, c *blk4, r *vec4) {
	if useAVX {
		binvcrhsAVX(blk, c, r)
		return
	}
	for q := 0; q < 4; q++ {
		sb, sc, sr := blk.lane(q), c.lane(q), r.lane(q)
		binvcrhs(&sb, &sc, &sr)
		blk.setLane(q, &sb)
		c.setLane(q, &sc)
		r.setLane(q, &sr)
	}
}

// binvrhs4 is binvrhs on each lane.
func binvrhs4(blk *blk4, r *vec4) {
	if useAVX {
		binvrhsAVX(blk, r)
		return
	}
	for q := 0; q < 4; q++ {
		sb, sr := blk.lane(q), r.lane(q)
		binvrhs(&sb, &sr)
		blk.setLane(q, &sb)
		r.setLane(q, &sr)
	}
}

// matvecSub4 is matvecSub on each lane.
func matvecSub4(a *blk4, r1, r2 *vec4) {
	if useAVX {
		matvecSubAVX(a, r1, r2)
		return
	}
	for q := 0; q < 4; q++ {
		sa, s1, s2 := a.lane(q), r1.lane(q), r2.lane(q)
		matvecSub(&sa, &s1, &s2)
		r2.setLane(q, &s2)
	}
}

// matmulSub4 is matmulSub on each lane.
func matmulSub4(a, b, c *blk4) {
	if useAVX {
		matmulSubAVX(a, b, c)
		return
	}
	for q := 0; q < 4; q++ {
		sa, sb, sc := a.lane(q), b.lane(q), c.lane(q)
		matmulSub(&sa, &sb, &sc)
		c.setLane(q, &sc)
	}
}

// jacobians4 is ds's direction's jacobiansX/Y/Z on each lane.
func jacobians4(fjac, njac *blk4, u *vec4, s *pt4, ds *dirSpec) {
	k := &ds.jac
	if useAVX {
		switch ds.cv {
		case 1:
			jacobiansXAVX(fjac, njac, u, s, k.c1, k.c2, k.c3c4, k.r43, k.c1345)
		case 2:
			jacobiansYAVX(fjac, njac, u, s, k.c1, k.c2, k.c3c4, k.r43, k.c1345)
		default:
			jacobiansZAVX(fjac, njac, u, s, k.c1, k.c2, k.c3c4, k.r43, k.c1345)
		}
		return
	}
	for q := 0; q < 4; q++ {
		var sf, sn [25]float64
		su, ss := u.lane(q), s.lane(q)
		switch ds.cv {
		case 1:
			jacobiansX(&sf, &sn, &su, &ss, k.c1, k.c2, k.c3c4, k.r43, k.c1345)
		case 2:
			jacobiansY(&sf, &sn, &su, &ss, k.c1, k.c2, k.c3c4, k.r43, k.c1345)
		default:
			jacobiansZ(&sf, &sn, &su, &ss, k.c1, k.c2, k.c3c4, k.r43, k.c1345)
		}
		fjac.setLane(q, &sf)
		njac.setLane(q, &sn)
	}
}

// assemble4 is assemble on each lane, with ds's folded constants.
func assemble4(aa, bb, cc, fm, fp, nm, nc, np *blk4, ds *dirSpec) {
	if useAVX {
		assembleAVX(aa, bb, cc, fm, fp, nm, nc, np, ds.mt2, ds.t1, ds.t12, ds.t2,
			ds.dm[0], ds.dm[1], ds.dm[2], ds.dm[3], ds.dm[4], ds.bm[0], ds.bm[1], ds.bm[2], ds.bm[3], ds.bm[4])
		return
	}
	for q := 0; q < 4; q++ {
		var sa, sb, sc [25]float64
		sfm, sfp, snm, snc, snp := fm.lane(q), fp.lane(q), nm.lane(q), nc.lane(q), np.lane(q)
		assemble(&sa, &sb, &sc, &sfm, &sfp, &snm, &snc, &snp, ds.mt2, ds.t1, ds.t12, ds.t2,
			ds.dm[0], ds.dm[1], ds.dm[2], ds.dm[3], ds.dm[4], ds.bm[0], ds.bm[1], ds.bm[2], ds.bm[3], ds.bm[4])
		aa.setLane(q, &sa)
		bb.setLane(q, &sb)
		cc.setLane(q, &sc)
	}
}
