// Package ft implements the NPB FT kernel: the numerical solution of a
// 3-D heat-type PDE with periodic boundaries by forward FFT of a random
// initial state, repeated spectral evolution, and inverse FFT with a
// running checksum. FT is the paper's memory-hungriest benchmark (class
// A needs roughly 350 MB, which is what exposed the JVM memory ceiling
// on the paper's SUN Enterprise).
package ft

import (
	"fmt"
	"math"
	"time"

	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

const alpha = 1.0e-6

type params struct {
	nx, ny, nz int
	niter      int
	sums       []complex128 // per-iteration reference checksums
	tier       verify.Tier
}

// Reference checksums transcribed from the FT verification tables
// (see DESIGN.md §5 on verification tiers).
var classes = map[byte]params{
	'S': {64, 64, 64, 6, []complex128{
		complex(5.546087004964e+02, 4.845363331978e+02),
		complex(5.546385409189e+02, 4.865304269511e+02),
		complex(5.546148406171e+02, 4.883910722336e+02),
		complex(5.545423607415e+02, 4.901273169046e+02),
		complex(5.544255039624e+02, 4.917475857993e+02),
		complex(5.542683411902e+02, 4.932597244941e+02),
	}, verify.TierOfficial},
	'W': {128, 128, 32, 6, []complex128{
		complex(5.673612178944e+02, 5.293246849175e+02),
		complex(5.631436885271e+02, 5.282149986629e+02),
		complex(5.594024089970e+02, 5.270996558037e+02),
		complex(5.560698047020e+02, 5.260027904925e+02),
		complex(5.530898991250e+02, 5.249400845633e+02),
		complex(5.504159734538e+02, 5.239212247086e+02),
	}, verify.TierOfficial},
	'A': {256, 256, 128, 6, []complex128{
		complex(5.046735008193e+02, 5.114047905510e+02),
		complex(5.059412319734e+02, 5.098809666433e+02),
		complex(5.069376896287e+02, 5.098144042213e+02),
		complex(5.077892868474e+02, 5.101336130759e+02),
		complex(5.085233095391e+02, 5.104914655194e+02),
		complex(5.091487099959e+02, 5.107917842803e+02),
	}, verify.TierOfficial},
	'B': {512, 256, 256, 20, nil, verify.TierNone},
	'C': {512, 512, 512, 20, nil, verify.TierNone},
}

// Benchmark is a configured FT instance; New allocates the two complex
// fields and the twiddle array. Each step's inverse transform runs in
// place on u1, as the forward one's second and third passes always have
// (a pencil batch is gathered whole before it is scattered back).
type Benchmark struct {
	Class   byte
	p       params
	threads int
	env     kernel.Env

	c          cube
	u0, u1     []complex128
	twiddle    []float64
	ex         []float64 // ex[m] = exp(ap*m), m = ii²+jj²+kk² of compute_indexmap
	r1, r2, r3 *roots

	// Steady-state machinery: per-worker scratch and region bodies are
	// built once by New and reused on every call, so the timed loop
	// performs no heap allocation (enforced by internal/allocgate). The
	// fft* fields stage the current transform's direction and operands
	// for the prebuilt bodies.
	tm        *team.Team
	ws        []*workspace // per-worker FFT pencil scratch, sized max extent
	icScratch [][]float64  // per-worker plane scratch for the initial field

	fftDir        int
	fftIn, fftOut []complex128
	sum           complex128 // checksum of the latest Iter

	indexMapBody func(id int)
	initCondBody func(id int)
	evolveBody   func(id int)
	c1Body       func(id int)
	c2Body       func(id int)
	c3Body       func(id int)
}

// New configures FT for the given class and thread count. With
// env.Timers set, set-up, evolve, the FFTs and the checksum are
// profiled.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("ft: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("ft: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, p: p, threads: threads, env: env}
	b.c = cube{p.nx, p.ny, p.nz}
	n := b.c.len()
	b.u0 = make([]complex128, n)
	b.u1 = make([]complex128, n)
	b.twiddle = make([]float64, n)
	// compute_indexmap's exponent takes only these integer arguments;
	// same argument, same math.Exp, same bits as calling it per point.
	ap := -4.0 * alpha * math.Pi * math.Pi
	b.ex = make([]float64, (p.nx*p.nx+p.ny*p.ny+p.nz*p.nz)/4+1)
	for m := range b.ex {
		b.ex[m] = math.Exp(ap * float64(m))
	}
	b.r1 = fftInit(p.nx)
	b.r2 = fftInit(p.ny)
	b.r3 = fftInit(p.nz)
	maxN := p.nx
	if p.ny > maxN {
		maxN = p.ny
	}
	if p.nz > maxN {
		maxN = p.nz
	}
	b.ws = make([]*workspace, threads)
	b.icScratch = make([][]float64, threads)
	for i := range b.ws {
		b.ws[i] = newWorkspace(maxN)
		b.icScratch[i] = make([]float64, 2*p.nx*p.ny)
	}
	b.buildBodies()
	return b, nil
}

// buildBodies constructs every parallel-region body once. Each is a
// func(id int) handed straight to Team.Run; loop shares come from the
// team's schedule iterator inside the body, scratch from the per-worker
// pools, and the FFT operands from the fft* staging fields, so the
// timed loop creates no closures.
func (b *Benchmark) buildBodies() {
	// twiddle(i,j,k) = ex[ii²+jj²+kk²] over the signed frequencies
	b.indexMapBody = func(id int) {
		nx, ny, nz := b.p.nx, b.p.ny, b.p.nz
		for it := b.tm.Loop(id, 0, nz); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				kk := ((k + nz/2) % nz) - nz/2
				for j := 0; j < ny; j++ {
					jj := ((j + ny/2) % ny) - ny/2
					ex := b.ex[jj*jj+kk*kk:]
					row := b.twiddle[b.c.at(0, j, k):][:nx]
					for i := range row {
						ii := i // ((i + nx/2) % nx) - nx/2 without the division
						if i >= nx/2 {
							ii -= nx
						}
						row[i] = ex[ii*ii]
					}
				}
			}
		}
	}

	// random plane fill with the per-worker scratch buffer
	b.initCondBody = func(id int) {
		nx, ny, nz := b.p.nx, b.p.ny, b.p.nz
		scratch := b.icScratch[id]
		for it := b.tm.Loop(id, 0, nz); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				// Plane k starts 2*nx*ny*k draws into the stream.
				g := randdp.New(randdp.DefaultSeed, randdp.A)
				g.Skip(len(scratch) * k)
				g.Fill(scratch)
				base := b.c.at(0, 0, k)
				for e := 0; e < nx*ny; e++ {
					b.u1[base+e] = complex(scratch[2*e], scratch[2*e+1])
				}
			}
		}
	}

	// spectral evolution u0 *= twiddle, u1 = u0
	b.evolveBody = func(id int) {
		for it := b.tm.Loop(id, 0, b.c.len()); it.Next(); {
			u0, u1, tw := b.u0[it.Lo:it.Hi], b.u1[it.Lo:it.Hi], b.twiddle[it.Lo:it.Hi]
			for i := range u0 {
				u0[i] *= complex(tw[i], 0)
				u1[i] = u0[i]
			}
		}
	}

	// first-dimension FFT over the staged operands
	b.c1Body = func(id int) {
		for it := b.tm.Loop(id, 0, b.c.d3); it.Next(); {
			cffts1Range(b.fftDir, b.c, b.fftIn, b.fftOut, b.r1, b.ws[id], it.Lo, it.Hi)
		}
	}

	// second-dimension FFT over the staged operands
	b.c2Body = func(id int) {
		for it := b.tm.Loop(id, 0, b.c.d3); it.Next(); {
			cffts2Range(b.fftDir, b.c, b.fftIn, b.fftOut, b.r2, b.ws[id], it.Lo, it.Hi)
		}
	}

	// third-dimension FFT over the staged operands
	b.c3Body = func(id int) {
		for it := b.tm.Loop(id, 0, b.c.d2); it.Next(); {
			cffts3Range(b.fftDir, b.c, b.fftIn, b.fftOut, b.r3, b.ws[id], it.Lo, it.Hi)
		}
	}
}

// computeIndexMap fills twiddle(i,j,k) = exp(ap*(i'^2+j'^2+k'^2)) where
// the primes are the signed frequencies of each index, as ft.f's
// compute_indexmap, reading the exponentials from the table New filled.
func (b *Benchmark) computeIndexMap(tm *team.Team) {
	b.tm = tm
	tm.Run(b.indexMapBody)
}

// computeInitialConditions fills u1 with the standard random complex
// field: 2*nx*ny generator draws per k-plane (real/imaginary
// interleaved), each plane's generator jumped ahead to its first draw
// so planes can be filled independently, matching ft.f point-for-point.
func (b *Benchmark) computeInitialConditions(tm *team.Team) {
	b.tm = tm
	tm.Run(b.initCondBody)
}

// evolve advances the spectral field one time step: u0 *= twiddle,
// u1 = u0, as ft.f's evolve.
func (b *Benchmark) evolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.evolveBody)
}

// runFFT stages one transform's direction and operands for body and
// dispatches it on the current team.
func (b *Benchmark) runFFT(body func(id int), dir int, in, out []complex128) {
	b.fftDir, b.fftIn, b.fftOut = dir, in, out
	b.tm.Run(body)
}

// fft3d applies the full 3-D transform (dir = +1 forward, -1 inverse,
// unnormalized; checksums carry the 1/ntotal factor as in the original).
func (b *Benchmark) fft3d(dir int, in, out []complex128, tm *team.Team) {
	b.tm = tm
	if dir == 1 {
		b.runFFT(b.c1Body, 1, in, out)
		b.runFFT(b.c2Body, 1, out, out)
		b.runFFT(b.c3Body, 1, out, out)
	} else {
		b.runFFT(b.c3Body, -1, in, out)
		b.runFFT(b.c2Body, -1, out, out)
		b.runFFT(b.c1Body, -1, out, out)
	}
}

// Iter runs one timed evolution step — spectral evolve, inverse 3-D
// FFT in place on u1, checksum — on tm, whose Size must equal the
// thread count the Benchmark was built with, and leaves the step's
// checksum in b.sum. Iter is the steady-state hook the allocation gate
// measures: after the first call it performs no heap allocation.
func (b *Benchmark) Iter(tm *team.Team) {
	b.env.Start("evolve")
	b.evolve(tm)
	b.env.Stop("evolve")
	b.env.Start("fft")
	b.fft3d(-1, b.u1, b.u1, tm)
	b.env.Stop("fft")
	b.env.Start("checksum")
	b.sum = b.checksum(b.u1)
	b.env.Stop("checksum")
}

// checksum accumulates the standard 1024-point checksum of u, scaled by
// the total point count.
func (b *Benchmark) checksum(u []complex128) complex128 {
	nx, ny, nz := b.p.nx, b.p.ny, b.p.nz
	chk := complex(0, 0)
	for j := 1; j <= 1024; j++ {
		q := j % nx
		r := (3 * j) % ny
		s := (5 * j) % nz
		chk += u[b.c.at(q, r, s)]
	}
	ntotal := float64(nx) * float64(ny) * float64(nz)
	return chk / complex(ntotal, 0)
}

// Result reports one FT run.
type Result struct {
	Sums []complex128 // per-iteration checksums
	kernel.Outcome
}

// Run is RunResult reduced to the shared outcome (kernel.Kernel).
func (b *Benchmark) Run() kernel.Outcome { return b.RunResult().Outcome }

// RunResult executes the benchmark: untimed setup feed-through, then
// the timed section (initialization, forward FFT, niter evolve/
// inverse-FFT/checksum steps), then verification, following ft.f.
func (b *Benchmark) RunResult() Result {
	tm, done := b.env.Team(b.threads)
	defer done()

	// Untimed warm-up touching all code paths and pages.
	b.computeIndexMap(tm)
	b.computeInitialConditions(tm)
	b.fft3d(1, b.u1, b.u0, tm)

	sums := make([]complex128, 0, b.p.niter)
	start := time.Now()
	b.env.Start("init")
	b.computeIndexMap(tm)
	b.computeInitialConditions(tm)
	b.env.Stop("init")
	b.env.Start("fft")
	b.fft3d(1, b.u1, b.u0, tm)
	b.env.Stop("fft")
	for iter := 1; iter <= b.p.niter && !tm.Cancelled(); iter++ {
		b.Iter(tm)
		sums = append(sums, b.sum)
	}
	elapsed := time.Since(start)

	var res Result
	res.Sums = sums
	ntotal := float64(b.p.nx) * float64(b.p.ny) * float64(b.p.nz)
	ntLog := math.Log2(ntotal)
	// Standard NPB FT flop estimate.
	flops := ntotal * (14.8157 + 7.19641*ntLog + (5.23518+7.21113*ntLog)*float64(b.p.niter))

	rep := &verify.Report{Tier: b.p.tier}
	if b.p.sums != nil {
		for i, ref := range b.p.sums {
			if i >= len(sums) {
				break // cancelled run: only the completed iterations exist
			}
			rep.AddTol(fmt.Sprintf("checksum[%d].re", i+1), real(sums[i]), real(ref), 1e-12)
			rep.AddTol(fmt.Sprintf("checksum[%d].im", i+1), imag(sums[i]), imag(ref), 1e-12)
		}
	}
	res.Outcome = b.env.Outcome(elapsed, flops*1e-6, rep)
	return res
}
