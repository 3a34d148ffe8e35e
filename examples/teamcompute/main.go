// Teamcompute: use the suite's master-worker team runtime directly for
// a custom computation, the way the translated benchmarks use it — a
// fixed pool of workers, one region body per phase that loops over its
// own share (Run + Loop), and a deterministic reduction (ReduceBlocks +
// Partial + PartialSum).
//
// The computation is a Jacobi relaxation of the 1-D Poisson equation
// -u” = f with a known solution, iterated until the error stops
// improving, followed by a parallel trapezoid-rule integration.
package main

import (
	"fmt"
	"math"

	"npbgo"
)

func main() {
	const n = 64
	const iters = 20000
	team := npbgo.NewTeam(4)
	defer team.Close()

	// -u'' = pi^2 sin(pi x) on (0,1), u(0)=u(1)=0, exact u = sin(pi x).
	h := 1.0 / float64(n)
	f := make([]float64, n+1)
	u := make([]float64, n+1)
	unew := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		x := float64(i) * h
		f[i] = math.Pi * math.Pi * math.Sin(math.Pi*x)
	}

	// Jacobi sweeps: each worker relaxes its share of the interior; the
	// region's join separates the read phase from the pointer swap.
	for it := 0; it < iters; it++ {
		team.Run(func(id int) {
			for l := team.Loop(id, 1, n); l.Next(); {
				for i := l.Lo; i < l.Hi; i++ {
					unew[i] = 0.5 * (u[i-1] + u[i+1] + h*h*f[i])
				}
			}
		})
		u, unew = unew, u
	}

	// Deterministic parallel reduction: one partial per static block,
	// summed in block order, so the bits depend on the team size only.
	// RMS error against the exact solution.
	team.Run(func(id int) {
		for l := team.ReduceBlocks(id, 1, n); l.Next(); {
			s := 0.0
			for i := l.Lo; i < l.Hi; i++ {
				d := u[i] - math.Sin(math.Pi*float64(i)*h)
				s += d * d
			}
			*team.Partial(l.Chunk()) = s
		}
	})
	sum := team.PartialSum()
	fmt.Printf("Jacobi after %d sweeps: RMS error %.6f\n", iters, math.Sqrt(sum/float64(n-1)))

	// Parallel trapezoid rule for the integral of the current solution;
	// exact integral of sin(pi x) over (0,1) is 2/pi.
	team.Run(func(id int) {
		for l := team.ReduceBlocks(id, 0, n); l.Next(); {
			s := 0.0
			for i := l.Lo; i < l.Hi; i++ {
				s += 0.5 * (u[i] + u[i+1]) * h
			}
			*team.Partial(l.Chunk()) = s
		}
	})
	integral := team.PartialSum()
	fmt.Printf("integral of u: %.6f (2/pi = %.6f)\n", integral, 2/math.Pi)
}
