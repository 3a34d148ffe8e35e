package ops

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"npbgo/internal/fault"
	"npbgo/internal/grid"
	"npbgo/internal/kernel"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// Op names one of the five operations.
type Op int

// The five operations, in the row order of the paper's Table 1.
const (
	Assign Op = iota
	Stencil1
	Stencil2
	MatVec5
	Sum
	numOps
)

// reps is the number of invocations a Run times, after one untimed
// one; Assign's are ten times as many, the paper's "Assignment (10
// iterations)" row.
const reps = 20

// forms holds each operation's field group, its serial and nested
// forms (the parallel one is Workload.Parallel) and its operation count
// per invocation: the analytic flop counts, element copies for Assign.
var forms = [numOps]struct {
	fields         int
	serial, nested func(k *Kernel)
	ops            func(w *Workload) int64
}{
	{scalarFields, func(k *Kernel) { k.w.Assignment() }, func(k *Kernel) { k.w.AssignmentNested() },
		func(w *Workload) int64 { return int64(w.D.Len()) }},
	{scalarFields, func(k *Kernel) { k.w.FirstOrder() }, func(k *Kernel) { k.w.FirstOrderNested() }, (*Workload).FlopsFirstOrder},
	{scalarFields, func(k *Kernel) { k.w.SecondOrder() }, func(k *Kernel) { k.w.SecondOrderNested() }, (*Workload).FlopsSecondOrder},
	{blockFields, func(k *Kernel) { k.w.MatVec() }, func(k *Kernel) { k.w.MatVecNested() }, (*Workload).FlopsMatVec},
	{sumFields, func(k *Kernel) { k.sum[0] = k.w.ReduceSum() }, func(k *Kernel) { k.sum[0] = k.w.ReduceSumNested() },
		(*Workload).FlopsReduceSum},
}

// Kernel is one operation as an entry of the paper's Tables 0 and 1
// (internal/suite's Paper list), on the 81x81x100 grid, which the
// entries take as class A: the linearized form (Table 1), serial at one
// thread and split over the team at more, or the nested form (Table 0),
// serial only.
type Kernel struct {
	w         *Workload
	op        Op
	nested    bool
	threads   int
	env       kernel.Env
	sum       [1]float64 // Sum's output
	out, nout grid.Vec   // the output, linearized and nested (in its backing array)
	first     grid.Vec   // check's copy of the first form's output
}

// New builds operation o, in its nested form if nested, for class A and
// threads workers; another class, threads < 1, or threads > 1 for a
// nested form is an error.
func New(o Op, nested bool, class byte, threads int, env kernel.Env) (*Kernel, error) {
	if _, err := Footprint(o, nested, class, threads); err != nil {
		return nil, err
	}
	f := forms[o].fields
	if nested {
		f |= nestedFields
	}
	k := &Kernel{w: newWorkload(DefaultDim, f), op: o, nested: nested, threads: threads, env: env}
	switch k.out, k.nout = k.sum[:], k.sum[:]; forms[o].fields {
	case scalarFields:
		k.out, k.nout = k.w.A, k.w.ANf
	case blockFields:
		k.out, k.nout = k.w.W, k.w.WNf
	}
	k.first = make(grid.Vec, len(k.out))
	return k, nil
}

// Footprint is the bytes New allocates: each array of the operation's
// group and a copy of the output, its last, and for a nested form each
// array again with a slice header per row, plane, ... (grid.Nest3).
func Footprint(o Op, nested bool, class byte, threads int) (uint64, error) {
	switch {
	case class != 'A':
		return 0, fmt.Errorf("ops: the operations run on the 81x81x100 grid, class A; got class %q", string(class))
	case threads < 1 || nested && threads > 1:
		return 0, fmt.Errorf("ops: %d threads; the linearized forms take 1 or more, the nested ones 1", threads)
	}
	d := DefaultDim
	g, v := []int{d.N1, d.N2, d.N3}, []int{5, d.N1, d.N2, d.N3}
	var b, words uint64
	for _, a := range map[int][][]int{scalarFields: {g, g}, blockFields: {{5, 5, d.N1, d.N2, d.N3}, v, v}, sumFields: {v}}[forms[o].fields] {
		words = 1
		for _, n := range a {
			words *= uint64(n)
		}
		b += 8 * words
		if nested {
			b += 8 * words
			for i, rows := len(a)-1, uint64(1); i >= 1; i-- {
				rows *= uint64(a[i])
				b += 3 * strconv.IntSize / 8 * rows
			}
		}
	}
	if forms[o].fields != sumFields {
		b += 8 * words
	}
	return b, nil
}

// Iter runs one invocation of the entry's form on tm.
func (k *Kernel) Iter(tm *team.Team) {
	switch f := &forms[k.op]; {
	case k.nested:
		f.nested(k)
	case k.threads == 1:
		f.serial(k)
	default:
		k.parallel(tm)
	}
}

func (k *Kernel) parallel(tm *team.Team) {
	if k.w.Parallel(k.op, tm); k.op == Sum {
		k.sum[0] = tm.PartialSum()
	}
}

// Run times reps invocations on a team opened from the Env, stopping
// after the one in which the Env's context ends, and verifies. Each
// timed invocation passes the ops.iter fault site first.
func (k *Kernel) Run() kernel.Outcome {
	tm, done := k.env.Team(k.threads)
	defer done()
	n := reps
	if k.op == Assign {
		n *= 10
	}
	k.Iter(tm)
	start := time.Now()
	for i := 0; i < n && !tm.Cancelled(); i++ {
		fault.Maybe("ops.iter")
		k.Iter(tm)
	}
	return k.env.Outcome(time.Since(start), float64(int64(n)*forms[k.op].ops(k.w))*1e-6, k.check(tm))
}

// check runs the entry's two forms once more and compares them: a
// Table 1 entry's parallel form on tm against the serial form, bit for
// bit, the reduction against the serial sums of tm's static blocks added
// in block order (as TestParallelVariantsMatchSerial does); a Table 0
// entry's nested form against the linearized one, to a relative 1e-13
// (as TestNestedMatchesLinear does).
func (k *Kernel) check(tm *team.Team) *verify.Report {
	f, tol := &forms[k.op], 0.0
	if k.nested {
		f.nested(k)
		copy(k.first, k.nout)
		tol = 1e-13
	} else {
		k.parallel(tm)
		copy(k.first, k.out)
	}
	f.serial(k)
	if k.op == Sum && !k.nested {
		k.sum[0] = 0
		for b := 0; b < tm.Size(); b++ {
			lo, hi := team.Block(0, len(k.w.R), tm.Size(), b)
			k.sum[0] += sumRange(k.w.R, lo, hi)
		}
	}
	m := 0.0
	for i, x := range k.out {
		if y := k.first[i]; x != y {
			m = max(m, math.Abs(x-y)/max(math.Abs(x), math.Abs(y)))
		}
	}
	rep := &verify.Report{Tier: verify.TierGolden}
	rep.AddTol("max relerr", m, 0, tol)
	return rep
}
