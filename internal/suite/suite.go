// Package suite is the table of the eight benchmarks: one row per
// benchmark naming its constructor and its footprint model. The public
// API (npbgo) and the allocation gate (internal/allocgate) both
// enumerate it, so a benchmark is wired into the suite in exactly one
// place. Beside it, Paper lists the entries of the paper's other
// tables in the same form, which npbgo runs by name and nothing
// enumerates with the eight.
package suite

import (
	"npbgo/internal/bt"
	"npbgo/internal/cg"
	"npbgo/internal/ep"
	"npbgo/internal/ft"
	"npbgo/internal/is"
	"npbgo/internal/jgf"
	"npbgo/internal/kernel"
	"npbgo/internal/lu"
	"npbgo/internal/mg"
	"npbgo/internal/ops"
	"npbgo/internal/sp"
)

// Row is one benchmark of the suite.
type Row struct {
	Name string // the NPB name, "BT" ... "EP"
	// New builds an instance for a class ('S','W','A','B','C') and a
	// thread count >= 1, allocating its arrays; anything else is an
	// error.
	New func(class byte, threads int, env kernel.Env) (kernel.Kernel, error)
	// Footprint estimates the working-set bytes New will allocate, from
	// the benchmark's own model of its dominant arrays.
	Footprint func(class byte, threads int) (uint64, error)
}

// Rows lists the suite in the paper's table order (BT, SP, LU, FT, IS,
// CG, MG) with EP appended.
var Rows = []Row{
	{Name: "BT", New: lift(bt.New), Footprint: bt.Footprint},
	{Name: "SP", New: lift(sp.New), Footprint: sp.Footprint},
	{Name: "LU", New: lift(lu.New), Footprint: lu.Footprint},
	{Name: "FT", New: lift(ft.New), Footprint: ft.Footprint},
	{Name: "IS", New: lift(is.New), Footprint: is.Footprint},
	{Name: "CG", New: lift(cg.New), Footprint: cg.Footprint},
	{Name: "MG", New: lift(mg.New), Footprint: mg.Footprint},
	{Name: "EP", New: lift(ep.New), Footprint: ep.Footprint},
}

// Paper lists the entries of the paper's Tables 1, 0 and 7: the five
// basic CFD operations of §3 on the 81x81x100 grid (class A), serial at
// one thread and parallel at more; their nested-layout forms, serial;
// and the Java Grande LU study at classes A, B and C, serial. Their
// names are npbsuite's -bench spellings.
var Paper = []Row{
	opRow("ASSIGN", ops.Assign, false),
	opRow("STENCIL1", ops.Stencil1, false),
	opRow("STENCIL2", ops.Stencil2, false),
	opRow("MATVEC", ops.MatVec5, false),
	opRow("REDSUM", ops.Sum, false),
	opRow("ASSIGN_NESTED", ops.Assign, true),
	opRow("STENCIL1_NESTED", ops.Stencil1, true),
	opRow("STENCIL2_NESTED", ops.Stencil2, true),
	opRow("MATVEC_NESTED", ops.MatVec5, true),
	opRow("REDSUM_NESTED", ops.Sum, true),
	luRow("LUFACT", false),
	luRow("DGETRF", true),
}

func opRow(name string, o ops.Op, nested bool) Row {
	return Row{Name: name,
		New: lift(func(class byte, threads int, env kernel.Env) (*ops.Kernel, error) {
			return ops.New(o, nested, class, threads, env)
		}),
		Footprint: func(class byte, threads int) (uint64, error) { return ops.Footprint(o, nested, class, threads) }}
}

func luRow(name string, blocked bool) Row {
	return Row{Name: name,
		New: lift(func(class byte, threads int, env kernel.Env) (*jgf.LU, error) {
			return jgf.New(blocked, class, threads, env)
		}),
		Footprint: func(class byte, threads int) (uint64, error) { return jgf.Footprint(blocked, class, threads) }}
}

// Lookup returns the row or the Paper entry named name.
func Lookup(name string) (Row, bool) {
	for _, rows := range [][]Row{Rows, Paper} {
		for _, r := range rows {
			if r.Name == name {
				return r, true
			}
		}
	}
	return Row{}, false
}

// lift widens a package's constructor to the contract's, keeping a
// failed construction a nil Kernel rather than a typed nil pointer.
func lift[K kernel.Kernel](newK func(byte, int, kernel.Env) (K, error)) func(byte, int, kernel.Env) (kernel.Kernel, error) {
	return func(class byte, threads int, env kernel.Env) (kernel.Kernel, error) {
		k, err := newK(class, threads, env)
		if err != nil {
			return nil, err
		}
		return k, nil
	}
}
