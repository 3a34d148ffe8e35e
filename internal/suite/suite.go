// Package suite is the table of the eight benchmarks: one row per
// benchmark naming its constructor and its footprint model. The public
// API (npbgo) and the allocation gate (internal/allocgate) both
// enumerate it, so a benchmark is wired into the suite in exactly one
// place.
package suite

import (
	"npbgo/internal/bt"
	"npbgo/internal/cg"
	"npbgo/internal/ep"
	"npbgo/internal/ft"
	"npbgo/internal/is"
	"npbgo/internal/kernel"
	"npbgo/internal/lu"
	"npbgo/internal/mg"
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

// Lookup returns the row named name.
func Lookup(name string) (Row, bool) {
	for _, r := range Rows {
		if r.Name == name {
			return r, true
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
