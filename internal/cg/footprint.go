package cg

import "fmt"

// Footprint estimates the peak working-set bytes a CG run of the given
// class allocates. makea allocates the CSR arrays at the NPB bound of
// na·(nonzer+1)² nonzeros (12 bytes each; duplicates leave slack that
// is closed up in place, not freed) beside the na recorded sparse
// vectors and their per-column index (24 bytes per vector entry) and
// its per-row and per-column counts (about 49 bytes a row). New converts
// the CSR arrays into the SELL ones in their own storage, whose slots,
// the non-zeros and a chunk's padding, stay under the bound (4-8 % at
// classes S-A), through a scratch copy of one window's non-zeros, and
// adds a position's row, a chunk's offsets and lane lengths and the
// check's scratch (about 17 bytes a row). The solver vectors add 5·na
// words and makea's row pointers one more. Feeds the harness memory
// admission guard; dominant arrays only.
func Footprint(class byte, threads int) (uint64, error) {
	p, ok := classes[class]
	if !ok {
		return 0, fmt.Errorf("cg: unknown class %q", string(class))
	}
	_ = threads // per-thread state is O(1)
	na, w := uint64(p.na), uint64(p.nonzer+1)
	build := na*w*w*12 + na*w*24 + na*49 // CSR, then SELL (a float64, colidx int32) + vv, vi, colref + counts
	sell := sigma*w*w*12 + na*17         // a window's scratch; row, start, off, lens, check's seen
	vectors := na * 8 * 6                // x,z,pv,q,r + rowstr
	return build + sell + vectors, nil
}
