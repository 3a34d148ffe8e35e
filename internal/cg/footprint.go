package cg

import "fmt"

// Footprint estimates the peak working-set bytes a CG run of the given
// class allocates. The matrix build (makea) is the peak: the CSR arrays
// are allocated at the NPB bound of na·(nonzer+1)² nonzeros (12 bytes
// each; duplicates leave slack that is closed up in place, not freed)
// beside the na recorded sparse vectors and their per-column index
// (24 bytes per vector entry). The solver vectors add 6·na words.
// Feeds the harness memory admission guard; dominant arrays only.
func Footprint(class byte, threads int) (uint64, error) {
	p, ok := classes[class]
	if !ok {
		return 0, fmt.Errorf("cg: unknown class %q", string(class))
	}
	_ = threads // per-thread state is O(1); ballast is test-only
	na, w := uint64(p.na), uint64(p.nonzer+1)
	build := na*w*w*12 + na*w*24 // CSR (a float64, colidx int32) + vv, vi, colref
	vectors := na * 8 * 6        // x,z,pv,q,r + rowstr
	return build + vectors, nil
}
