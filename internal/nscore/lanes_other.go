// Code generated by lanegen from kernels.go; DO NOT EDIT.

//go:build !amd64

package nscore

// Without amd64 there are no kernels in assembly: simd.Width is 1 and
// every wrapper runs the scalar body. These stubs only keep lanes.go
// compiling.

const noAVX = "nscore: AVX kernels exist only on amd64"

func fluxRhoAVX(r, dis, up, u, um, mvp, mvm *float64, d1, t2 float64, groups int) { panic(noAVX) }

func fluxRhoAVX512(r, dis, up, u, um, mvp, mvm *float64, d1, t2 float64, groups int) { panic(noAVX) }

func fluxMomAVX(r, dis, up, u, um, wp, w, wm, vp, vm *float64, dm, con2, t2 float64, groups int) {
	panic(noAVX)
}

func fluxMomAVX512(r, dis, up, u, um, wp, w, wm, vp, vm *float64, dm, con2, t2 float64, groups int) {
	panic(noAVX)
}

func fluxMomAlongAVX(r, dis, up, u, um, vp, v, vm, u4p, u4m, sqp, sqm *float64, dm, con2, con43, t2, c2 float64, groups int) {
	panic(noAVX)
}

func fluxMomAlongAVX512(r, dis, up, u, um, vp, v, vm, u4p, u4m, sqp, sqm *float64, dm, con2, con43, t2, c2 float64, groups int) {
	panic(noAVX)
}

func fluxEnergyHeadAVX(t, up, u, um, qp, q, qm, vp, v, vm *float64, d5, con3, con4 float64, groups int) {
	panic(noAVX)
}

func fluxEnergyHeadAVX512(t, up, u, um, qp, q, qm, vp, v, vm *float64, d5, con3, con4 float64, groups int) {
	panic(noAVX)
}

func fluxEnergyTailAVX(r, dis, t, gp, u, rhoI, gm, hp, hm, vp, vm *float64, con5, t2 float64, groups int) {
	panic(noAVX)
}

func fluxEnergyTailAVX512(r, dis, t, gp, u, rhoI, gm, hp, hm, vp, vm *float64, con5, t2 float64, groups int) {
	panic(noAVX)
}

func primAVX(rhoI, us, vs, ws, sq, qs, u0, u1, u2, u3 *float64, groups int) { panic(noAVX) }

func primAVX512(rhoI, us, vs, ws, sq, qs, u0, u1, u2, u3 *float64, groups int) { panic(noAVX) }

func primEnergyAVX(ge, he, u4, rhoI, sq *float64, c1, c2 float64, groups int) { panic(noAVX) }

func primEnergyAVX512(ge, he, u4, rhoI, sq *float64, c1, c2 float64, groups int) { panic(noAVX) }

func soundSpeedAVX(speed, u4, rhoI, sq *float64, c1c2 float64, groups int) { panic(noAVX) }

func soundSpeedAVX512(speed, u4, rhoI, sq *float64, c1c2 float64, groups int) { panic(noAVX) }

func scaleAVX(r *float64, dt float64, groups int) { panic(noAVX) }

func scaleAVX512(r *float64, dt float64, groups int) { panic(noAVX) }

func dissFirstAVX(d, u, u1, u2 *float64, dssp float64, groups int) { panic(noAVX) }

func dissFirstAVX512(d, u, u1, u2 *float64, dssp float64, groups int) { panic(noAVX) }

func dissSecondAVX(d, um1, u, u1, u2 *float64, dssp float64, groups int) { panic(noAVX) }

func dissSecondAVX512(d, um1, u, u1, u2 *float64, dssp float64, groups int) { panic(noAVX) }

func dissInnerAVX(d, um2, um1, u, u1, u2 *float64, dssp float64, groups int) { panic(noAVX) }

func dissInnerAVX512(d, um2, um1, u, u1, u2 *float64, dssp float64, groups int) { panic(noAVX) }

func dissPenultAVX(d, um2, um1, u, u1 *float64, dssp float64, groups int) { panic(noAVX) }

func dissPenultAVX512(d, um2, um1, u, u1 *float64, dssp float64, groups int) { panic(noAVX) }

func dissLastAVX(d, um2, um1, u *float64, dssp float64, groups int) { panic(noAVX) }

func dissLastAVX512(d, um2, um1, u *float64, dssp float64, groups int) { panic(noAVX) }
