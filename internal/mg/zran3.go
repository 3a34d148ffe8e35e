package mg

import (
	"math"

	"npbgo/internal/randdp"
	"npbgo/internal/team"
)

// mm is how many positive and how many negative point charges mg.f's
// zran3 plants.
const mm = 10

// cand is one extremum candidate: a field value and its flat offset.
type cand struct {
	val float64
	off int
}

// top is the mm largest candidates offered so far, ascending by value;
// a fresh one holds -Inf sentinels.
type top [mm]cand

// offer inserts c above every entry not larger than it and drops the
// smallest, as mg.f's bubble does — unless c does not strictly exceed
// the smallest, so of two equal values the one offered first stays.
func (t *top) offer(c cand) {
	if !(c.val > t[0].val) {
		return
	}
	i := 0
	for ; i+1 < mm && t[i+1].val <= c.val; i++ {
		t[i] = t[i+1]
	}
	t[i] = c
}

// charges is the right-hand side of the MG problem: where the mm
// largest values of the NPB pseudorandom field over a level's interior
// lie, and the mm smallest (held negated, so one list type serves both).
type charges struct{ large, small top }

func newCharges() (ch charges) {
	for i := range ch.large {
		ch.large[i] = cand{math.Inf(-1), -1}
	}
	ch.small = ch.large
	return ch
}

// scan offers the field values row, which start at flat offset off.
//
// Hot path: every interior value of the finest grid passes through here once per run.
func (ch *charges) scan(row []float64, off int) {
	for i, v := range row {
		if v > ch.large[0].val || -v > ch.small[0].val {
			ch.large.offer(cand{v, off + i})
			ch.small.offer(cand{-v, off + i})
		}
	}
}

// plant makes z the right-hand side: zero everywhere but -1 at the
// minima and +1 at the maxima, ghost shells refreshed — what mg.f's
// zran3 leaves in v.
func (ch *charges) plant(z []float64, l level) {
	zero3(z)
	for _, c := range ch.small {
		z[c.off] = -1.0
	}
	for _, c := range ch.large {
		z[c.off] = +1.0
	}
	comm3(z, l)
}

// findCharges locates the charges of level l on the team without ever
// storing the field. mg.f jumps the generator nx per row and nx*ny per
// plane, which for an interior of exactly nx by ny is the stream in
// memory order: each static block of planes skips to its first draw,
// fills one row at a time into the worker's row scratch and keeps its
// own lists, whose survivors are then offered to one list in block
// order. The generator repeats no value within its period, so those are
// the survivors of the whole field. rows holds each worker's row
// scratch, at least l.n1-2 long.
func findCharges(tm *team.Team, l level, rows [][]float64) charges {
	nx, ny := l.n1-2, l.n2-2
	blocks := make([]charges, tm.Size())
	tm.Run(func(id int) {
		row := rows[id][:nx]
		for it := tm.ReduceBlocks(id, 1, l.n3-1); it.Next(); {
			ch := newCharges() // a local: the blocks share cache lines
			g := randdp.New(randdp.DefaultSeed, randdp.A)
			g.Skip((it.Lo - 1) * nx * ny)
			for i3 := it.Lo; i3 < it.Hi; i3++ {
				for i2 := 1; i2 <= ny; i2++ {
					g.Fill(row)
					ch.scan(row, l.at(1, i2, i3))
				}
			}
			blocks[it.Chunk()] = ch
		}
	})
	all := newCharges()
	for _, b := range blocks {
		for i := range b.large {
			all.large.offer(b.large[i])
			all.small.offer(b.small[i])
		}
	}
	return all
}
