package team

import "npbgo/internal/trace"

// Pipeline provides the point-to-point ordering used by LU's parallel
// SSOR sweeps. The lower/upper triangular solves carry a dependence along
// one grid dimension, so the OpenMP NPB (and the paper's Java port)
// pipeline them: worker w may process plane k of its block only after
// worker w-1 has finished plane k of the neighbouring block. The paper
// identifies exactly this per-plane synchronization inside the k loop as
// the reason LU scales worse than BT and SP.
//
// Each worker owns two gates counting the stages it has completed, one
// per sweep direction: Post(id) advances the forward one and Wait(id)
// holds until the predecessor's has passed the tokens this worker has
// consumed, through the same poll-then-park wait as the barrier. Counts
// only grow and the directions do not share them, so a forward sweep, a
// reverse sweep and the next forward sweep can follow each other in one
// region with nothing in between.
//
// A pipeline, built with Team.NewPipeline, shares the team's wait state
// and probe: a failed region or a cancelled team unwinds a worker
// waiting for a token as it does one at a barrier, the wait is charged
// to the worker's wait slot — so LU's pipeline stalls show in the
// imbalance diagnostics — and a wait that finds no token ready is a span
// on its trace timeline.
type Pipeline struct {
	l        *lot
	fwd, rev []gate     // stages completed by each worker, per direction
	used     []pipeUsed // tokens consumed by each worker
	probe    *Probe
}

// pipeUsed is a worker's consumed-token counts on their own cache line;
// only that worker touches them.
type pipeUsed struct {
	fwd, rev uint64
	_        [48]byte
}

// NewPipeline creates a Pipeline sized for the team and wired to its
// wait state and probe. steps, the number of ordered stages per sweep,
// is not needed by counting tokens and is kept for the callers that
// state it.
func (t *Team) NewPipeline(steps int) *Pipeline {
	n := t.n
	return &Pipeline{l: &t.lot, fwd: make([]gate, n), rev: make([]gate, n), used: make([]pipeUsed, n), probe: t.probe}
}

// recv consumes worker id's next token from gate g, counting it in
// *used. A token already posted costs one load; only a wait that finds
// none is timed and traced.
func (p *Pipeline) recv(id int, g *gate, used *uint64) {
	*used++
	tok := *used
	if g.v.Load() >= tok {
		return
	}
	var ok bool
	if pr := p.probe; pr != nil {
		ok = pr.pipeWait(p.l, g, tok, id)
	} else {
		ok = p.l.wait(g, tok, true)
	}
	if !ok {
		panic(regionAbort{})
	}
}

// send posts worker id's next token on its gate g.
func (p *Pipeline) send(id int, g *gate) {
	g.v.Add(1)
	p.l.release(g)
	if pr := p.probe; pr != nil {
		pr.tr.Log(id, trace.Post, "")
	}
}

// Wait blocks worker id until its predecessor (id-1) has posted one more
// completed stage. Worker 0 has no predecessor and never blocks.
func (p *Pipeline) Wait(id int) {
	if id > 0 {
		p.recv(id, &p.fwd[id-1], &p.used[id].fwd)
	}
}

// Post records that worker id has completed one more stage, releasing
// its successor. The last worker has none and posts nothing.
func (p *Pipeline) Post(id int) {
	if id < len(p.fwd)-1 {
		p.send(id, &p.fwd[id])
	}
}

// WaitReverse blocks worker id until its successor (id+1) has posted one
// completed stage; used by the upper-triangular sweep, which runs the
// pipeline in the opposite direction.
func (p *Pipeline) WaitReverse(id int) {
	if id < len(p.rev)-1 {
		p.recv(id, &p.rev[id+1], &p.used[id].rev)
	}
}

// PostReverse records a completed stage for the reverse sweep,
// releasing worker id-1.
func (p *Pipeline) PostReverse(id int) {
	if id > 0 {
		p.send(id, &p.rev[id])
	}
}

// Drain forgets every token posted and consumed, so a Pipeline whose
// sweep did not run to its end, or ran more posts than waits, can be
// used again. Call it from a single goroutine with no sweep in flight
// (e.g. between regions).
func (p *Pipeline) Drain() {
	for i := range p.used {
		p.fwd[i].v.Store(0)
		p.rev[i].v.Store(0)
		p.used[i] = pipeUsed{}
	}
}
