package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"twobssd/internal/sim"
)

// span is one benchmark-side span: a call into a layer or a phase of
// the run. Host times are ns since the recorder started; virtual times
// are the simulation clock of the environment the call ran in.
type span struct {
	Name      string `json:"name"`
	Parent    int32  `json:"parent"` // index of the enclosing phase, -1 for a phase
	Op        uint64 `json:"op"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

// spans records benchmark spans in memory. A nil *spans records
// nothing, which is how untraced runs call the same code.
type spans struct {
	t0    time.Time
	list  []span
	phase int32
}

func newSpans() *spans { return &spans{t0: time.Now(), phase: -1} }

// spanRef is an open span; its zero value (from a nil recorder) is inert.
type spanRef struct {
	s *spans
	i int
}

// begin opens a call span under the current phase.
func (s *spans) begin(name string, now sim.Time, op uint64) spanRef {
	if s == nil {
		return spanRef{}
	}
	s.list = append(s.list, span{
		Name: name, Parent: s.phase, Op: op,
		HostStart: int64(time.Since(s.t0)), VirtStart: int64(now),
	})
	return spanRef{s, len(s.list) - 1}
}

// beginPhase opens a phase span; calls opened until it ends are its
// children.
func (s *spans) beginPhase(name string, now sim.Time) spanRef {
	if s == nil {
		return spanRef{}
	}
	r := s.begin(name, now, 0)
	s.list[r.i].Parent = -1
	s.phase = int32(r.i)
	return r
}

// end closes the span at virtual time now.
func (r spanRef) end(now sim.Time) {
	if r.s == nil {
		return
	}
	sp := &r.s.list[r.i]
	sp.HostEnd = int64(time.Since(r.s.t0))
	sp.VirtEnd = int64(now)
	if r.s.phase == int32(r.i) {
		r.s.phase = -1
	}
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
