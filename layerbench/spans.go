package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark records around a call into a
// layer, or one stage span it imports from the program's own job trace.
// Times are wall-clock nanoseconds so that imported spans (which carry
// wall-clock times only) and recorded ones share one axis.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the traced pass's spans in memory; they are written out
// once the pass ends. A nil *recorder is the untraced mode: every method
// is a no-op, so the measured code paths are identical apart from the
// recording itself.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	roots  map[string]int // job → root span
	active int            // span that HTTP requests are attributed to (one job runs at a time)
}

func (r *recorder) enabled() bool { return r != nil }

// start opens a span and returns its ID (0 when untraced).
func (r *recorder) start(name, layer, job string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	now := time.Now().UnixNano()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Job: job, Start: now, End: now})
	if parent == 0 && job != "" {
		if r.roots == nil {
			r.roots = map[string]int{}
		}
		r.roots[job] = id
	}
	return id
}

// root is the latest root span opened for job (0 if none).
func (r *recorder) root(job string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roots[job]
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a finished interval under parent.
func (r *recorder) add(name, layer, job string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Job: job,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// setActive makes id the parent of spans whose caller cannot name one
// (the HTTP transport); 0 clears it.
func (r *recorder) setActive(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.active = id
	r.mu.Unlock()
}

func (r *recorder) activeSpan() (id int, job string) {
	if r == nil {
		return 0, ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active == 0 {
		return 0, ""
	}
	return r.active, r.spans[r.active-1].Job
}

// nest gives the parentless spans of job (other than root) the innermost
// span of that job whose interval contains them: imported program stage
// spans land under the recorded call that was open while they ran.
func (r *recorder) nest(job string, root int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var mine []int
	for i, s := range r.spans {
		if s.Job == job {
			mine = append(mine, i)
		}
	}
	for _, i := range mine {
		s := &r.spans[i]
		if s.Parent != 0 || s.ID == root {
			continue
		}
		best := root
		bestDur := int64(-1)
		for _, j := range mine {
			c := r.spans[j]
			if c.ID == s.ID || c.Parent == 0 && c.ID != root {
				continue
			}
			if c.Start <= s.Start && s.End <= c.End && (bestDur < 0 || c.dur() < bestDur) {
				best, bestDur = c.ID, c.dur()
			}
		}
		s.Parent = best
	}
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	data, err := json.MarshalIndent(r.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, and a child reaching outside its parent counts only
// inside it.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
