package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary: name, start and end
// relative to the tracer's origin, the span that caused it (-1 for a
// root) and the op of the stream it belongs to (-1 for none).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = time.Since(t.origin)
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent, op int, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name   string
	count  int
	total  time.Duration
	self   time.Duration
	meanUS float64 // mean duration per span
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		dur := s.end - s.start
		self := dur - covered(t.spans, children[i], s.start, s.end)
		r := rows[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			rows[s.name] = r
		}
		r.count++
		r.total += dur
		r.self += self
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.meanUS = float64(r.total.Nanoseconds()) / 1e3 / float64(r.count)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the child intervals, clipped
// to the parent's [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		s := spans[k]
		if s.end < 0 {
			continue
		}
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			sum += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// meanUS is the mean duration of the named spans in microseconds, or
// NaN when there are none.
func meanUS(rows []layerRow, name string) float64 {
	for _, r := range rows {
		if r.name == name {
			return r.meanUS
		}
	}
	return math.NaN()
}

func printSelfTimes(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "# per-layer self time (traced run)\n")
	fmt.Fprintf(w, "#   %-26s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_us")
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-26s %9d %12.3f %12.3f %12.3f\n", r.name, r.count,
			float64(r.total.Nanoseconds())/1e6, float64(r.self.Nanoseconds())/1e6, r.meanUS)
	}
}

// writeSpans dumps every span as tab-separated id, parent, op, name,
// start_ns, end_ns.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
