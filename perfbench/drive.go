package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"boundschema/internal/loadgen"
)

// tally is what one load loop observed: per-kind latencies in
// microseconds, attempts and failures.
type tally struct {
	lat      [nKinds][]float64
	commits  []float64 // create, move and delete latencies in send order
	attempts int
	ok       int
	failed   int
	failures []string // first few, for the report
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.commits = append(t.commits, o.commits...)
	t.attempts += o.attempts
	t.ok += o.ok
	t.failed += o.failed
	if len(t.failures) < 5 {
		t.failures = append(t.failures, o.failures...)
	}
}

func (t *tally) note(k opKind, d time.Duration) {
	us := float64(d.Nanoseconds()) / 1e3
	t.lat[k] = append(t.lat[k], us)
	if k.isWrite() {
		t.commits = append(t.commits, us)
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, msg)
	}
}

// session is one client: a read connection and a write connection, as
// an LDAP client would keep for lookups and updates.
type session struct {
	read, write *loadgen.Client
}

func dialSession(addr string) (*session, error) {
	r, err := loadgen.Dial(addr)
	if err != nil {
		return nil, err
	}
	w, err := loadgen.Dial(addr)
	if err != nil {
		r.Close()
		return nil, err
	}
	return &session{read: r, write: w}, nil
}

func (s *session) close() {
	s.read.Close()
	s.write.Close()
}

// do sends one op and checks its reply: a write must answer OK, a GET
// must return the entry it named, a SEARCH must answer OK. It returns
// "" or what failed.
func (s *session) do(o *op) string {
	line, body := o.wire()
	var resp loadgen.Resp
	var err error
	if o.kind.isWrite() {
		resp, err = s.write.Txn(body)
	} else {
		resp, err = s.read.Do(line)
	}
	switch {
	case err != nil:
		return fmt.Sprintf("%s %s: transport: %v", kindNames[o.kind], o.dn, err)
	case !resp.OK():
		return fmt.Sprintf("%s %s%s: %s %s", kindNames[o.kind], o.dn, o.q.filter, resp.Term, resp.Err)
	case o.kind == kGet && (len(resp.Lines) == 0 || resp.Lines[0] != "dn: "+o.dn):
		return fmt.Sprintf("get %s: reply names another entry: %.80q", o.dn, strings.Join(resp.Lines, "|"))
	}
	return ""
}

// closedLoop runs ops back to back on one session: each request is sent
// when the previous reply arrived.
func closedLoop(s *session, ops []op, tr *tracer, opBase int) *tally {
	t := &tally{}
	for i := range ops {
		o := &ops[i]
		start := time.Now()
		sp := tr.begin("client."+kindNames[o.kind], -1, opBase+i)
		msg := s.do(o)
		tr.end(sp)
		end := time.Now()
		t.attempts++
		if msg != "" {
			t.fail(msg)
			continue
		}
		t.ok++
		t.note(o.kind, end.Sub(start))
	}
	return t
}

// part is one of the nParts consecutive slices a timed loop is split
// into, with its wall time. Latency and throughput figures are the
// median over the parts, so a burst of outside load that hits one part
// does not set the figure.
type part struct {
	t    *tally
	wall time.Duration
}

func runParts(s *session, ops []op, tr *tracer, opBase int) []part {
	parts := make([]part, 0, nParts)
	for i := 0; i < nParts; i++ {
		lo, hi := i*len(ops)/nParts, (i+1)*len(ops)/nParts
		start := time.Now()
		t := closedLoop(s, ops[lo:hi], tr, opBase+lo)
		parts = append(parts, part{t: t, wall: time.Since(start)})
	}
	return parts
}

func mergeParts(ps []part) *tally {
	t := &tally{}
	for _, p := range ps {
		t.merge(p.t)
	}
	return t
}

// partQuantile is the median over the parts of each part's q-quantile
// of the latencies sel picks.
func partQuantile(ps []part, sel func(*tally) []float64, q float64) float64 {
	var qs []float64
	for _, p := range ps {
		if xs := sel(p.t); len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// partThroughput is the median over the parts of successful ops per
// wall second.
func partThroughput(ps []part) float64 {
	var rs []float64
	for _, p := range ps {
		rs = append(rs, float64(p.t.ok)/p.wall.Seconds())
	}
	return median(rs)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
