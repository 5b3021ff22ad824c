package main

import (
	"bytes"
	"fmt"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
	"boundschema/internal/ldif"
	"boundschema/internal/loadgen"
)

// The correctness gate runs at the end of every run. Each check is
// linear in |D|: the full legality check, one pass per sampled SEARCH,
// byte comparisons of snapshots. (loadgen.Oracle and core.DiffEngines
// are not used: their naive engine is quadratic.)

// gate collects failed checks.
type gate struct{ failures []string }

func (g *gate) failf(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

func (g *gate) ok() bool { return len(g.failures) == 0 }

// verify sends VERIFY (journal re-scan plus full legality check) to a
// node.
func (g *gate) verify(name, addr string) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		g.failf("VERIFY %s: %v", name, err)
		return
	}
	defer c.Close()
	resp, err := c.Do("VERIFY")
	if err != nil || !resp.OK() {
		g.failf("VERIFY %s: %v %s %s", name, err, resp.Term, resp.Err)
	}
}

// parseLegal re-parses a Server.Snapshot and runs the full legality
// check (Thm 3.1) on it with core.Checker.
func parseLegal(schema *core.Schema, snap []byte) (*dirtree.Directory, error) {
	d, err := ldif.ReadDirectory(bytes.NewReader(snap), schema.Registry)
	if err != nil {
		return nil, fmt.Errorf("snapshot does not parse: %v", err)
	}
	if r := core.NewChecker(schema).Check(d); !r.Legal() {
		return nil, fmt.Errorf("snapshot is illegal: %d violation(s), first: %s", len(r.Violations), r.Violations[0])
	}
	return d, nil
}

// bruteSearch evaluates a SEARCH by walking the instance and testing
// filter.Matches on every entry under the base, with no index or plan.
// It returns nil, false when the base is absent from d.
func bruteSearch(d *dirtree.Directory, q searchQ) (map[string]bool, bool) {
	f, err := filter.Parse(q.filter)
	if err != nil {
		return nil, false
	}
	roots := d.Roots()
	if q.base != "" {
		b := d.ByDN(q.base)
		if b == nil {
			return nil, false
		}
		roots = []*dirtree.Entry{b}
	}
	out := map[string]bool{}
	var walk func(e *dirtree.Entry)
	walk = func(e *dirtree.Entry) {
		if f.Matches(e) {
			out[e.DN()] = true
		}
		for _, c := range e.Children() {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out, true
}

// searches sends each sampled SEARCH over the wire and compares the
// reply with a brute scan of d. With a limit the reply must hold
// min(limit, all) entries, every one a match.
func (g *gate) searches(addr string, qs []searchQ, d *dirtree.Directory) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		g.failf("gate SEARCH: %v", err)
		return
	}
	defer c.Close()
	for _, q := range qs {
		want, ok := bruteSearch(d, q)
		if !ok {
			g.failf("gate %s: base or filter not valid in the instance", q.line())
			continue
		}
		resp, err := c.Do(q.line())
		if err != nil || !resp.OK() {
			g.failf("gate %s: %v %s %s", q.line(), err, resp.Term, resp.Err)
			continue
		}
		n := len(want)
		if q.limit >= 0 && q.limit < n {
			n = q.limit
		}
		if len(resp.Lines) != n {
			g.failf("gate %s: %d entries, brute scan expects %d", q.line(), len(resp.Lines), n)
			continue
		}
		for _, dn := range resp.Lines {
			if !want[dn] {
				g.failf("gate %s: %q is not a match", q.line(), dn)
				break
			}
		}
	}
}

// semisyncDegraded reads the primary's replication gauge from METRICS.
func semisyncDegraded(m serverMetrics) bool {
	r, ok := m["replication"]
	return !ok || r["semisync_degraded"] != 0
}
