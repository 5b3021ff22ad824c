package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"boundschema/internal/core"
	"boundschema/internal/dirtree"
	"boundschema/internal/filter"
	"boundschema/internal/hquery"
	"boundschema/internal/loadgen"
	"boundschema/internal/shard"
	"boundschema/internal/txn"
)

// The traced run measures the inner modules from outside: it replays
// the run's op stream, in stream order, through their public functions
// on a twin directory generated from the same seed, with a span around
// every call.

// coldFilters are the first SEARCH on each attribute the workloads
// probe; the first probe of an attribute builds its value index.
var coldFilters = []string{
	"(name=person 1)",
	"(mail=p1-0@example.org)",
	"(location=bldg-1)",
	"(cellularPhone=+1 555 0001)",
}

// replayStats are the ratios the replay measures besides span times.
type replayStats struct {
	examined, matched int
	diverged          []string
}

// replay runs the op stream through txn, dirtree, filter and hquery on
// twin, as the server's COMMIT, GET and SEARCH paths call them.
func replay(tr *tracer, schema *core.Schema, twin *dirtree.Directory, ops []op) *replayStats {
	st := &replayStats{}
	twin.EnsureEncoded()
	for _, fs := range coldFilters {
		f, err := filter.Parse(fs)
		if err != nil {
			st.diverged = append(st.diverged, err.Error())
			continue
		}
		tr.timed("dirtree.index_build", -1, -1, func() { hquery.EvalSelect(f, twin.All()) })
	}
	applier := txn.NewApplier(schema)
	applier.Counts = txn.NewCountIndex(twin)
	applier.NarrowDeletes = true
	reg := twin.Registry()
	var render strings.Builder
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case kGet:
			root := tr.begin("replay.get", -1, i)
			tr.timed("dirtree.lookup", root, i, func() {
				render.Reset()
				e := twin.ByDN(o.dn)
				if e == nil {
					return
				}
				render.WriteString("dn: " + e.DN())
				for _, name := range e.AttrNames() {
					for _, v := range e.Attr(name) {
						render.WriteString(name + ": " + v.String())
					}
				}
			})
			tr.end(root)
			if render.Len() == 0 {
				st.diverged = append(st.diverged, "replay GET "+o.dn+": no entry")
			}
		case kSearch:
			root := tr.begin("replay.search", -1, i)
			var f filter.Filter
			var err error
			tr.timed("filter.parse", root, i, func() { f, err = filter.Parse(o.q.filter) })
			if err != nil {
				tr.end(root)
				st.diverged = append(st.diverged, "replay "+o.q.line()+": "+err.Error())
				continue
			}
			view := twin.All()
			if o.q.base != "" {
				b := twin.ByDN(o.q.base)
				if b == nil {
					tr.end(root)
					st.diverged = append(st.diverged, "replay "+o.q.line()+": base not found")
					continue
				}
				view = twin.SubtreeView(b)
			}
			var plan hquery.Plan
			var matches []*dirtree.Entry
			tr.timed("hquery.plan", root, i, func() { plan = hquery.PlanSelect(f, view) })
			tr.timed("hquery.eval", root, i, func() { matches, _ = hquery.EvalSelect(f, view) })
			tr.end(root)
			st.examined += plan.Est
			st.matched += len(matches)
		default:
			root := tr.begin("replay.commit", -1, i)
			tx, err := o.transaction(reg)
			if err != nil {
				tr.end(root)
				st.diverged = append(st.diverged, "replay "+kindNames[o.kind]+" "+o.dn+": "+err.Error())
				continue
			}
			var norm *txn.Normalized
			tr.timed("txn.normalize", root, i, func() { norm, err = txn.Normalize(twin, tx) })
			var rep *core.Report
			if err == nil {
				tr.timed("txn.apply", root, i, func() { rep, err = applier.ApplyNormalized(twin, norm) })
			}
			tr.timed("dirtree.encode", root, i, func() { twin.EnsureEncoded() })
			var buf bytes.Buffer
			tr.timed("txn.journal_encode", root, i, func() { tx.WriteChanges(&buf) })
			tr.end(root)
			if err != nil || !rep.Legal() {
				st.diverged = append(st.diverged, fmt.Sprintf("replay %s %s: err=%v report=%v", kindNames[o.kind], o.dn, err, rep))
			}
		}
	}
	return st
}

// checkTwin times the two halves of the full legality check (Thm 3.1)
// on the replayed twin, three times each.
func checkTwin(tr *tracer, schema *core.Schema, twin *dirtree.Directory) {
	ch := core.NewChecker(schema)
	for i := 0; i < 3; i++ {
		tr.timed("core.check_content", -1, -1, func() { ch.CheckContent(twin) })
		tr.timed("core.check_structure", -1, -1, func() { ch.CheckStructure(twin) })
	}
}

// commitTwin commits up to limit write ops through Server.CommitTx on an
// unreplicated server with its own real journal: the server's commit
// path without the session and the wire.
func commitTwin(tr *tracer, base *dirtree.Directory, ops []op, jdir string, limit int) error {
	n, err := bootNode("twin", filepath.Join(jdir, "twin.journal"), base, nil, nil)
	if err != nil {
		return err
	}
	defer n.srv.Close()
	reg := base.Registry()
	done := 0
	for i := range ops {
		if !ops[i].kind.isWrite() {
			continue
		}
		if done == limit {
			break
		}
		tx, err := ops[i].transaction(reg)
		if err != nil {
			return err
		}
		var rep *core.Report
		tr.timed("server.committx", -1, i, func() { rep, err = n.srv.CommitTx(tx) })
		if err != nil || !rep.Legal() {
			return fmt.Errorf("twin CommitTx %s: err=%v report=%v", ops[i].dn, err, rep)
		}
		done++
	}
	return nil
}

// routerProbe measures the shard layer from outside. The final instance
// is carved the way a sharded deployment boots: shard.AutoCut(…, 2),
// shard.Carve with spine ghosts, one node per shard on its own journal
// and a shard.Router in front. The same request is then sent through
// the router and straight to the shard(s) behind it. The router's CHECK
// adds the coordinator's audit of the relationships that span a cut.
type routerProbe struct {
	routeGetUS, fanoutSearchUS, checkAuditMS float64
}

func probeShards(tr *tracer, g *gate, schema *core.Schema, final *dirtree.Directory, jdir string, gets []string, qs []searchQ) (*routerProbe, error) {
	cutRoots, err := shard.AutoCut(schema, final, 2)
	if err != nil {
		return nil, fmt.Errorf("autocut: %v", err)
	}
	var carved []*shard.Shard
	for i, rs := range cutRoots {
		if len(rs) > 0 {
			carved = append(carved, &shard.Shard{Name: fmt.Sprintf("s%d", i), Addr: "pending", Roots: rs})
		}
	}
	if len(carved) == 0 {
		return nil, fmt.Errorf("autocut found no cuttable subtree")
	}
	cut, err := shard.NewMap(carved, &shard.Shard{Name: "rest", Addr: "pending"})
	if err != nil {
		return nil, err
	}
	dirs, err := shard.Carve(final, cut)
	if err != nil {
		return nil, fmt.Errorf("carve: %v", err)
	}
	var bound []*shard.Shard
	var def *shard.Shard
	for _, sh := range cut.All() {
		roots := sh.Roots
		if roots == nil {
			roots = []string{}
		}
		n, err := bootNode(sh.Name, filepath.Join(jdir, sh.Name+".journal"), dirs[sh.Name], roots, nil)
		if err != nil {
			return nil, err
		}
		defer n.srv.Close()
		g.verify(sh.Name, n.addr)
		b := &shard.Shard{Name: sh.Name, Addr: n.addr, Roots: sh.Roots}
		if len(sh.Roots) == 0 {
			def = b
		} else {
			bound = append(bound, b)
		}
	}
	m, err := shard.NewMap(bound, def)
	if err != nil {
		return nil, err
	}
	rt := shard.NewRouter(m)
	rtAddr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	via, err := loadgen.Dial(rtAddr)
	if err != nil {
		return nil, err
	}
	defer via.Close()
	direct := map[string]*loadgen.Client{}
	for _, sh := range m.All() {
		cl, err := loadgen.Dial(sh.Addr)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		direct[sh.Name] = cl
	}
	timedDo := func(name string, cl *loadgen.Client, line string) (time.Duration, error) {
		var resp loadgen.Resp
		var err error
		d := tr.timed(name, -1, -1, func() { resp, err = cl.Do(line) })
		if err == nil && !resp.OK() {
			err = fmt.Errorf("%s: %s %s", line, resp.Term, resp.Err)
		}
		return d, err
	}
	p := &routerProbe{}
	var sum time.Duration
	for _, dn := range gets {
		r, err := timedDo("router.get", via, "GET "+dn)
		if err != nil {
			return nil, err
		}
		d, err := timedDo("direct.get", direct[m.Owner(dn).Name], "GET "+dn)
		if err != nil {
			return nil, err
		}
		sum += r - d
	}
	p.routeGetUS = float64(sum.Nanoseconds()) / 1e3 / float64(len(gets))
	sum = 0
	for _, q := range qs {
		r, err := timedDo("router.search", via, q.line())
		if err != nil {
			return nil, err
		}
		// The router sends each shard the filter without the limit and
		// merges; the slowest shard bounds the fan-out.
		var slowest time.Duration
		for _, sh := range m.All() {
			d, err := timedDo("direct.search", direct[sh.Name], "SEARCH "+q.filter)
			if err != nil {
				return nil, err
			}
			slowest = max(slowest, d)
		}
		sum += r - slowest
	}
	p.fanoutSearchUS = float64(sum.Nanoseconds()) / 1e3 / float64(len(qs))
	var viaCk, directCk []float64
	for i := 0; i < 3; i++ {
		r, err := timedDo("router.check", via, "CHECK")
		if err != nil {
			return nil, err
		}
		var slowest time.Duration
		for _, sh := range m.All() {
			d, err := timedDo("direct.check", direct[sh.Name], "CHECK")
			if err != nil {
				return nil, err
			}
			slowest = max(slowest, d)
		}
		viaCk = append(viaCk, float64(r.Nanoseconds())/1e6)
		directCk = append(directCk, float64(slowest.Nanoseconds())/1e6)
	}
	p.checkAuditMS = median(viaCk) - median(directCk)
	return p, nil
}
