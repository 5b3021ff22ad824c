package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"boundschema/internal/dirtree"
	"boundschema/internal/loadgen"
	"boundschema/internal/workload"
)

const (
	checkReps     = 11   // wire CHECKs behind check_ms
	nParts        = 5    // parts a timed loop is split into; figures are medians over them
	restartReps   = 3    // restarts behind restart_s
	gateSearches  = 20   // SEARCHes compared with a brute scan
	minSamples    = 200  // fewest phase samples behind a latency figure
	probeOps      = 5000 // ops of a quiesced probe
	routerGets    = 200  // GETs of the router probe
	routerQueries = 30   // fan-out SEARCHes of the router probe
	twinCommits   = 1500 // Server.CommitTx calls on the twin server
)

// run performs one measured run of cfg.workload and returns its result.
// Progress lines go to log.
func run(cfg config, log io.Writer) (*result, error) {
	sp := specByName(cfg.workload)
	res := &result{stamp: stamp(cfg)}
	t0 := time.Now()
	stage := func(name string) { fmt.Fprintf(log, "# %7.2fs %s done\n", time.Since(t0).Seconds(), name) }
	g := &gate{}
	schema := workload.WhitePagesSchema()
	newCorpus := func() *dirtree.Directory {
		return workload.Corpus(schema, rand.New(rand.NewSource(cfg.seed)), cfg.entries)
	}

	// Input preparation, outside every timing: corpus, pools and the op
	// stream. The live heap of the inputs, less the corpus (whose only
	// copies end up inside the nodes), is subtracted from heap_mb.
	h0 := liveHeap()
	corpus := newCorpus()
	h1 := liveHeap()
	entries0 := corpus.Len()
	p := newPools(corpus, sp.uniformReads)
	gen := &generator{spec: sp, p: p, rng: rand.New(rand.NewSource(cfg.seed + 1))}
	nPhase := max(50, int(sp.rate*float64(cfg.seconds)))
	nWarm := max(50, nPhase/20)
	ops := make([]op, 0, nWarm+nPhase)
	for len(ops) < cap(ops) {
		ops = append(ops, gen.next())
	}
	// A mix that sends fewer than minSamples GETs or SEARCHes in the
	// phase gets a quiesced probe of that kind after it; the kind's
	// figures are then taken over the probe.
	var inPhase [nKinds]int
	for _, o := range ops[nWarm:] {
		inPhase[o.kind]++
	}
	var probe []op
	for _, k := range []opKind{kGet, kSearch} {
		if inPhase[k] < minSamples {
			for i := 0; i < min(probeOps, cfg.entries/10); i++ {
				probe = append(probe, gen.read(k))
			}
		}
	}
	var gateQs, fanQs []searchQ
	for i := 0; i < gateSearches; i++ {
		gateQs = append(gateQs, gen.search())
	}
	for len(fanQs) < routerQueries {
		if q := gen.search(); q.base == "" {
			fanQs = append(fanQs, q)
		}
	}
	var probeGets []string
	for i := 0; i < routerGets; i++ {
		probeGets = append(probeGets, pick(gen.rng, p.hot))
	}
	wantEntries := entries0 + gen.creates - gen.deletes
	inputs := liveHeap() - (h1 - h0)

	stage("inputs")
	jroot, err := makeTempDir(cfg.out, "journals-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jroot)

	// Set-up, several times; setup_s is the median. Every boot but the
	// last is torn down with its journals. Every boot gets clones: a
	// cloned directory is laid out in memory differently from the
	// generated one, and all boots must be alike.
	var setups, colds []float64
	var cl *cluster
	for rep := 0; rep < cfg.setupReps; rep++ {
		last := rep == cfg.setupReps-1
		primary := corpus.Clone()
		var replica *dirtree.Directory
		if sp.replicated {
			replica = corpus.Clone()
		}
		if last {
			corpus = nil
		}
		jdir := filepath.Join(jroot, fmt.Sprint(rep))
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // collect the previous boot and the clones outside the timing
		c, d, err := boot(primary, replica, jdir)
		if err != nil {
			return nil, fmt.Errorf("boot: %v", err)
		}
		setups = append(setups, d.Seconds())
		ms, err := coldSearch(c.primary.addr)
		if err != nil {
			c.close()
			return nil, err
		}
		colds = append(colds, ms)
		if last {
			cl = c
		} else {
			c.close()
			if err := os.RemoveAll(jdir); err != nil {
				return nil, err
			}
		}
	}
	defer func() { cl.close() }()
	fmt.Fprintf(log, "# %s: booted %d node(s) in %.3fs (median of %d)\n", sp.name, len(cl.nodes()), median(setups), len(setups))

	stage("set-up")
	sess, err := dialSession(cl.primary.addr)
	if err != nil {
		return nil, err
	}
	defer sess.close()

	warm := closedLoop(sess, ops[:nWarm], nil, 0)
	heapMB := float64(liveHeap()-inputs) / 1e6

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	primaries := []*node{cl.primary}
	before, err := scrapeAll(primaries)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	phaseParts := runParts(sess, ops[nWarm:], tr, nWarm)
	rt1 := readRuntime()
	phase := mergeParts(phaseParts)

	stage("phase")
	getParts, searchParts := phaseParts, phaseParts
	var probeParts []part
	if len(probe) > 0 {
		runtime.GC() // a collection inside the short probe would set its tail
		probeParts = runParts(sess, probe, tr, len(ops))
		if inPhase[kGet] < minSamples {
			getParts = probeParts
		}
		if inPhase[kSearch] < minSamples {
			searchParts = probeParts
		}
	}
	if cl.replica != nil {
		if err := awaitReplica(cl.primary, cl.replica); err != nil {
			g.failf("%v", err)
		}
	}
	after, err := scrapeAll(primaries)
	if err != nil {
		return nil, err
	}

	stage("probe")
	// check_ms: wire CHECKs on the quiesced instance, each after a forced
	// collection so that none pays for garbage an earlier one left.
	var checks []float64
	for i := 0; i < checkReps; i++ {
		runtime.GC()
		start := time.Now()
		resp, err := sess.read.Do("CHECK")
		checks = append(checks, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil || !resp.OK() {
			g.failf("CHECK: %v %s %s", err, resp.Term, resp.Err)
		}
	}

	stage("check")
	// The gate, part one: the live cluster.
	for _, n := range cl.nodes() {
		g.verify(n.name, n.addr)
	}
	snap, err := snapshot(cl.primary.srv)
	if err != nil {
		return nil, err
	}
	final, err := parseLegal(schema, snap)
	if err != nil {
		g.failf("primary: %v", err)
	} else {
		if got := final.Len(); got != wantEntries {
			g.failf("entry accounting: %d entries, want %d corpus + %d created - %d deleted = %d",
				got, entries0, gen.creates, gen.deletes, wantEntries)
		}
		g.searches(cl.primary.addr, gateQs, final)
	}
	if cl.replica != nil {
		rsnap, err := snapshot(cl.replica.srv)
		if err != nil {
			return nil, err
		}
		if string(rsnap) != string(snap) {
			g.failf("replica snapshot differs from the primary's")
		}
		if semisyncDegraded(after[0]) {
			g.failf("primary reports semisync_degraded")
		}
		cl.replica.srv.Close()
		cl.replica = nil
	}

	stage("gate")
	var rp *routerProbe
	if cfg.trace && final != nil {
		jdir := filepath.Join(jroot, "shards")
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return nil, err
		}
		if rp, err = probeShards(tr, g, schema, final, jdir, probeGets, fanQs); err != nil {
			g.failf("shard probe: %v", err)
		}
	}
	final = nil

	stage("shard probe")
	// restart_s: close the primary, then boot it again over the journal
	// it wrote on top of a fresh copy of the corpus. Each restart replays
	// the same journal, so restart_s is the median of restartReps; the
	// last restarted instance must match the pre-restart snapshot byte
	// for byte.
	var restarts []float64
	for rep := 0; rep < restartReps; rep++ {
		base := newCorpus()
		runtime.GC()
		rn, d, err := restartNode(cl.primary, base)
		if err != nil {
			return nil, fmt.Errorf("restart: %v", err)
		}
		cl.primary = rn
		restarts = append(restarts, d.Seconds())
	}
	if rsnap, err := snapshot(cl.primary.srv); err != nil {
		return nil, err
	} else if string(rsnap) != string(snap) {
		g.failf("restarted instance differs from the pre-restart snapshot")
	}
	snap = nil
	recovered, err := scrapeAll([]*node{cl.primary})
	if err != nil {
		return nil, err
	}
	cl.close()
	cl = &cluster{}

	stage("restarts")
	total := &tally{}
	for _, t := range []*tally{warm, phase, mergeParts(probeParts)} {
		total.merge(t)
	}
	res.attempted, res.failed, res.failures = total.attempts, total.failed, total.failures
	res.gate = g.failures

	gets := func(t *tally) []float64 { return t.lat[kGet] }
	searches := func(t *tally) []float64 { return t.lat[kSearch] }
	commits := func(t *tally) []float64 { return t.commits }
	res.e2e = []metric{
		{"setup_s", "s", median(setups)},
		{"restart_s", "s", median(restarts)},
		{"heap_mb", "MB", heapMB},
		{"throughput_ops_s", "ops/s", partThroughput(phaseParts)},
		{"get_p50_us", "us", partQuantile(getParts, gets, 0.50)},
		{"search_p50_us", "us", partQuantile(searchParts, searches, 0.50)},
		{"commit_p50_us", "us", partQuantile(phaseParts, commits, 0.50)},
		{"check_ms", "ms", median(checks)},
	}
	allGets, allSearches := gets(mergeParts(getParts)), searches(mergeParts(searchParts))
	fmt.Fprintf(log, "# samples: get=%d search=%d commit=%d phase_ops=%d in %d parts\n",
		len(allGets), len(allSearches), len(phase.commits), nPhase, len(phaseParts))
	// Tails are printed, not gated on: between runs on a shared VM they
	// moved by up to 0.8 of their median (p90) and more (p99).
	fmt.Fprintf(log, "# tails p90/p99: get=%.1f/%.1fus search=%.1f/%.1fus commit=%.1f/%.1fus\n",
		quantile(allGets, 0.90), quantile(allGets, 0.99), quantile(allSearches, 0.90), quantile(allSearches, 0.99),
		quantile(phase.commits, 0.90), quantile(phase.commits, 0.99))
	for _, k := range []struct {
		name  string
		parts []part
		sel   func(*tally) []float64
	}{{"get", getParts, gets}, {"search", searchParts, searches}, {"commit", phaseParts, commits}} {
		fmt.Fprintf(log, "# %s p50 by part:", k.name)
		for _, p := range k.parts {
			fmt.Fprintf(log, " %.1f", quantile(k.sel(p.t), 0.5))
		}
		fmt.Fprintf(log, " us\n")
	}
	fmt.Fprintf(log, "# cold_search_ms=%.3f (median of %d boots; per-layer server.cold_search_ms)\n", median(colds), len(colds))
	res.metrics = res.e2e

	if cfg.trace {
		ob := &observed{phaseOps: phase.attempts, getP50: partQuantile(getParts, gets, 0.50), coldMS: median(colds),
			before: before, after: after, recovered: recovered, rt0: rt0, rt1: rt1, router: rp}
		layers, err := traced(tr, ob, append(ops[:len(ops):len(ops)], probe...), g, newCorpus, filepath.Join(jroot, "twin"))
		if err != nil {
			return nil, err
		}
		res.metrics = layers
		stage("replay")
		res.self = tr.selfTimes()
		res.gate = g.failures
		if err := tr.writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	res.correct = g.ok() && res.failed == 0
	return res, nil
}

// liveHeap is the heap in use after a forced collection, in bytes.
func liveHeap() int64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return int64(mem.HeapAlloc)
}

// coldSearch sends the first SEARCH on each indexed attribute right
// after boot and returns their total latency in milliseconds: each
// builds that attribute's value index, under the server read lock.
func coldSearch(addr string) (float64, error) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	runtime.GC()
	var total time.Duration
	for _, f := range coldFilters {
		start := time.Now()
		resp, err := c.Do(searchQ{filter: f, limit: -1}.line())
		total += time.Since(start)
		if err != nil || !resp.OK() {
			return 0, fmt.Errorf("cold SEARCH %s: %v %s %s", f, err, resp.Term, resp.Err)
		}
	}
	return float64(total.Nanoseconds()) / 1e6, nil
}

// awaitReplica waits until the replica has applied everything the
// primary shipped.
func awaitReplica(p, r *node) error {
	want := p.srv.ReplStatus().LastShipped
	deadline := time.Now().Add(30 * time.Second)
	for {
		local, _ := r.srv.ReplicaSeqs()
		if local >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica at seq %d, primary shipped %d", local, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// observed is what the live run measured that the per-layer metrics
// need: the phase's op count, METRICS scrapes before and after it and
// after the restarts, runtime samples around it, and the shard probe.
type observed struct {
	phaseOps                 int
	getP50, coldMS           float64
	before, after, recovered []serverMetrics
	rt0, rt1                 rtSample
	router                   *routerProbe
}

// traced computes the per-layer metrics of a traced run: the server
// surfaces the live run scraped, then the replay of the op stream
// through the inner modules on a twin directory and through
// Server.CommitTx on a twin server journaling to jdir.
func traced(tr *tracer, ob *observed, stream []op, g *gate, newCorpus func() *dirtree.Directory, jdir string) ([]metric, error) {
	schema := workload.WhitePagesSchema()
	twin := newCorpus()
	st := replay(tr, schema, twin, stream)
	for _, d := range st.diverged {
		g.failf("%s", d)
	}
	checkTwin(tr, schema, twin)
	twin = nil
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, err
	}
	if err := commitTwin(tr, newCorpus(), stream, jdir, twinCommits); err != nil {
		g.failf("%v", err)
	}
	rows := tr.selfTimes()
	before, after, rp := ob.before, ob.after, ob.router

	_, getAvg := cmdDelta(before, after, "GET")
	_, searchAvg := cmdDelta(before, after, "SEARCH")
	_, commitAvg := cmdDelta(before, after, "COMMIT")
	commitTx := meanUS(rows, "server.committx")
	idx := fieldDelta(before, after, "search", "indexed")
	scanned := fieldDelta(before, after, "search", "scanned")
	if rp == nil {
		rp = &routerProbe{}
	}
	var indexBuild float64
	for _, r := range rows {
		if r.name == "dirtree.index_build" {
			indexBuild = float64(r.total.Nanoseconds()) / 1e6
		}
	}
	phaseOps := float64(ob.phaseOps)
	return []metric{
		{"wire.get_us", "us", ob.getP50 - getAvg},
		{"server.session_get_avg_us", "us", getAvg},
		{"server.session_search_avg_us", "us", searchAvg},
		{"server.session_commit_avg_us", "us", commitAvg},
		{"server.committx_us", "us", commitTx},
		{"server.commits_per_fsync", "ratio", fieldSum(after, "group-commit", "commits") / fieldSum(after, "group-commit", "fsyncs")},
		{"server.journal_bytes_per_commit", "B", fieldSum(after, "journal", "bytes") / fieldSum(after, "transactions", "committed")},
		{"server.search_indexed_frac", "ratio", idx / (idx + scanned)},
		{"server.cold_search_ms", "ms", ob.coldMS},
		{"server.recovery_replayed", "count", fieldSum(ob.recovered, "recovery", "journal_records_replayed")},
		{"server.recovery_legality_ms", "ms", fieldSum(ob.recovered, "recovery", "recovery_legality_us") / 1e3},
		{"txn.normalize_us", "us", meanUS(rows, "txn.normalize")},
		{"txn.apply_us", "us", meanUS(rows, "txn.apply")},
		{"txn.journal_encode_us", "us", meanUS(rows, "txn.journal_encode")},
		{"dirtree.encode_us", "us", meanUS(rows, "dirtree.encode")},
		{"dirtree.lookup_ns", "ns", meanUS(rows, "dirtree.lookup") * 1e3},
		{"dirtree.index_build_ms", "ms", indexBuild},
		{"filter.parse_us", "us", meanUS(rows, "filter.parse")},
		{"hquery.plan_us", "us", meanUS(rows, "hquery.plan")},
		{"hquery.eval_us", "us", meanUS(rows, "hquery.eval") - meanUS(rows, "hquery.plan")},
		{"hquery.examined_per_result", "ratio", float64(st.examined) / float64(max(1, st.matched))},
		{"core.check_content_ms", "ms", meanUS(rows, "core.check_content") / 1e3},
		{"core.check_structure_ms", "ms", meanUS(rows, "core.check_structure") / 1e3},
		{"repl.ack_wait_us", "us", commitAvg - commitTx},
		{"shard.route_get_us", "us", rp.routeGetUS},
		{"shard.fanout_search_us", "us", rp.fanoutSearchUS},
		{"shard.check_audit_ms", "ms", rp.checkAuditMS},
		{"runtime.gc_cycles", "count", ob.rt1.gcCycles - ob.rt0.gcCycles},
		{"runtime.gc_cpu_frac", "ratio", (ob.rt1.gcCPU - ob.rt0.gcCPU) / (ob.rt1.totalCPU - ob.rt0.totalCPU)},
		{"runtime.alloc_bytes_per_op", "B", (ob.rt1.allocBytes - ob.rt0.allocBytes) / phaseOps},
		{"runtime.sched_latency_p99_us", "us", schedP99US(ob.rt0, ob.rt1)},
	}, nil
}
