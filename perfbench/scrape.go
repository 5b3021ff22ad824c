package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"strconv"
	"strings"

	"boundschema/internal/loadgen"
)

// serverMetrics is one METRICS reply: each "key: a=1 b=2" line becomes
// key → {a: 1, b: 2}. Non-numeric values are dropped.
type serverMetrics map[string]map[string]float64

func (m serverMetrics) get(key, field string) float64 { return m[key][field] }

// scrape sends METRICS over the wire, the surface an operator sees.
func scrape(addr string) (serverMetrics, error) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	resp, err := c.Do("METRICS")
	if err != nil {
		return nil, err
	}
	if !resp.OK() {
		return nil, fmt.Errorf("METRICS: %s %s", resp.Term, resp.Err)
	}
	out := serverMetrics{}
	for _, l := range resp.Lines {
		key, rest, ok := strings.Cut(l, ": ")
		if !ok {
			continue
		}
		fields := map[string]float64{}
		for _, kv := range strings.Fields(rest) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				fields[k] = f
			}
		}
		out[key] = fields
	}
	return out, nil
}

func scrapeAll(nodes []*node) ([]serverMetrics, error) {
	out := make([]serverMetrics, len(nodes))
	for i, n := range nodes {
		m, err := scrape(n.addr)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", n.name, err)
		}
		out[i] = m
	}
	return out, nil
}

// cmdDelta is the count and mean latency of one command across the
// nodes between two scrapes, from the count and avg_us fields.
func cmdDelta(before, after []serverMetrics, cmd string) (n, avgUS float64) {
	var sum float64
	for i := range after {
		key := "command " + cmd
		c1, a1 := before[i].get(key, "count"), before[i].get(key, "avg_us")
		c2, a2 := after[i].get(key, "count"), after[i].get(key, "avg_us")
		n += c2 - c1
		sum += c2*a2 - c1*a1
	}
	if n == 0 {
		return 0, 0
	}
	return n, sum / n
}

func fieldDelta(before, after []serverMetrics, key, field string) float64 {
	var d float64
	for i := range after {
		d += after[i].get(key, field) - before[i].get(key, field)
	}
	return d
}

func fieldSum(ms []serverMetrics, key, field string) float64 {
	var s float64
	for _, m := range ms {
		s += m.get(key, field)
	}
	return s
}

// rtSample is a runtime/metrics reading of the benchmark process,
// which hosts every server, the router and the clients.
type rtSample struct {
	gcCycles, gcCPU, totalCPU, allocBytes float64
	sched                                 *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	num := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	r := rtSample{gcCycles: num(ss[0]), gcCPU: num(ss[1]), totalCPU: num(ss[2]), allocBytes: num(ss[3])}
	if ss[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[4].Value.Float64Histogram()
		r.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return r
}

// schedP99US is the 99th percentile of goroutine scheduling latency
// between two samples, from the histogram's bucket upper bounds.
func schedP99US(a, b rtSample) float64 {
	if a.sched == nil || b.sched == nil {
		return 0
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			if hi := b.sched.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi * 1e6
			}
			return b.sched.Buckets[i] * 1e6 // open-ended top bucket: its lower edge
		}
	}
	return 0
}
