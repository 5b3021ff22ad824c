package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boundschema/internal/ldif"
	"boundschema/internal/workload"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload, untraced and traced, on a tiny corpus
// and checks that the gate passes and that the JSON line carries
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	bf := loadBenchFile(t)
	for _, w := range bf.Workloads {
		if specByName(w.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	out := t.TempDir()
	for _, w := range specs {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 7, seconds: 1, trace: trace, entries: 3000, setupReps: 2, out: out}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, cfg, res); err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Fatalf("%s trace=%v: gate failed:\n%s", w.name, trace, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var got jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the JSON result: %v", w.name, trace, err)
			}
			if got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d", w.name, trace, got.Attempted, got.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.name, trace, m.Name, g.Unit, m.Unit)
				case !trace && g.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, g.Value)
				}
			}
		}
	}
}

// TestGateRejectsIllegalInstance is the negative control: a snapshot
// with one person stripped of its required name must fail the gate's
// legality check, and a SEARCH reply that disagrees with the brute scan
// must fail the SEARCH comparison.
func TestGateRejectsIllegalInstance(t *testing.T) {
	schema := workload.WhitePagesSchema()
	d := workload.Corpus(schema, rand.New(rand.NewSource(3)), 500)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := ldif.WriteDirectory(w, d); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := parseLegal(schema, buf.Bytes()); err != nil {
		t.Fatalf("legal corpus fails the gate: %v", err)
	}
	lines := strings.Split(buf.String(), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "name: ") {
			lines = append(lines[:i], lines[i+1:]...)
			break
		}
	}
	if _, err := parseLegal(schema, []byte(strings.Join(lines, "\n"))); err == nil {
		t.Fatal("a person without name passed the gate")
	}

	jdir := t.TempDir()
	n, err := bootNode("primary", filepath.Join(jdir, "j"), d, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.srv.Close()
	other := workload.Corpus(schema, rand.New(rand.NewSource(4)), 500)
	g := &gate{}
	g.searches(n.addr, []searchQ{{filter: "(objectClass=person)", limit: -1}}, other)
	if g.ok() {
		t.Fatal("a SEARCH reply from another instance passed the brute-scan comparison")
	}
}
