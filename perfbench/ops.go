package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"boundschema/internal/dirtree"
	"boundschema/internal/loadgen"
	"boundschema/internal/txn"
)

// opKind is the wire operation class an op belongs to. Latencies are
// reported per class; create, move and delete together make "commit".
type opKind uint8

const (
	kGet opKind = iota
	kSearch
	kCreate
	kMove
	kDelete
	nKinds
)

var kindNames = [nKinds]string{"get", "search", "create", "move", "delete"}

func (k opKind) isWrite() bool { return k >= kCreate }

// searchQ is one SEARCH: filter text, optional base, optional limit (-1
// for none). The gate and the traced replay evaluate it off the wire.
type searchQ struct {
	filter string
	base   string
	limit  int
}

func (q searchQ) line() string {
	l := "SEARCH " + q.filter
	if q.base != "" {
		l += " base=" + q.base
	}
	if q.limit >= 0 {
		l += fmt.Sprintf(" limit=%d", q.limit)
	}
	return l
}

// op is one generated wire operation. The whole stream is generated up
// front from the seed, so the same seed always sends the same bytes and
// the traced run can replay it through the inner modules.
type op struct {
	kind    opKind
	dn      string // GET target, created, moved or deleted DN
	dest    string // MOVE destination parent
	q       searchQ
	classes []string            // create only
	attrs   map[string][]string // create only, raw attribute text
}

// wire renders the op as the line (reads) or transaction body (writes)
// loadgen.Client sends.
func (o *op) wire() (string, []string) {
	switch o.kind {
	case kGet:
		return "GET " + o.dn, nil
	case kSearch:
		return o.q.line(), nil
	case kCreate:
		body := []string{"ADD " + o.dn}
		for _, c := range o.classes {
			body = append(body, "objectClass: "+c)
		}
		for _, name := range sortedKeys(o.attrs) {
			for _, v := range o.attrs[name] {
				body = append(body, name+": "+v)
			}
		}
		return "", body
	case kMove:
		return "", []string{fmt.Sprintf("MOVE %s -> %s", o.dn, o.dest)}
	default:
		return "", []string{"DELETE " + o.dn}
	}
}

// transaction builds the txn.Transaction the server would assemble from
// the op's wire body, typing values through the registry as a session
// does.
func (o *op) transaction(reg *dirtree.Registry) (*txn.Transaction, error) {
	tx := &txn.Transaction{}
	switch o.kind {
	case kCreate:
		attrs := make(map[string][]dirtree.Value, len(o.attrs))
		for name, vals := range o.attrs {
			for _, text := range vals {
				v, err := dirtree.ParseValue(reg.Type(name), text)
				if err != nil {
					return nil, err
				}
				attrs[name] = append(attrs[name], v)
			}
		}
		tx.Add(o.dn, o.classes, attrs)
	case kMove:
		tx.Move(o.dn, o.dest)
	case kDelete:
		tx.Delete(o.dn)
	default:
		return nil, fmt.Errorf("op %s is not a write", kindNames[o.kind])
	}
	return tx, nil
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mix is a workload's operation shares in percent.
type mix struct{ get, search, create, move, del int }

func (m mix) draw(rng *rand.Rand) opKind {
	r := rng.Intn(m.get + m.search + m.create + m.move + m.del)
	switch {
	case r < m.get:
		return kGet
	case r < m.get+m.search:
		return kSearch
	case r < m.get+m.search+m.create:
		return kCreate
	case r < m.get+m.search+m.create+m.move:
		return kMove
	}
	return kDelete
}

// pools are the DN samples the generator draws from, taken from the
// seed corpus before any server mutates it. Only entries the stream
// itself created are ever moved or deleted, so every pooled DN stays
// valid for the whole run.
type pools struct {
	parents []string // orgGroups: create and move targets
	hot     []string // loadgen.Pools.Reads: at most 4096 persons
	persons []string // every corpus person: the uniform read set
	bases   []string // orgUnits with mid-sized subtrees: SEARCH bases
	names   []string // corpus person names, for index-eq probes
}

// newPools samples d. persons is filled only when the workload reads
// uniformly.
func newPools(d *dirtree.Directory, uniformReads bool) *pools {
	sc, _ := loadgen.ScenarioByName("whitepages")
	p := &pools{hot: sc.ExtractPools(d).Reads}
	for _, e := range d.ClassEntries("orgGroup") {
		p.parents = append(p.parents, e.DN())
	}
	for _, e := range d.ClassEntries("person") {
		if uniformReads {
			p.persons = append(p.persons, e.DN())
		}
		if vs := e.Attr("name"); len(vs) > 0 {
			p.names = append(p.names, vs[0].String())
		}
	}
	// SEARCH bases come from a narrow band of subtree sizes (|D|/200 to
	// |D|/100 entries) so that a base's scan cost does not swing with
	// the seed's tree shape.
	lo, hi := d.Len()/200, d.Len()/100
	for _, e := range d.ClassEntries("orgUnit") {
		if n := subtreeSize(e); n >= lo && n <= hi && n > 1 {
			p.bases = append(p.bases, e.DN())
		}
	}
	if len(p.bases) == 0 {
		p.bases = p.parents
	}
	return p
}

func subtreeSize(e *dirtree.Entry) int {
	n := 1
	for _, c := range e.Children() {
		n += subtreeSize(c)
	}
	return n
}

// generator produces a workload's op stream.
type generator struct {
	spec    *spec
	p       *pools
	rng     *rand.Rand
	seq     int
	shape   int
	owned   []string
	creates int
	deletes int
}

func pick(rng *rand.Rand, ss []string) string { return ss[rng.Intn(len(ss))] }

func (g *generator) next() op {
	kind := g.spec.mix.draw(g.rng)
	if (kind == kMove || kind == kDelete) && len(g.owned) == 0 {
		kind = kCreate
	}
	switch kind {
	case kGet, kSearch:
		return g.read(kind)
	case kCreate:
		return g.create()
	case kMove:
		if o, ok := g.move(); ok {
			return o
		}
		return g.create()
	default:
		i := g.rng.Intn(len(g.owned))
		dn := g.owned[i]
		g.owned[i] = g.owned[len(g.owned)-1]
		g.owned = g.owned[:len(g.owned)-1]
		g.deletes++
		return op{kind: kDelete, dn: dn}
	}
}

// read draws a GET from the workload's read set, or a SEARCH.
func (g *generator) read(kind opKind) op {
	if kind == kSearch {
		return op{kind: kSearch, q: g.search()}
	}
	if g.spec.uniformReads {
		return op{kind: kGet, dn: pick(g.rng, g.p.persons)}
	}
	return op{kind: kGet, dn: pick(g.rng, g.p.hot)}
}

func (g *generator) create() op {
	parent := pick(g.rng, g.p.parents)
	g.seq++
	dn := fmt.Sprintf("uid=b%d,%s", g.seq, parent)
	o := op{kind: kCreate, dn: dn, classes: []string{"person", "top"},
		attrs: map[string][]string{"name": {fmt.Sprintf("bench person %d", g.seq)}}}
	if g.rng.Intn(2) == 0 {
		o.classes = append(o.classes, "researcher")
	} else {
		o.classes = append(o.classes, "staffMember")
	}
	if g.rng.Intn(3) == 0 {
		o.classes = append(o.classes, "online")
		o.attrs["mail"] = []string{fmt.Sprintf("b%d@bench.example.org", g.seq)}
	}
	if g.rng.Intn(2) == 0 {
		o.attrs["cellularPhone"] = []string{fmt.Sprintf("+1 555 %04d", g.rng.Intn(10000))}
	}
	g.owned = append(g.owned, dn)
	g.creates++
	return o
}

// move relocates one owned person under another orgGroup. It gives up
// after a few draws rather than loop.
func (g *generator) move() (op, bool) {
	i := g.rng.Intn(len(g.owned))
	dn := g.owned[i]
	rdn, parent, _ := strings.Cut(dn, ",")
	for try := 0; try < 8; try++ {
		dest := pick(g.rng, g.p.parents)
		if dest == parent {
			continue
		}
		g.owned[i] = rdn + "," + dest
		return op{kind: kMove, dn: dn, dest: dest}, true
	}
	return op{}, false
}

// search draws one of the five SEARCH shapes, which span the planner's
// strategies: index-eq on name, index-prefix and index-range with a
// limit, an objectClass posting list under a base, and a substring the
// indexes cannot serve, which scans a subtree.
func (g *generator) search() searchQ {
	// Shapes take turns, so their shares, and with them the latency
	// quantiles, do not move with the seed.
	g.shape++
	switch g.shape % 5 {
	case 0:
		return searchQ{filter: "(name=" + pick(g.rng, g.p.names) + ")", limit: -1}
	case 1:
		return searchQ{filter: fmt.Sprintf("(name=person %d*)", 10+g.rng.Intn(90)), limit: 20}
	case 2:
		// One fixed bound: names run "person 1" to "person |D|" on every
		// seed, so this range has the same size on every seed.
		return searchQ{filter: "(name>=person 99)", limit: 20}
	case 3:
		return searchQ{filter: "(objectClass=facultyMember)", base: pick(g.rng, g.p.bases), limit: -1}
	default:
		return searchQ{filter: fmt.Sprintf("(mail=*-%d@*)", g.rng.Intn(3)), base: pick(g.rng, g.p.bases), limit: -1}
	}
}
