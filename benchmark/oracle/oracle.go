// Package oracle checks synthesis outputs without the program's own
// equivalence checker: it evaluates PLA cubes directly, simulates
// subject DAGs as NAND2/INV and mapped netlists from its own cell truth
// tables, all 64 vectors per machine word on seeded random inputs, and
// checks physical properties (cell area, placement legality, a routed
// wirelength lower bound) from first principles.
package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/mapper"
	"casyn/internal/netlist"
	"casyn/internal/place"
	"casyn/internal/subject"
)

// Vectors holds seeded random input patterns, 64 per word: bit b of
// Words[i][w] is input i of vector 64w+b.
type Vectors struct {
	Names []string
	Words [][]uint64
	index map[string]int
}

// Random draws words×64 uniformly random vectors over the named inputs.
func Random(names []string, words int, seed int64) *Vectors {
	rng := rand.New(rand.NewSource(seed))
	v := &Vectors{Names: names, Words: make([][]uint64, len(names)), index: make(map[string]int, len(names))}
	for i, n := range names {
		v.index[n] = i
		v.Words[i] = make([]uint64, words)
		for w := range v.Words[i] {
			v.Words[i][w] = rng.Uint64()
		}
	}
	return v
}

func (v *Vectors) words() int {
	if len(v.Words) == 0 {
		return 0
	}
	return len(v.Words[0])
}

func (v *Vectors) input(name string) ([]uint64, error) {
	i, ok := v.index[name]
	if !ok {
		return nil, fmt.Errorf("oracle: no vectors for input %q", name)
	}
	return v.Words[i], nil
}

// Values maps each primary output name to its simulated words.
type Values map[string][]uint64

// PLANames returns the input and output names a PLA's signals carry
// through synthesis (explicit names, else in<i>/out<o>).
func PLANames(p *logic.PLA) (in, out []string) {
	for i := 0; i < p.NumInputs; i++ {
		n := fmt.Sprintf("in%d", i)
		if i < len(p.InputNames) && p.InputNames[i] != "" {
			n = p.InputNames[i]
		}
		in = append(in, n)
	}
	for o := 0; o < p.NumOutputs; o++ {
		n := fmt.Sprintf("out%d", o)
		if o < len(p.OutputNames) && p.OutputNames[o] != "" {
			n = p.OutputNames[o]
		}
		out = append(out, n)
	}
	return in, out
}

// PLA evaluates every output as the OR of the product terms that drive
// it, each term the AND of its literals.
func PLA(p *logic.PLA, v *Vectors) (Values, error) {
	inNames, outNames := PLANames(p)
	ins := make([][]uint64, len(inNames))
	for i, n := range inNames {
		w, err := v.input(n)
		if err != nil {
			return nil, err
		}
		ins[i] = w
	}
	nw := v.words()
	out := make([][]uint64, len(outNames))
	for o := range out {
		out[o] = make([]uint64, nw)
	}
	term := make([]uint64, nw)
	for t, cube := range p.Terms {
		for w := range term {
			term[w] = ^uint64(0)
		}
		for i := range ins {
			switch cube.Lit(i) {
			case 1:
				for w := range term {
					term[w] &= ins[i][w]
				}
			case -1:
				for w := range term {
					term[w] &^= ins[i][w]
				}
			}
		}
		for o, drives := range p.Outputs[t] {
			if drives {
				for w := range term {
					out[o][w] |= term[w]
				}
			}
		}
	}
	vals := make(Values, len(outNames))
	for o, n := range outNames {
		vals[n] = out[o]
	}
	return vals, nil
}

// Gate is one base gate of a subject DAG copy the oracle can edit.
type Gate struct {
	Type subject.GateType
	In   [2]int
	Name string
}

// Subject is an editable copy of a subject DAG's structure.
type Subject struct {
	Gates   []Gate
	Outputs []subject.Output
}

// CopyDAG copies a subject DAG's gates and outputs.
func CopyDAG(d *subject.DAG) *Subject {
	s := &Subject{Gates: make([]Gate, d.NumGates()), Outputs: append([]subject.Output(nil), d.Outputs()...)}
	for id := range s.Gates {
		g := d.Gate(id)
		s.Gates[id] = Gate{Type: g.Type, In: g.In, Name: g.Name}
	}
	return s
}

// ApplyEdits applies the structural edits of an ECO edit set (gate
// function rewrites and fanin reconnects); placement edits leave the
// function unchanged.
func (s *Subject) ApplyEdits(es mapper.EditSet) error {
	for i, e := range es.Edits {
		if e.Gate < 0 || e.Gate >= len(s.Gates) {
			return fmt.Errorf("oracle: edit %d targets gate %d of %d", i, e.Gate, len(s.Gates))
		}
		switch e.Kind {
		case mapper.EditGateFunc:
			s.Gates[e.Gate].Type = e.NewType
			s.Gates[e.Gate].In = e.NewIn
		case mapper.EditReconnect:
			s.Gates[e.Gate].In[e.Pin] = e.NewFanin
		}
	}
	return nil
}

// Simulate evaluates the subject as NAND2/INV gates in a topological
// order of its own.
func (s *Subject) Simulate(v *Vectors) (Values, error) {
	nw := v.words()
	val := make([][]uint64, len(s.Gates))
	state := make([]uint8, len(s.Gates)) // 0 new, 1 open, 2 done
	var eval func(root int) error
	eval = func(root int) error {
		stack := []int{root}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			if state[id] == 2 {
				stack = stack[:len(stack)-1]
				continue
			}
			g := &s.Gates[id]
			n := g.Type.NumInputs()
			if state[id] == 0 {
				state[id] = 1
				for k := 0; k < n; k++ {
					in := g.In[k]
					if in < 0 || in >= len(s.Gates) {
						return fmt.Errorf("oracle: gate %d fanin %d out of range", id, in)
					}
					switch state[in] {
					case 0:
						stack = append(stack, in)
					case 1:
						return fmt.Errorf("oracle: combinational loop through gate %d", in)
					}
				}
				continue
			}
			w := make([]uint64, nw)
			switch g.Type {
			case subject.PI:
				in, err := v.input(g.Name)
				if err != nil {
					return err
				}
				copy(w, in)
			case subject.Const1:
				for i := range w {
					w[i] = ^uint64(0)
				}
			case subject.Inv:
				a := val[g.In[0]]
				for i := range w {
					w[i] = ^a[i]
				}
			case subject.Nand2:
				a, b := val[g.In[0]], val[g.In[1]]
				for i := range w {
					w[i] = ^(a[i] & b[i])
				}
			case subject.Const0:
			default:
				return fmt.Errorf("oracle: gate %d has unknown type %v", id, g.Type)
			}
			val[id] = w
			state[id] = 2
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	out := make(Values, len(s.Outputs))
	for _, o := range s.Outputs {
		if o.Gate < 0 || o.Gate >= len(s.Gates) {
			return nil, fmt.Errorf("oracle: output %s driven by missing gate %d", o.Name, o.Gate)
		}
		if err := eval(o.Gate); err != nil {
			return nil, err
		}
		out[o.Name] = val[o.Gate]
	}
	return out, nil
}

// DAG simulates a subject DAG as NAND2/INV gates.
func DAG(d *subject.DAG, v *Vectors) (Values, error) { return CopyDAG(d).Simulate(v) }

// cellFuncs are the truth tables of the library cells over their pins
// a, b, c, ... (bit-parallel).
var cellFuncs = map[string]func(p []uint64) uint64{
	"INV":    func(p []uint64) uint64 { return ^p[0] },
	"NAND2":  func(p []uint64) uint64 { return ^(p[0] & p[1]) },
	"NAND3":  func(p []uint64) uint64 { return ^(p[0] & p[1] & p[2]) },
	"NAND4":  func(p []uint64) uint64 { return ^(p[0] & p[1] & p[2] & p[3]) },
	"NAND5":  func(p []uint64) uint64 { return ^(p[0] & p[1] & p[2] & p[3] & p[4]) },
	"NAND6":  func(p []uint64) uint64 { return ^(p[0] & p[1] & p[2] & p[3] & p[4] & p[5]) },
	"NOR2":   func(p []uint64) uint64 { return ^(p[0] | p[1]) },
	"NOR3":   func(p []uint64) uint64 { return ^(p[0] | p[1] | p[2]) },
	"NOR4":   func(p []uint64) uint64 { return ^(p[0] | p[1] | p[2] | p[3]) },
	"AND2":   func(p []uint64) uint64 { return p[0] & p[1] },
	"AND3":   func(p []uint64) uint64 { return p[0] & p[1] & p[2] },
	"AND4":   func(p []uint64) uint64 { return p[0] & p[1] & p[2] & p[3] },
	"OR2":    func(p []uint64) uint64 { return p[0] | p[1] },
	"OR3":    func(p []uint64) uint64 { return p[0] | p[1] | p[2] },
	"AOI21":  func(p []uint64) uint64 { return ^(p[0]&p[1] | p[2]) },
	"AOI22":  func(p []uint64) uint64 { return ^(p[0]&p[1] | p[2]&p[3]) },
	"AOI211": func(p []uint64) uint64 { return ^(p[0]&p[1] | p[2] | p[3]) },
	"AOI222": func(p []uint64) uint64 { return ^(p[0]&p[1] | p[2]&p[3] | p[4]&p[5]) },
	"OAI21":  func(p []uint64) uint64 { return ^((p[0] | p[1]) & p[2]) },
	"OAI22":  func(p []uint64) uint64 { return ^((p[0] | p[1]) & (p[2] | p[3])) },
	"OAI211": func(p []uint64) uint64 { return ^((p[0] | p[1]) & p[2] & p[3]) },
	"OAI222": func(p []uint64) uint64 { return ^((p[0] | p[1]) & (p[2] | p[3]) & (p[4] | p[5])) },
	"XOR2":   func(p []uint64) uint64 { return p[0] ^ p[1] },
	"XNOR2":  func(p []uint64) uint64 { return ^(p[0] ^ p[1]) },
}

// cellInst is one instance reduced to what simulation needs: the
// truth table, and per table pin the driving signal.
type cellInst struct {
	name string
	fn   func([]uint64) uint64
	pins []int
	out  int
}

// pinOrder maps an instance's input position to a truth-table pin: the
// netlist lists inputs in the variable order of the chosen pattern,
// whose variables are named a, b, c, ...
func pinOrder(c *library.Cell, pattern int) ([]int, error) {
	if pattern < 0 || pattern >= len(c.Patterns) {
		return nil, fmt.Errorf("oracle: cell %s has no pattern %d", c.Name, pattern)
	}
	vars := c.Patterns[pattern].Vars()
	order := make([]int, len(vars))
	for i, v := range vars {
		if len(v) != 1 || v[0] < 'a' || v[0] > 'f' {
			return nil, fmt.Errorf("oracle: cell %s has pin %q", c.Name, v)
		}
		order[i] = int(v[0] - 'a')
	}
	return order, nil
}

// circuit is a gate-level netlist ready to simulate.
type circuit struct {
	nsig   int
	pis    map[int]string // signal -> input name
	const0 map[int]bool
	const1 map[int]bool
	cells  []cellInst
	pos    map[string]int // output name -> signal
}

func (c *circuit) simulate(v *Vectors) (Values, error) {
	nw := v.words()
	val := make([][]uint64, c.nsig)
	driver := make([]int, c.nsig)
	for i := range driver {
		driver[i] = -1
	}
	for i, ci := range c.cells {
		if driver[ci.out] >= 0 {
			return nil, fmt.Errorf("oracle: signal %d has two drivers", ci.out)
		}
		driver[ci.out] = i
	}
	zero := make([]uint64, nw)
	for s := range val {
		switch {
		case c.pis[s] != "":
			w, err := v.input(c.pis[s])
			if err != nil {
				return nil, err
			}
			val[s] = w
		case c.const1[s]:
			w := make([]uint64, nw)
			for i := range w {
				w[i] = ^uint64(0)
			}
			val[s] = w
		case c.const0[s]:
			val[s] = zero
		}
	}
	state := make([]uint8, c.nsig)
	args := make([]uint64, 6)
	var eval func(root int) error
	eval = func(root int) error {
		stack := []int{root}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			d := driver[s]
			if d < 0 || state[s] == 2 {
				stack = stack[:len(stack)-1]
				continue
			}
			ci := &c.cells[d]
			if state[s] == 0 {
				state[s] = 1
				for _, in := range ci.pins {
					if driver[in] < 0 && val[in] == nil {
						return fmt.Errorf("oracle: %s reads undriven signal %d", ci.name, in)
					}
					if driver[in] >= 0 {
						switch state[in] {
						case 0:
							stack = append(stack, in)
						case 1:
							return fmt.Errorf("oracle: combinational loop through signal %d", in)
						}
					}
				}
				continue
			}
			w := make([]uint64, nw)
			for i := range w {
				for p, in := range ci.pins {
					args[p] = val[in][i]
				}
				w[i] = ci.fn(args)
			}
			val[s] = w
			state[s] = 2
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	out := make(Values, len(c.pos))
	for name, s := range c.pos {
		if err := eval(s); err != nil {
			return nil, err
		}
		if val[s] == nil {
			return nil, fmt.Errorf("oracle: output %s reads undriven signal %d", name, s)
		}
		out[name] = val[s]
	}
	return out, nil
}

// Netlist simulates a mapped netlist from the oracle's cell truth
// tables.
func Netlist(n *netlist.Netlist, v *Vectors) (Values, error) {
	c := &circuit{nsig: len(n.Signals), pis: map[int]string{}, const0: map[int]bool{}, const1: map[int]bool{}, pos: map[string]int{}}
	for _, s := range n.Signals {
		switch s.Kind {
		case netlist.SigPI:
			c.pis[int(s.ID)] = s.Name
		case netlist.SigConst0:
			c.const0[int(s.ID)] = true
		case netlist.SigConst1:
			c.const1[int(s.ID)] = true
		}
	}
	for i := range n.Instances {
		inst := &n.Instances[i]
		fn := cellFuncs[inst.Cell.Name]
		if fn == nil {
			return nil, fmt.Errorf("oracle: no truth table for cell %s", inst.Cell.Name)
		}
		order, err := pinOrder(inst.Cell, inst.PatternIndex)
		if err != nil {
			return nil, err
		}
		if len(order) != len(inst.Inputs) {
			return nil, fmt.Errorf("oracle: instance %s has %d inputs for %d pins", inst.Name, len(inst.Inputs), len(order))
		}
		pins := make([]int, len(order))
		for k, in := range inst.Inputs {
			pins[order[k]] = int(in)
		}
		c.cells = append(c.cells, cellInst{name: inst.Cell.Name, fn: fn, pins: pins, out: int(inst.Output)})
	}
	for _, po := range n.POs {
		c.pos[po.Name] = int(po.Sig)
	}
	return c.simulate(v)
}

// Compare reports the first output and vector on which got differs
// from want; every output of want must be present in got.
func Compare(want, got Values) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d outputs, want %d", len(got), len(want))
	}
	for _, n := range names {
		g, ok := got[n]
		if !ok {
			return fmt.Errorf("oracle: output %s missing", n)
		}
		w := want[n]
		if len(g) != len(w) {
			return fmt.Errorf("oracle: output %s has %d words, want %d", n, len(g), len(w))
		}
		for i := range w {
			if d := w[i] ^ g[i]; d != 0 {
				b := 0
				for d&1 == 0 {
					d >>= 1
					b++
				}
				return fmt.Errorf("oracle: output %s differs on vector %d", n, 64*i+b)
			}
		}
	}
	return nil
}

// CellArea recomputes a netlist's cell area from the library areas,
// looking each cell up by name.
func CellArea(n *netlist.Netlist, lib *library.Library) (float64, error) {
	a := 0.0
	for i := range n.Instances {
		c := lib.Cell(n.Instances[i].Cell.Name)
		if c == nil {
			return 0, fmt.Errorf("oracle: cell %s is not in library %s", n.Instances[i].Cell.Name, lib.Name)
		}
		a += c.Area
	}
	return a, nil
}

// CheckArea compares a reported cell area with the recomputed one.
func CheckArea(reported, recomputed float64) error {
	if math.Abs(reported-recomputed) > 1e-6*math.Max(1, recomputed) {
		return fmt.Errorf("oracle: reported cell area %.3f µm², library areas sum to %.3f µm²", reported, recomputed)
	}
	return nil
}

// CheckPlacement verifies that every cell lies inside the die and
// sits centered on a row.
func CheckPlacement(l place.Layout, widths []float64, pos []geom.Point) error {
	if len(pos) != len(widths) {
		return fmt.Errorf("oracle: %d positions for %d cells", len(pos), len(widths))
	}
	const eps = 1e-6
	for i, p := range pos {
		if p.X-widths[i]/2 < l.Die.Min.X-eps || p.X+widths[i]/2 > l.Die.Max.X+eps {
			return fmt.Errorf("oracle: cell %d at x=%.3f (width %.3f) leaves the die [%.3f, %.3f]",
				i, p.X, widths[i], l.Die.Min.X, l.Die.Max.X)
		}
		r := (p.Y-l.Die.Min.Y)/l.RowHeight - 0.5
		ri := math.Round(r)
		if math.Abs(r-ri) > eps || ri < 0 || int(ri) >= l.NumRows {
			return fmt.Errorf("oracle: cell %d at y=%.3f is not on one of the %d rows", i, p.Y, l.NumRows)
		}
	}
	return nil
}

// WirelengthLowerBound is the sum over nets of the half-perimeter of
// the gcell box around each net's placed pins (cells and pads), in µm:
// any routing tree on the gcell grid is at least that long.
func WirelengthLowerBound(nl *place.Netlist, pos []geom.Point, die geom.Rect, gcell float64) float64 {
	nx := int(math.Ceil(die.W() / gcell))
	ny := int(math.Ceil(die.H() / gcell))
	cw, ch := die.W()/float64(nx), die.H()/float64(ny)
	cellOf := func(p geom.Point) (int, int) {
		x := int((p.X - die.Min.X) / cw)
		y := int((p.Y - die.Min.Y) / ch)
		return min(max(x, 0), nx-1), min(max(y, 0), ny-1)
	}
	total := 0.0
	for _, net := range nl.Nets {
		x0, y0, x1, y1 := nx, ny, -1, -1
		add := func(p geom.Point) {
			x, y := cellOf(p)
			x0, y0, x1, y1 = min(x0, x), min(y0, y), max(x1, x), max(y1, y)
		}
		for _, c := range net.Cells {
			add(pos[c])
		}
		for _, p := range net.Pads {
			add(p)
		}
		if x1 >= 0 {
			total += float64(x1-x0)*cw + float64(y1-y0)*ch
		}
	}
	return total
}
