package oracle

import (
	"bufio"
	"fmt"
	"strings"

	"casyn/internal/library"
)

// Verilog parses the structural Verilog a mapped netlist is exported
// as (one module, library cells with .A/.B/... inputs and a .Y output,
// continuous assigns for constants and outputs), simulates it from the
// oracle's cell truth tables, and returns the outputs together with
// the cell area recomputed from the library.
//
// Pins are matched to truth-table inputs through the variable order of
// each cell's first pattern; every cell with several patterns is
// symmetric in its inputs, so the choice of pattern cannot matter.
func Verilog(src string, lib *library.Library, v *Vectors) (Values, float64, error) {
	c := &circuit{pis: map[int]string{}, const0: map[int]bool{}, const1: map[int]bool{}, pos: map[string]int{}}
	ids := map[string]int{}
	sig := func(name string) int {
		id, ok := ids[name]
		if !ok {
			id = c.nsig
			ids[name] = id
			c.nsig++
		}
		return id
	}
	var outputs []string
	alias := map[string]string{}
	area := 0.0
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "module ") || s == "endmodule" {
			continue
		}
		if !strings.HasSuffix(s, ";") {
			return nil, 0, fmt.Errorf("oracle: verilog line %d: missing ';': %q", line, s)
		}
		s = strings.TrimSuffix(s, ";")
		fields := strings.Fields(s)
		switch fields[0] {
		case "input":
			c.pis[sig(fields[1])] = fields[1]
		case "output":
			outputs = append(outputs, fields[1])
		case "wire":
			sig(fields[1])
		case "assign":
			lhs, rhs, ok := strings.Cut(strings.TrimPrefix(s, "assign "), "=")
			if !ok {
				return nil, 0, fmt.Errorf("oracle: verilog line %d: bad assign %q", line, s)
			}
			lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
			switch rhs {
			case "1'b1":
				c.const1[sig(lhs)] = true
			case "1'b0":
				c.const0[sig(lhs)] = true
			default:
				alias[lhs] = rhs
			}
		default:
			cell := lib.Cell(fields[0])
			if cell == nil {
				return nil, 0, fmt.Errorf("oracle: verilog line %d: unknown cell %s", line, fields[0])
			}
			fn := cellFuncs[cell.Name]
			if fn == nil {
				return nil, 0, fmt.Errorf("oracle: no truth table for cell %s", cell.Name)
			}
			order, err := pinOrder(cell, 0)
			if err != nil {
				return nil, 0, err
			}
			open, close := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
			if open < 0 || close < open {
				return nil, 0, fmt.Errorf("oracle: verilog line %d: bad instance %q", line, s)
			}
			ci := cellInst{name: cell.Name, fn: fn, pins: make([]int, len(order)), out: -1}
			seen := 0
			for _, conn := range strings.Split(s[open+1:close], ",") {
				conn = strings.TrimSpace(conn)
				if len(conn) < 5 || conn[0] != '.' || conn[2] != '(' || conn[len(conn)-1] != ')' {
					return nil, 0, fmt.Errorf("oracle: verilog line %d: bad pin %q", line, conn)
				}
				net := sig(conn[3 : len(conn)-1])
				if conn[1] == 'Y' {
					ci.out = net
					continue
				}
				k := int(conn[1] - 'A')
				if k < 0 || k >= len(order) {
					return nil, 0, fmt.Errorf("oracle: verilog line %d: cell %s has no pin %c", line, cell.Name, conn[1])
				}
				ci.pins[order[k]] = net
				seen++
			}
			if ci.out < 0 || seen != len(order) {
				return nil, 0, fmt.Errorf("oracle: verilog line %d: cell %s needs %d inputs and an output", line, cell.Name, len(order))
			}
			c.cells = append(c.cells, ci)
			area += cell.Area
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	for _, o := range outputs {
		src, ok := alias[o]
		if !ok {
			return nil, 0, fmt.Errorf("oracle: verilog output %s is never assigned", o)
		}
		id, ok := ids[src]
		if !ok {
			return nil, 0, fmt.Errorf("oracle: verilog output %s reads undeclared %s", o, src)
		}
		c.pos[o] = id
	}
	vals, err := c.simulate(v)
	return vals, area, err
}
