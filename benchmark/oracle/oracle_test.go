package oracle

import (
	"context"
	"strings"
	"testing"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/netlist"
	"casyn/internal/place"
)

// swapPartner maps a cell to another with as many inputs and a
// different function.
var swapPartner = map[string]string{
	"NAND2": "NOR2", "NOR2": "NAND2", "NAND3": "NOR3", "NOR3": "NAND3",
	"NAND4": "NOR4", "NOR4": "NAND4", "AND2": "OR2", "OR2": "AND2",
	"AND3": "OR3", "OR3": "AND3", "XOR2": "XNOR2", "XNOR2": "XOR2",
	"AOI21": "OAI21", "OAI21": "AOI21", "AOI22": "OAI22", "OAI22": "AOI22",
}

func TestOracleAcceptsSynthesisAndRejectsOneSwappedCell(t *testing.T) {
	p, err := bench.Generate(bench.SPLA.ScaledSpec(0.02))
	if err != nil {
		t.Fatal(err)
	}
	opts := casyn.Options{K: 0.001, Workers: 1}
	dag, err := casyn.SubjectFor(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := casyn.SynthesizeSubjectContext(context.Background(), dag, opts)
	if err != nil {
		t.Fatal(err)
	}
	lib := library.Default()
	names, _ := PLANames(p)
	vec := Random(names, 16, 7)
	want, err := PLA(p, vec)
	if err != nil {
		t.Fatal(err)
	}
	verilog := func(nl *netlist.Netlist) string {
		var b strings.Builder
		if err := nl.WriteVerilog(&b, "top"); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	got, err := DAG(dag, vec)
	if err != nil || Compare(want, got) != nil {
		t.Fatalf("subject DAG rejected: %v %v", err, Compare(want, got))
	}
	got, err = Netlist(res.Mapped, vec)
	if err != nil || Compare(want, got) != nil {
		t.Fatalf("mapped netlist rejected: %v %v", err, Compare(want, got))
	}
	got, area, err := Verilog(verilog(res.Mapped), lib, vec)
	if err != nil || Compare(want, got) != nil {
		t.Fatalf("mapped Verilog rejected: %v %v", err, Compare(want, got))
	}
	if err := CheckArea(res.CellArea, area); err != nil {
		t.Fatal(err)
	}

	// Swap the cell of one instance that drives a primary output.
	drivesPO := map[netlist.SigID]bool{}
	for _, po := range res.Mapped.POs {
		drivesPO[po.Sig] = true
	}
	bad := *res.Mapped
	bad.Instances = append([]netlist.Instance(nil), res.Mapped.Instances...)
	swapped := ""
	for i := range bad.Instances {
		inst := &bad.Instances[i]
		if partner := swapPartner[inst.Cell.Name]; partner != "" && drivesPO[inst.Output] {
			swapped = inst.Cell.Name + "→" + partner
			inst.Cell, inst.PatternIndex = lib.Cell(partner), 0
			break
		}
	}
	if swapped == "" {
		t.Fatal("no output driver with a swap partner")
	}
	got, err = Netlist(&bad, vec)
	if err != nil {
		t.Fatal(err)
	}
	if Compare(want, got) == nil {
		t.Fatalf("netlist with %s accepted", swapped)
	}
	got, area, err = Verilog(verilog(&bad), lib, vec)
	if err != nil {
		t.Fatal(err)
	}
	if Compare(want, got) == nil {
		t.Fatalf("Verilog with %s accepted", swapped)
	}
	if CheckArea(res.CellArea, area) == nil {
		t.Fatalf("cell area after %s accepted", swapped)
	}
}

func TestCheckPlacementRejectsOffRowAndOutsideCells(t *testing.T) {
	l, err := place.NewLayout(10000, 1, library.RowHeight)
	if err != nil {
		t.Fatal(err)
	}
	widths := []float64{2, 2}
	ok := []geom.Point{geom.Pt(5, l.RowY(0)), geom.Pt(20, l.RowY(l.NumRows-1))}
	if err := CheckPlacement(l, widths, ok); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]geom.Point{
		{ok[0], geom.Pt(20, l.RowY(1)+0.5)},
		{ok[0], geom.Pt(l.Die.Max.X-0.5, l.RowY(1))},
		{ok[0], geom.Pt(20, l.RowY(l.NumRows))},
	} {
		if CheckPlacement(l, widths, bad) == nil {
			t.Errorf("placement %v accepted", bad)
		}
	}
}

func TestWirelengthLowerBoundIsGCellHalfPerimeter(t *testing.T) {
	die := geom.R(0, 0, 100, 100)
	nl := &place.Netlist{
		Widths: []float64{1, 1},
		Nets:   []place.Net{{Cells: []int{0, 1}, Pads: []geom.Point{geom.Pt(99, 1)}}},
	}
	pos := []geom.Point{geom.Pt(1, 1), geom.Pt(55, 75)}
	// 10×10 gcells of 10 µm: the pins sit in gcells (0,0), (5,7), (9,0).
	if got := WirelengthLowerBound(nl, pos, die, 10); got != 160 {
		t.Fatalf("bound %g, want 160", got)
	}
}
