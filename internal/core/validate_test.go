package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/table"
)

func TestValidateAcceptsConstructedTrees(t *testing.T) {
	tbl := randomTable(1000, 21)
	tree := NewTree(tbl.Schema, nil)
	l, r := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 40}))
	tree.Split(l, UnaryCut(expr.Pred{Col: 1, Op: expr.Eq, Literal: 1}))
	tree.Split(r, UnaryCut(expr.Pred{Col: 0, Op: expr.Ge, Literal: 80}))
	tree.Leaves()
	bids := tree.RouteTable(tbl)
	tree.Freeze(tbl, bids)
	if err := tree.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
}

func TestValidateAfterSerializationRoundTrip(t *testing.T) {
	tbl := randomTable(500, 22)
	tree := NewTree(tbl.Schema, nil)
	tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 50}))
	tree.RouteTable(tbl)
	data, err := tree.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	back.Leaves()
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped tree invalid: %v", err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	mk := func() *Tree {
		tree := NewTree(twoColSchema(), nil)
		tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 40}))
		tree.Leaves()
		return tree
	}
	// Duplicate IDs.
	tr := mk()
	tr.Left().ID = tr.Root.ID
	if err := tr.Validate(); err == nil {
		t.Error("duplicate IDs must be rejected")
	}
	// Child interval escaping parent.
	tr = mk()
	tr.Left().Desc.Hi[0] = 1000
	if err := tr.Validate(); err == nil {
		t.Error("escaping child interval must be rejected")
	}
	// Bad cut column.
	tr = mk()
	tr.Root.Cut.Pred.Col = 99
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range cut column must be rejected")
	}
	// Bad advanced-cut index.
	tr = mk()
	tr.Root.Cut = &Cut{IsAdv: true, Adv: 5}
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range AC must be rejected")
	}
	// Inconsistent counts.
	tr = mk()
	tr.Root.Count = 100
	tr.Left().Count = 10
	tr.Root.Right.Count = 10
	if err := tr.Validate(); err == nil {
		t.Error("count mismatch must be rejected")
	}
	// Wrong depth.
	tr = mk()
	tr.Left().Depth = 7
	if err := tr.Validate(); err == nil {
		t.Error("wrong child depth must be rejected")
	}
	// Non-dense block IDs.
	tr = mk()
	tr.Left().BlockID = 5
	if err := tr.Validate(); err == nil {
		t.Error("non-dense block IDs must be rejected")
	}
	// Empty tree.
	if err := (&Tree{Schema: twoColSchema()}).Validate(); err == nil {
		t.Error("nil root must be rejected")
	}
}

// Left is a test helper exposing the root's left child.
func (t *Tree) Left() *Node { return t.Root.Left }

func TestCheckSchema(t *testing.T) {
	tree := NewTree(twoColSchema(), nil)
	good := table.New(twoColSchema(), 0)
	if err := tree.CheckSchema(good); err != nil {
		t.Fatalf("matching schema rejected: %v", err)
	}
	short := table.New(table.MustSchema([]table.Column{
		{Name: "cpu", Kind: table.Numeric, Min: 0, Max: 99}}), 0)
	if err := tree.CheckSchema(short); err == nil {
		t.Error("column count mismatch must be rejected")
	}
	wrongKind := table.New(table.MustSchema([]table.Column{
		{Name: "cpu", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "mode", Kind: table.Numeric, Min: 0, Max: 2}}), 0)
	if err := tree.CheckSchema(wrongKind); err == nil {
		t.Error("kind mismatch must be rejected")
	}
	wrongDom := table.New(table.MustSchema([]table.Column{
		{Name: "cpu", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "mode", Kind: table.Categorical, Dom: 7}}), 0)
	if err := tree.CheckSchema(wrongDom); err == nil {
		t.Error("domain mismatch must be rejected")
	}
}

// Property: every tree built by random legal splits validates.
func TestValidatePropertyRandomTrees(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		tree := NewTree(twoColSchema(), nil)
		leaves := []*Node{tree.Root}
		for k := 0; k < 1+rng.Intn(6); k++ {
			n := leaves[rng.Intn(len(leaves))]
			if !n.IsLeaf() {
				continue
			}
			var cut Cut
			if rng.Intn(2) == 0 {
				cut = UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: int64(rng.Intn(100))})
			} else {
				cut = UnaryCut(expr.Pred{Col: 1, Op: expr.Eq, Literal: int64(rng.Intn(3))})
			}
			l, r := tree.Split(n, cut)
			leaves = append(leaves, l, r)
		}
		tree.Leaves()
		if err := tree.Validate(); err != nil {
			t.Fatalf("trial %d: constructed tree invalid: %v", trial, err)
		}
	}
}

// TestFreezeWidensAncestorsBeyondSchemaBounds: rows outside the schema's
// numeric bounds (ingest accepts them) give leaves intervals outside
// their ancestors' split-time ones; Freeze widens every ancestor so the
// frozen tree still validates and each node contains its leaves' rows.
// On rows inside the bounds the inner descriptions do not change.
func TestFreezeWidensAncestorsBeyondSchemaBounds(t *testing.T) {
	build := func(tbl *table.Table) *Tree {
		tree := NewTree(tbl.Schema, nil)
		l, r := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 40}))
		tree.Split(l, UnaryCut(expr.Pred{Col: 1, Op: expr.Eq, Literal: 1}))
		tree.Split(r, UnaryCut(expr.Pred{Col: 0, Op: expr.Ge, Literal: 80}))
		return tree
	}
	inner := func(tree *Tree) []Desc {
		var out []Desc
		tree.Walk(func(n *Node) {
			if !n.IsLeaf() {
				out = append(out, n.Desc.Clone())
			}
		})
		return out
	}

	tbl := randomTable(1000, 23)
	tree := build(tbl)
	before := inner(tree)
	tree.Freeze(tbl, tree.RouteTable(tbl))
	if after := inner(tree); !reflect.DeepEqual(before, after) {
		t.Fatalf("in-bounds Freeze changed inner descriptions:\n%+v\n%+v", before, after)
	}

	max := tbl.Schema.Cols[0].Max
	for _, v := range []int64{max + 1, 2 * max, -7} {
		tbl.AppendRow([]int64{v, 1})
	}
	tree = build(tbl)
	tree.Freeze(tbl, tree.RouteTable(tbl))
	if err := tree.Validate(); err != nil {
		t.Fatalf("tree frozen over out-of-bounds rows: %v", err)
	}
	if lo, hi := tree.Root.Desc.Lo[0], tree.Root.Desc.Hi[0]; lo > -7 || hi <= 2*max {
		t.Fatalf("root interval [%d,%d) does not cover the ingested rows", lo, hi)
	}
}

func TestDescWiden(t *testing.T) {
	s := table.MustSchema([]table.Column{
		{Name: "x", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "c", Kind: table.Categorical, Dom: 4},
	})
	a, b := NewRootDesc(s, 2), NewRootDesc(s, 2)
	a.Lo[0], a.Hi[0] = 10, 20
	b.Lo[0], b.Hi[0] = 150, 160
	a.Masks[1], b.Masks[1] = expr.NewBitset(4), expr.NewBitset(4)
	a.Masks[1].Set(0)
	b.Masks[1].Set(3)
	a.AdvMay.Clear(1)
	b.AdvMayNot.Clear(0)
	a.AdvMayNot.Clear(0)
	a.Widen(&b)
	if a.Lo[0] != 10 || a.Hi[0] != 160 {
		t.Errorf("interval [%d,%d), want [10,160)", a.Lo[0], a.Hi[0])
	}
	if !a.Masks[1].Get(0) || !a.Masks[1].Get(3) || a.Masks[1].Get(1) {
		t.Errorf("mask %v, want {0,3}", a.Masks[1])
	}
	if !a.AdvMay.Get(1) || a.AdvMayNot.Get(0) {
		t.Errorf("advanced-cut bits may=%v mayNot=%v", a.AdvMay, a.AdvMayNot)
	}
	if b.Lo[0] != 150 || b.Masks[1].Get(0) {
		t.Error("Widen must not modify its argument")
	}
}
