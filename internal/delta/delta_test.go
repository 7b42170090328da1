package delta

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestNormalize(t *testing.T) {
	d := Delta{Down: []int{5, 3, 5, 1}, Up: []int{2, 5, 2}}.Normalize()
	if !reflect.DeepEqual(d.Down, []int{1, 3}) || !reflect.DeepEqual(d.Up, []int{2}) {
		t.Fatalf("normalize = %v", d)
	}
	if !(Delta{}).Empty() {
		t.Fatal("zero delta should be empty")
	}
	if (Delta{Down: []int{1}}).Empty() {
		t.Fatal("non-zero delta reported empty")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	down := map[int]bool{1: true, 4: true}
	d := Delta{Down: []int{2}, Up: []int{4}}
	after := Apply(cloneSet(down), d)
	back := Apply(after, d.Invert())
	if !reflect.DeepEqual(back, down) {
		t.Fatalf("invert round trip: got %v want %v", back, down)
	}
}

func TestDiffApply(t *testing.T) {
	a := map[int]bool{1: true, 2: true}
	b := map[int]bool{2: true, 3: true}
	d := Diff(a, b)
	if !reflect.DeepEqual(d.Down, []int{3}) || !reflect.DeepEqual(d.Up, []int{1}) {
		t.Fatalf("diff = %v", d)
	}
	got := Apply(cloneSet(a), d)
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("apply(a, diff(a,b)) = %v want %v", got, b)
	}
	if Apply(nil, Delta{}) != nil {
		t.Fatal("empty delta on nil map should stay nil")
	}
}

func TestCompileBasic(t *testing.T) {
	seq, err := Compile([]Event{
		{At: 10, Link: 7, Down: true},
		{At: 20, Link: 7, Down: false},
		{At: 15, Link: 3, Down: true},
	}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 4 {
		t.Fatalf("len = %d want 4", seq.Len())
	}
	if got := seq.Epoch(0); got.Start != 0 || len(got.Down) != 0 || !got.Delta.Empty() {
		t.Fatalf("epoch 0 = %+v", got)
	}
	if got := seq.DownAt(12); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("down@12 = %v", got)
	}
	if got := seq.DownAt(17); !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("down@17 = %v", got)
	}
	if got := seq.DownAt(25); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("down@25 = %v", got)
	}
	// Epoch boundary is inclusive of its own start.
	if i := seq.At(10); i != 1 {
		t.Fatalf("At(10) = %d want 1", i)
	}
	if i := seq.At(-5); i != 0 {
		t.Fatalf("At(-5) = %d want 0", i)
	}
	if i := seq.At(1e9); i != seq.Len()-1 {
		t.Fatalf("At(inf) = %d want last", i)
	}
	if !seq.LinkDownAt(7, 10) || seq.LinkDownAt(7, 20) {
		t.Fatal("LinkDownAt boundary semantics: [start, end)")
	}
}

func TestCompileInitialStateBeforeSpan(t *testing.T) {
	// A window opened before t0 must already be down in epoch 0.
	seq, err := Compile([]Event{
		{At: -3, Link: 1, Down: true},
		{At: 5, Link: 1, Down: false},
	}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Epoch(0); !reflect.DeepEqual(got.Down, []int{1}) {
		t.Fatalf("epoch 0 down = %v want [1]", got.Down)
	}
	if d := seq.Epoch(0).Delta; !reflect.DeepEqual(d.Down, []int{1}) {
		t.Fatalf("epoch 0 delta should carry initial state, got %v", d)
	}
	if seq.LinkDownAt(1, 7) {
		t.Fatal("link should be back up at 7")
	}
}

func TestCompileSameInstantCancel(t *testing.T) {
	// A zero-length flap (down and up at the same instant) never existed.
	seq, err := Compile([]Event{
		{At: 5, Link: 1, Down: true},
		{At: 5, Link: 1, Down: false},
	}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 1 {
		t.Fatalf("zero-length flap produced %d epochs, want 1", seq.Len())
	}
}

func TestCompileRejectsBadSpan(t *testing.T) {
	if _, err := Compile(nil, 10, 5); err == nil {
		t.Fatal("reversed span accepted")
	}
	if _, err := Compile(nil, math.NaN(), 5); err == nil {
		t.Fatal("NaN span accepted")
	}
}

func TestSequenceDeltasChainToDownSets(t *testing.T) {
	// Folding each epoch's Delta must reproduce each epoch's Down set.
	rng := rand.New(rand.NewSource(42))
	var evs []Event
	state := map[int]bool{}
	for i := 0; i < 200; i++ {
		link := rng.Intn(12)
		evs = append(evs, Event{At: float64(rng.Intn(500)), Link: link, Down: !state[link]})
		state[link] = !state[link]
	}
	seq, err := Compile(evs, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	cur := map[int]bool{}
	for i := 0; i < seq.Len(); i++ {
		ep := seq.Epoch(i)
		cur = Apply(cur, ep.Delta)
		if got := sortedKeys(cur); !reflect.DeepEqual(got, ep.Down) {
			t.Fatalf("epoch %d: folded delta %v != down %v", i, got, ep.Down)
		}
		if ds := ep.DownSet(); len(ds) != len(ep.Down) {
			t.Fatalf("epoch %d: DownSet len %d != %d", i, len(ds), len(ep.Down))
		}
	}
}

func TestCompileEventOrderIrrelevant(t *testing.T) {
	evs := []Event{
		{At: 30, Link: 2, Down: false},
		{At: 10, Link: 2, Down: true},
		{At: 20, Link: 5, Down: true},
		{At: 25, Link: 5, Down: false},
	}
	a, err := Compile(evs, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	rev := []Event{evs[3], evs[2], evs[1], evs[0]}
	b, err := Compile(rev, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.epochs, b.epochs) {
		t.Fatalf("order-dependent compile:\n%v\nvs\n%v", a.epochs, b.epochs)
	}
}
