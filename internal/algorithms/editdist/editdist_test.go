package editdist

import (
	"math/rand"
	"testing"

	"repro/internal/fm"
	"repro/internal/workspan"
)

// refLevenshtein is an independent (n+1)x(m+1) textbook implementation.
func refLevenshtein(a, b []byte) int32 {
	n, m := len(a), len(b)
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = int32(j)
	}
	for i := 1; i <= n; i++ {
		cur[0] = int32(i)
		for j := 1; j <= m; j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			v := sub
			if d := prev[j] + 1; d < v {
				v = d
			}
			if in := cur[j-1] + 1; in < v {
				v = in
			}
			cur[j] = v
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(4))
	}
	return b
}

func TestDistanceKnownCases(t *testing.T) {
	cases := []struct {
		r, q string
		want int32
	}{
		{"a", "a", 0},
		{"a", "b", 1},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"abc", "abcd", 1},
		{"x", "abcd", 4},
	}
	for _, c := range cases {
		if got := Distance([]byte(c.r), []byte(c.q), Levenshtein()); got != c.want {
			t.Errorf("Distance(%q,%q) = %d, want %d", c.r, c.q, got, c.want)
		}
	}
}

func TestSerialMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		r := randBytes(rng, 1+rng.Intn(40))
		q := randBytes(rng, 1+rng.Intn(40))
		if got, want := Distance(r, q, Levenshtein()), refLevenshtein(r, q); got != want {
			t.Fatalf("trial %d: %d != %d (r=%q q=%q)", trial, got, want, r, q)
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lv := Levenshtein()
	for trial := 0; trial < 20; trial++ {
		a := randBytes(rng, 1+rng.Intn(20))
		b := randBytes(rng, 1+rng.Intn(20))
		dab := Distance(a, b, lv)
		dba := Distance(b, a, lv)
		if dab != dba {
			t.Fatalf("not symmetric: %d vs %d", dab, dba)
		}
		if daa := Distance(a, a, lv); daa != 0 {
			t.Fatalf("d(a,a) = %d", daa)
		}
		// Triangle inequality through a third string.
		c := randBytes(rng, 1+rng.Intn(20))
		if dab > Distance(a, c, lv)+Distance(c, b, lv) {
			t.Fatal("triangle inequality violated")
		}
		// Bounded by the longer length.
		maxLen := int32(len(a))
		if int32(len(b)) > maxLen {
			maxLen = int32(len(b))
		}
		if dab > maxLen {
			t.Fatalf("distance %d exceeds max length %d", dab, maxLen)
		}
	}
}

func TestClampZero(t *testing.T) {
	// The paper's literal fragment (min with 0) can never exceed zero.
	h := Serial([]byte("abc"), []byte("xyz"), Costs{
		F: func(r, q byte) int32 {
			if r == q {
				return -2
			}
			return 1
		},
		D: 1, I: 1, ClampZero: true,
	})
	for i := range h {
		for j := range h[i] {
			if h[i][j] > 0 {
				t.Fatalf("H(%d,%d) = %d > 0 despite clamp", i, j, h[i][j])
			}
		}
	}
}

func TestWavefrontMatchesSerial(t *testing.T) {
	pool := workspan.NewPool(4, workspan.WorkStealing)
	defer pool.Close()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		r := randBytes(rng, 1+rng.Intn(60))
		q := randBytes(rng, 1+rng.Intn(60))
		want := Serial(r, q, Levenshtein())
		var got [][]int32
		pool.Run(func(c *workspan.Ctx) {
			got = Wavefront(c, r, q, Levenshtein(), 8)
		})
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d: H(%d,%d) = %d, want %d", trial, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestGraphComputesSameTable(t *testing.T) {
	// The F&M function, interpreted semantically, reproduces the DP
	// table: same computation, mapping-independent.
	rng := rand.New(rand.NewSource(4))
	r := randBytes(rng, 12)
	q := randBytes(rng, 17)
	g, dom, err := Recurrence(r, q).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := fm.Interpret(g, nil, Evaluator(dom, r, q, Levenshtein()))
	if err != nil {
		t.Fatal(err)
	}
	want := Serial(r, q, Levenshtein())
	for i := 0; i < len(r); i++ {
		for j := 0; j < len(q); j++ {
			if got := vals[dom.Node(i, j)]; got != int64(want[i][j]) {
				t.Fatalf("graph H(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	if got := vals[dom.Node(len(r)-1, len(q)-1)]; got != int64(refLevenshtein(r, q)) {
		t.Fatalf("final cell %d != reference %d", got, refLevenshtein(r, q))
	}
}

// systolicTarget is a fine-pitch grid: the paper maps computations "to
// the granularity of the grid (sub-mm)", and a systolic array only pays
// off when neighbour wires are short relative to the cell's work.
func systolicTarget(w int) fm.Target {
	tgt := fm.DefaultTarget(w, 1)
	tgt.Grid.PitchMM = 0.1
	tgt.MemWordsPerNode = 1 << 20
	return tgt
}

func TestPaperMappingLegalAndFasterThanSerial(t *testing.T) {
	r := make([]byte, 24)
	q := make([]byte, 24)
	for _, p := range []int{1, 4, 8} {
		tgt := systolicTarget(8)
		c, err := PaperMapping(r, q, p, tgt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if c.PlacesUsed != p {
			t.Errorf("P=%d: used %d places", p, c.PlacesUsed)
		}
		if p > 1 {
			s, err := SerialMapping(r, q, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if c.Cycles >= s.Cycles {
				t.Errorf("P=%d: paper mapping (%d cycles) not faster than serial (%d)",
					p, c.Cycles, s.Cycles)
			}
			if s.WireEnergy != 0 {
				t.Errorf("serial mapping moved data: %g", s.WireEnergy)
			}
			if c.WireEnergy <= 0 {
				t.Errorf("P=%d: parallel mapping should pay wire energy", p)
			}
		}
	}
}

func TestPaperMappingCrossover(t *testing.T) {
	// At P=2 the stride (op + hop) exceeds twice the serial per-cell
	// cost, so the systolic mapping only overtakes serial once P climbs
	// past that ratio — a crossover the explicit cost model predicts and
	// a unit-cost model (PRAM/RAM) cannot see.
	r := make([]byte, 24)
	q := make([]byte, 24)
	tgt := systolicTarget(8)
	s, err := SerialMapping(r, q, tgt)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := PaperMapping(r, q, 2, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Cycles < s.Cycles {
		stride, _ := fm.MinAntiDiagonalStrideChecked(tgt, 0, 32, len(q), 2)
		t.Skipf("P=2 already wins on this target (stride %d)", stride)
	}
	c8, err := PaperMapping(r, q, 8, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if c8.Cycles >= s.Cycles {
		t.Errorf("P=8 (%d cycles) should beat serial (%d)", c8.Cycles, s.Cycles)
	}
}

func TestPaperMappingSpeedupGrowsWithP(t *testing.T) {
	r := make([]byte, 32)
	q := make([]byte, 32)
	var prev int64
	for i, p := range []int{2, 4, 8} {
		tgt := systolicTarget(8)
		c, err := PaperMapping(r, q, p, tgt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if i > 0 && c.Cycles >= prev {
			t.Errorf("P=%d: %d cycles, not faster than %d", p, c.Cycles, prev)
		}
		prev = c.Cycles
	}
}

func TestPanicsOnEmpty(t *testing.T) {
	for _, f := range []func(){
		func() { Serial(nil, []byte("a"), Levenshtein()) },
		func() { Distance([]byte("a"), nil, Levenshtein()) },
		func() { Recurrence(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
