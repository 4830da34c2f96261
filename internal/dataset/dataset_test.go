package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestGenerateShapesAndRange(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Correlated, AntiCorrelated} {
		pts := Generate(dist, 500, 4, 1)
		if len(pts) != 500 {
			t.Fatalf("%v: got %d points, want 500", dist, len(pts))
		}
		for i, p := range pts {
			if len(p) != 4 {
				t.Fatalf("%v: point %d has %d dims, want 4", dist, i, len(p))
			}
			for j, c := range p {
				if c < 0 || c > 1 || math.IsNaN(c) {
					t.Fatalf("%v: point %d dim %d = %v outside [0,1]", dist, i, j, c)
				}
			}
		}
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	a := Generate(Correlated, 100, 3, 42)
	b := Generate(Correlated, 100, 3, 42)
	c := Generate(Correlated, 100, 3, 43)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("same seed diverged at [%d][%d]", i, j)
			}
		}
	}
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGeneratePanicsOnBadShape(t *testing.T) {
	for _, bad := range [][2]int{{0, 2}, {2, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Generate(n=%d, d=%d) did not panic", bad[0], bad[1])
				}
			}()
			Generate(Uniform, bad[0], bad[1], 1)
		}()
	}
}

func TestDistributionCorrelationSigns(t *testing.T) {
	n := 20000
	corr := Generate(Correlated, n, 4, 7)
	anti := Generate(AntiCorrelated, n, 4, 7)
	unif := Generate(Uniform, n, 4, 7)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if c := Correlation(corr, a, b); c < 0.5 {
				t.Errorf("correlated dims (%d,%d): correlation %v, want > 0.5", a, b, c)
			}
			if c := Correlation(anti, a, b); c > -0.1 {
				t.Errorf("anti-correlated dims (%d,%d): correlation %v, want < -0.1", a, b, c)
			}
			if c := Correlation(unif, a, b); math.Abs(c) > 0.05 {
				t.Errorf("uniform dims (%d,%d): correlation %v, want ≈ 0", a, b, c)
			}
		}
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || Correlated.String() != "correlated" ||
		AntiCorrelated.String() != "anti-correlated" {
		t.Fatal("Distribution.String misnames a distribution")
	}
	if !strings.Contains(Distribution(99).String(), "99") {
		t.Fatal("unknown distribution should include its numeric value")
	}
}

func TestCorrelationDegenerate(t *testing.T) {
	pts := [][]float64{{1, 2}, {1, 3}, {1, 4}}
	if c := Correlation(pts, 0, 1); c != 0 {
		t.Fatalf("constant column correlation = %v, want 0", c)
	}
	if c := Correlation(pts[:1], 0, 1); c != 0 {
		t.Fatalf("single point correlation = %v, want 0", c)
	}
}

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestChEMBLStatisticalSkeleton(t *testing.T) {
	mols := ChEMBL(60000, 3)
	s := Stats(mols)
	// Overall averages should land near the paper's Table 1 first row:
	// drug-likeness 8.94, MW 422.6, PSA 112.14. Allow generous slack — the
	// reproduction needs the same regime, not the same decimals.
	if s.DrugLikeness < 8 || s.DrugLikeness > 10 {
		t.Errorf("overall drug-likeness %v, want ≈ 8.9", s.DrugLikeness)
	}
	if s.MW < 380 || s.MW > 480 {
		t.Errorf("overall MW %v, want ≈ 422", s.MW)
	}
	if s.PSA < 90 || s.PSA > 135 {
		t.Errorf("overall PSA %v, want ≈ 112", s.PSA)
	}
	var nExc int
	for _, m := range mols {
		if m.DrugLikeness > MaxDrugLikeness || m.MW < MinMW {
			t.Fatalf("molecule outside reference ranges: %+v", m)
		}
		if m.Exception {
			nExc++
			if m.MW < 500 {
				t.Fatalf("exception molecule not overweight: %+v", m)
			}
			if m.PSA > 100 {
				t.Fatalf("exception molecule with high PSA: %+v", m)
			}
		}
	}
	frac := float64(nExc) / float64(len(mols))
	if frac < 0.005 || frac > 0.03 {
		t.Errorf("exception fraction %v, want ≈ 0.015", frac)
	}
	// MW↔PSA positive correlation in the bulk population.
	var bulk [][]float64
	for _, m := range mols {
		if !m.Exception {
			bulk = append(bulk, []float64{m.MW, m.PSA})
		}
	}
	if c := Correlation(bulk, 0, 1); c < 0.5 {
		t.Errorf("bulk MW↔PSA correlation %v, want strongly positive", c)
	}
}

func TestMoleculeVectorsNormalized(t *testing.T) {
	mols := ChEMBL(1000, 4)
	vecs := MoleculeVectors(mols)
	if len(vecs) != len(mols) {
		t.Fatalf("got %d vectors, want %d", len(vecs), len(mols))
	}
	for i, v := range vecs {
		if len(v) != 2 || v[0] < 0 || v[0] > 1 || v[1] < 0 || v[1] > 1 {
			t.Fatalf("vector %d = %v not normalized to [0,1]^2", i, v)
		}
		if !closeTo(v[0]*MaxDrugLikeness, mols[i].DrugLikeness, 1e-9) {
			t.Fatalf("vector %d drug-likeness mismatch", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := Generate(Uniform, 50, 3, 9)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip: %d rows, want %d", len(got), len(pts))
	}
	for i := range pts {
		for j := range pts[i] {
			if got[i][j] != pts[i][j] {
				t.Fatalf("round trip mismatch at [%d][%d]: %v != %v", i, j, got[i][j], pts[i][j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,2\n3,nope\n"), false); err == nil {
		t.Error("non-numeric cell: want error")
	}
	// encoding/csv itself rejects ragged rows; confirm the error surfaces.
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n"), false); err == nil {
		t.Error("ragged rows: want error")
	}
	got, err := ReadCSV(strings.NewReader(""), false)
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: got %v, %v; want empty, nil", got, err)
	}
}

func TestQueriesShape(t *testing.T) {
	qs := Queries(100, 6, 5)
	if len(qs) != 100 || len(qs[0]) != 6 {
		t.Fatalf("Queries shape = %dx%d, want 100x6", len(qs), len(qs[0]))
	}
}
