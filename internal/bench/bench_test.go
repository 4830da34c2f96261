package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRegistryComplete: every figure and table of the paper has a registered
// experiment.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f",
		"fig7g", "fig7h", "fig7i", "fig7j",
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e",
		"fig8f", "fig8g", "fig8h", "fig8i", "fig8j",
		"table1",
		"ablation-angles", "ablation-branching", "ablation-bulk", "ablation-alg4",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry holds %d experiments, want %d", len(All()), len(want))
	}
	// Publication order: figures, then tables, then ablations.
	all := All()
	if all[0].ID != "fig7a" || all[len(all)-1].ID[:8] != "ablation" {
		t.Errorf("ordering wrong: first %s last %s", all[0].ID, all[len(all)-1].ID)
	}
}

// TestEveryExperimentRunsTiny smoke-runs each experiment at minimal scale
// and checks the report prints non-empty output with the expected series.
func TestEveryExperimentRunsTiny(t *testing.T) {
	cfg := Config{Scale: 0.001, Seed: 1, Queries: 3}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			report := e.Run(cfg)
			var buf bytes.Buffer
			report.Print(&buf)
			out := buf.String()
			if len(out) == 0 {
				t.Fatal("empty report")
			}
			if sr, ok := report.(*SeriesReport); ok {
				if len(sr.Series) == 0 {
					t.Fatal("no series")
				}
				for _, s := range sr.Series {
					if len(s.X) == 0 || len(s.X) != len(s.Y) {
						t.Fatalf("series %q has %d X / %d Y", s.Name, len(s.X), len(s.Y))
					}
				}
			}
			if tr, ok := report.(*TableReport); ok {
				if len(tr.Rows) == 0 {
					t.Fatal("no table rows")
				}
			}
		})
	}
}

func TestSeriesReportFormatting(t *testing.T) {
	r := &SeriesReport{
		Title:  "demo",
		XLabel: "n",
		YLabel: "ms",
		Series: []Series{
			{Name: "a", X: []float64{1, 10}, Y: []float64{0.5, 123.456}},
			{Name: "b", X: []float64{1, 10}, Y: []float64{2, 4}},
		},
	}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "n", "a", "b", "0.500", "123.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.Queries != 100 {
		t.Fatalf("defaults = %+v", c)
	}
	if got := (Config{Scale: 0.5}).scaled(10_000); got != 5000 {
		t.Fatalf("scaled = %d, want 5000", got)
	}
	if got := (Config{Scale: 1e-9}).scaled(10_000); got != 1000 {
		t.Fatalf("scaled floor = %d, want 1000", got)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted an unknown id")
	}
}
