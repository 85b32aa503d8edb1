package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pip/internal/server"
)

// buildPipd compiles pipd from this checkout into a temporary directory.
func buildPipd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pipd")
	out, err := exec.Command("go", "build", "-o", bin, "pip/cmd/pipd").CombinedOutput()
	if err != nil {
		t.Fatalf("build pipd: %v\n%s", err, out)
	}
	return bin
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// requires the result line to carry exactly BENCHMARK.json's metrics with
// their units, every answer and durability check to pass, and the sampler
// and WAL counters to land where the workloads' designs put them.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots pipd")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json names workload %q, the benchmark has %v", w.Name, workloadNames)
		}
	}
	bin := buildPipd(t)
	for _, wl := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"-workload", wl, "-seed", "7", "-seconds", "1", "-trace", trace,
					"-pipd", bin, "-workdir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted %d", res.Attempted)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("error_rate %d/%d, want 0:\n%s", res.Failed, res.Attempted, stdout.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if trace == "0" {
					if !strings.Contains(stdout.String(), "error_rate") {
						t.Errorf("report lacks error_rate")
					}
					return
				}
				samples := res.Metrics["sampler.samples_per_query"].Value
				fsyncs := res.Metrics["wal.fsyncs_per_insert"].Value
				switch wl {
				case wlSampled:
					if samples <= 0 {
						t.Errorf("sampler.samples_per_query %g, want > 0", samples)
					}
				case wlWire:
					if samples > 100 {
						t.Errorf("sampler.samples_per_query %g, want about 0", samples)
					}
				case wlIngest:
					if samples != 0 {
						t.Errorf("sampler.samples_per_query %g, want 0", samples)
					}
				}
				// Every workload loads its catalog through the WAL, with
				// -fsync on: one fsync per logged statement.
				if fsyncs != 1 {
					t.Errorf("wal.fsyncs_per_insert %g, want 1", fsyncs)
				}
			})
		}
	}
}

// TestChecksRejectWrongAnswers feeds every answer check a deliberately
// wrong answer: each template's real first answer from pipd with one cell
// corrupted. Every check must reject it, and the durability check must
// reject a table that lacks an acknowledged row.
func TestChecksRejectWrongAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots pipd")
	}
	bin := buildPipd(t)
	ctx := context.Background()
	for _, name := range workloadNames {
		wl, err := buildWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		p, err := startPipd(ctx, bin, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.kill)
		c := server.NewClient(p.addr)
		if err := loadCatalog(ctx, c, wl.catalog); err != nil {
			t.Fatal(err)
		}
		if wl.ingest {
			g, err := newLoadGen(ctx, c, wl, 3)
			if err != nil {
				t.Fatal(err)
			}
			g.run(ctx, 200*time.Millisecond)
			if err := g.checkIngested(ctx, c); err != nil {
				t.Fatalf("durability check rejects a correct table: %v", err)
			}
			g.sessions[0].acked = append(g.sessions[0].acked, 1<<40)
			if g.checkIngested(ctx, c) == nil {
				t.Errorf("durability check accepts a table missing an acknowledged row")
			}
			continue
		}
		for _, tmpl := range wl.templates {
			cs, err := openSession(ctx, c, tmpl.samples)
			if err != nil {
				t.Fatal(err)
			}
			for i, prm := range tmpl.params {
				rows, err := cs.Query(ctx, tmpl.sql, prm.args...)
				if err != nil {
					t.Fatalf("%s: %v", tmpl.name, err)
				}
				a, _, err := readAnswer(rows, true)
				if err != nil {
					t.Fatalf("%s: %v", tmpl.name, err)
				}
				if len(a.rows) == 0 {
					t.Fatalf("%s[%d]: empty answer", tmpl.name, i)
				}
				corrupt(a)
				if prm.check(a) == nil {
					t.Errorf("%s[%d]: check accepts a corrupted answer", tmpl.name, i)
				}
			}
		}
	}
}

// corrupt changes the last cell of an answer: numbers move well outside
// any tolerance, equation cells become plain strings.
func corrupt(a *answer) {
	row := a.rows[len(a.rows)-1]
	v := &row[len(row)-1]
	if v.T == "e" {
		v.T = "s"
		return
	}
	f, err := floatOf(*v)
	if err != nil {
		v.S += "?"
		return
	}
	*v = server.Value{T: "f", F: lit(1.5*f + 1)}
}
