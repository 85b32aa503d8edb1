// Machine-readable benchmark reports: `pipbench -json FILE` runs a compact
// measurement suite and writes one JSON document designed for regression
// gating (tools/benchgate) and CI artifact upload. The schema is versioned
// so downstream tooling can reject incompatible files instead of
// misreading them.

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"pip"
	"pip/internal/bench"
	"pip/internal/server"
	"pip/internal/sql"
	"pip/internal/tpch"
)

// benchSchemaVersion identifies the report layout; bump on any
// incompatible field change so tools/benchgate refuses stale comparisons.
const benchSchemaVersion = 1

// benchReport is the top-level JSON document.
type benchReport struct {
	SchemaVersion int    `json:"schema_version"`
	GitSHA        string `json:"git_sha"`
	GoVersion     string `json:"go_version"`
	Quick         bool   `json:"quick"`
	Seed          uint64 `json:"seed"`
	Samples       int    `json:"samples"`

	// QueriesPerSec is the throughput of a simple expectation SELECT over
	// the demo catalog, single client, measured over a fixed iteration
	// count.
	QueriesPerSec float64 `json:"queries_per_sec"`
	// NsPerSample is the sampler's per-sample cost on the Q1 workload
	// (SampleTime / sample budget).
	NsPerSample float64 `json:"ns_per_sample"`
	// Join reports the hash-join query benchmark.
	Join joinReport `json:"join"`
	// Speedup is the parallel world-evaluation curve (bench.Speedup), one
	// row per workload.
	Speedup []speedupReport `json:"speedup"`
	// JoinBenches tracks the 3-table join pair — hash join and the
	// hint-forced nested-loop cross product, the same query and hints as
	// the repo's BenchmarkJoin3* benchmarks — through the public API, so
	// join-engine wins and regressions land in the baseline trajectory.
	// Additive: benchgate ignores fields it does not know, so old baselines
	// stay comparable.
	JoinBenches []joinBenchReport `json:"join_benches"`
}

// joinReport measures one equi-join expectation query end to end.
type joinReport struct {
	Query string  `json:"query"`
	Ms    float64 `json:"ms"`
}

// joinBenchReport is one join micro-benchmark: average wall clock per
// executed query, streaming all result rows.
type joinBenchReport struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

// speedupReport is one bench.SpeedupRow, flattened for JSON.
type speedupReport struct {
	Workload  string  `json:"workload"`
	Workers   int     `json:"workers"`
	SeqMs     float64 `json:"seq_ms"`
	ParMs     float64 `json:"par_ms"`
	Speedup   float64 `json:"speedup"`
	Identical bool    `json:"identical"`
}

// gitSHA best-efforts the current commit (CI has git; a release tarball
// may not).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runJSON produces the report and writes it to path.
func runJSON(path string, opt bench.Options, quick bool, workers int) error {
	rep := benchReport{
		SchemaVersion: benchSchemaVersion,
		GitSHA:        gitSHA(),
		GoVersion:     runtime.Version(),
		Quick:         quick,
		Seed:          opt.Seed,
		Samples:       opt.Samples,
	}

	// Throughput: simple expectation SELECT over the demo catalog.
	db := pip.Open(pip.Options{Seed: opt.Seed})
	for _, stmt := range server.DemoStatements {
		db.MustExec(stmt)
	}
	const iters = 50
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		db.MustQuery("SELECT expected_sum(price) FROM orders")
	}
	rep.QueriesPerSec = iters / time.Since(t0).Seconds()

	// Join: the paper's running-example equi-join, planned as a hash join.
	joinQ := "SELECT expected_sum(o.price) FROM orders o, shipping s WHERE o.shipto = s.dest AND s.duration >= 7"
	t0 = time.Now()
	db.MustQuery(joinQ)
	rep.Join = joinReport{Query: joinQ, Ms: float64(time.Since(t0).Microseconds()) / 1000}

	// Per-sample cost: Q1's sampling phase over the TPC-H generator.
	data := tpch.Generate(opt.Scale, opt.Seed)
	q1, err := bench.Q1PIP(data, opt.Samples, opt.Seed)
	if err != nil {
		return fmt.Errorf("q1: %w", err)
	}
	if q1.Samples > 0 {
		rep.NsPerSample = float64(q1.SampleTime.Nanoseconds()) / float64(q1.Samples)
	}

	// Parallel speedup curve with the bit-identity verdicts.
	rows, err := bench.Speedup(opt, workers)
	if err != nil {
		return fmt.Errorf("speedup: %w", err)
	}
	for _, r := range rows {
		rep.Speedup = append(rep.Speedup, speedupReport{
			Workload:  r.Workload,
			Workers:   r.Workers,
			SeqMs:     float64(r.SeqTime.Microseconds()) / 1000,
			ParMs:     float64(r.ParTime.Microseconds()) / 1000,
			Speedup:   r.Speedup(),
			Identical: r.Identical,
		})
	}

	// Join pair: hash join vs hint-forced nested loop over the same rows.
	rep.JoinBenches, err = measureJoinBenches()
	if err != nil {
		return fmt.Errorf("join benches: %w", err)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// measureJoinBenches runs the 3-table equi-join once per planner mode:
// hash-joined as planned, then with rewrite rules and hash joins disabled
// via hints so it executes as the filtered cross product. The catalog,
// query, hints and expected row count replicate BenchmarkJoin3* exactly.
func measureJoinBenches() ([]joinBenchReport, error) {
	const joinRows = 48
	db := pip.Open(pip.Options{Seed: 5})
	db.MustExec("CREATE TABLE jr (a, ra)")
	db.MustExec("CREATE TABLE js (a, b, sb)")
	db.MustExec("CREATE TABLE jt (b, tc)")
	for i := 0; i < joinRows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO jr VALUES (%d, %d)", i, i*2))
		db.MustExec(fmt.Sprintf("INSERT INTO js VALUES (%d, %d, %d)", i, i+1000, i*3))
		db.MustExec(fmt.Sprintf("INSERT INTO jt VALUES (%d, %d)", i+1000, i*5))
	}
	const q = "SELECT jr.ra, js.sb, jt.tc FROM jr, js, jt WHERE jr.a = js.a AND js.b = jt.b"
	run := func(ctx context.Context) error {
		rows, err := db.QueryContext(ctx, q)
		if err != nil {
			return err
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			return err
		}
		if n != joinRows {
			return fmt.Errorf("join produced %d rows, want %d", n, joinRows)
		}
		return nil
	}
	cases := []struct {
		name  string
		hints sql.Hints
		iters int
	}{
		{"join3_hash", sql.Hints{}, 200},
		{"join3_nested_loop", sql.Hints{NoFold: true, NoPushdown: true, NoHashJoin: true, NoPrune: true}, 20},
	}
	out := make([]joinBenchReport, 0, len(cases))
	for _, c := range cases {
		ctx := sql.WithHints(context.Background(), c.hints)
		if err := run(ctx); err != nil { // warmup
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		t0 := time.Now()
		for i := 0; i < c.iters; i++ {
			if err := run(ctx); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		out = append(out, joinBenchReport{
			Name:    c.name,
			NsPerOp: float64(time.Since(t0).Nanoseconds()) / float64(c.iters),
		})
	}
	return out, nil
}
