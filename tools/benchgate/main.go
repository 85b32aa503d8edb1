// Command benchgate compares two pipbench -json reports and fails when the
// new run regresses beyond a tolerance factor — the CI gate behind the
// BENCH_*.json trajectory files:
//
//	go run ./tools/benchgate -old BENCH_5.json -new BENCH_6.json [-factor 8]
//
// Checks, in order: the schema versions must match exactly (a layout change
// invalidates the comparison, not the build); every speedup row of the
// new report must carry Identical=true (a bit-identity break is
// a correctness failure, never a perf tradeoff); and throughput /
// per-sample cost / join latency / the join micro-pair must not be worse
// than the old report by more than the tolerance factor. The factor defaults high (8x) because CI machines are noisy and
// the gate exists to catch order-of-magnitude cliffs, not jitter. Exit
// status is 1 on any finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// report mirrors the pipbench -json fields the gate reads; unknown fields
// are ignored so satellite additions don't break old gates.
type report struct {
	SchemaVersion int     `json:"schema_version"`
	GitSHA        string  `json:"git_sha"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	NsPerSample   float64 `json:"ns_per_sample"`
	Join          struct {
		Ms float64 `json:"ms"`
	} `json:"join"`
	Speedup []struct {
		Workload  string `json:"workload"`
		Identical bool   `json:"identical"`
	} `json:"speedup"`
	JoinBenches []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"join_benches"`
}

func main() {
	var (
		oldPath = flag.String("old", "", "baseline report (required)")
		newPath = flag.String("new", "", "candidate report (required)")
		factor  = flag.Float64("factor", 8, "maximum tolerated regression factor")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		os.Exit(2)
	}
	oldRep, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	newRep, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	bad := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
		bad++
	}

	if oldRep.SchemaVersion != newRep.SchemaVersion {
		fail("schema version mismatch: baseline v%d, candidate v%d — regenerate the baseline",
			oldRep.SchemaVersion, newRep.SchemaVersion)
	}
	for _, s := range newRep.Speedup {
		if !s.Identical {
			fail("workload %s: parallel run is not bit-identical to sequential", s.Workload)
		}
	}
	// Higher is better for throughput; lower is better for costs.
	if o, n := oldRep.QueriesPerSec, newRep.QueriesPerSec; o > 0 && n < o / *factor {
		fail("queries/s regressed beyond %gx: %.1f -> %.1f", *factor, o, n)
	}
	if o, n := oldRep.NsPerSample, newRep.NsPerSample; o > 0 && n > o**factor {
		fail("ns/sample regressed beyond %gx: %.1f -> %.1f", *factor, o, n)
	}
	if o, n := oldRep.Join.Ms, newRep.Join.Ms; o > 0 && n > o**factor {
		fail("join latency regressed beyond %gx: %.3fms -> %.3fms", *factor, o, n)
	}
	// Join micro-pair: compared by name, only when both reports carry the
	// row (baselines before BENCH_10 lack the section).
	for _, n := range newRep.JoinBenches {
		for _, o := range oldRep.JoinBenches {
			if o.Name == n.Name && o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp**factor {
				fail("%s regressed beyond %gx: %.0fns -> %.0fns", n.Name, *factor, o.NsPerOp, n.NsPerOp)
			}
		}
	}

	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (%s -> %s, factor %g)\n", oldRep.GitSHA, newRep.GitSHA, *factor)
}

// load reads and decodes one report file.
func load(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
