package vectest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/golden"
	"pip/internal/sql"
)

const testSamples = 200

// workerCounts are the sampler worker counts every golden comparison runs
// at: sampled moments are bit-identical at any worker count, so one golden
// file serves all of them.
var workerCounts = []int{1, 4, runtime.NumCPU()}

func seedDB(t *testing.T, workers int) *core.DB {
	t.Helper()
	db, err := SeedDB(testSamples, workers)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// renderCorpus runs every corpus query under hints h and renders, per
// query, the result table and the EXPLAIN ANALYZE skeleton, or the error.
func renderCorpus(db *core.DB, h sql.Hints) string {
	var b strings.Builder
	for _, q := range Corpus() {
		fmt.Fprintf(&b, "=== %s\n", q)
		r, err := RunQuery(db, q, h)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		b.WriteString(r.Rows)
		b.WriteString("--- plan\n")
		for _, line := range r.Plan {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// TestGoldenCorpus is the harness's core assertion: every corpus query
// renders a byte-identical result table (values, sampled moments,
// conditions, row order) and identical per-operator EXPLAIN ANALYZE row
// counts to the checked-in golden file, at every worker count.
func TestGoldenCorpus(t *testing.T) {
	for _, w := range workerCounts {
		golden.Check(t, "testdata/corpus.golden", fmt.Sprintf("workers=%d", w), renderCorpus(seedDB(t, w), sql.Hints{}))
	}
}

// TestGoldenCorpusRulesOff re-runs the corpus with every planner rewrite
// disabled: the naive cross-product-then-filter pipeline (nested-loop
// joins, no pushdown, no pruning) must match its own golden file.
func TestGoldenCorpusRulesOff(t *testing.T) {
	off := sql.Hints{NoFold: true, NoPushdown: true, NoHashJoin: true, NoPrune: true}
	for _, w := range workerCounts {
		golden.Check(t, "testdata/corpus_rules_off.golden", fmt.Sprintf("workers=%d", w), renderCorpus(seedDB(t, w), off))
	}
}

// TestSetVectorizeIsNoOp proves the retired engine switch is accepted and
// ignored: with either SET vectorize value in effect the corpus still
// matches its golden file.
func TestSetVectorizeIsNoOp(t *testing.T) {
	db := seedDB(t, 2)
	for _, v := range []string{"off", "on"} {
		if _, err := sql.Exec(db, "SET vectorize = "+v); err != nil {
			t.Fatal(err)
		}
		golden.Check(t, "testdata/corpus.golden", "SET vectorize = "+v, renderCorpus(db, sql.Hints{}))
	}
}

// TestVectorizedPlanReportsBatches pins the observability annotation:
// EXPLAIN ANALYZE reports batches= next to rows= on every operator.
func TestVectorizedPlanReportsBatches(t *testing.T) {
	db := seedDB(t, 1)
	out, err := sql.Exec(db, "EXPLAIN ANALYZE SELECT cust, price FROM customers WHERE price > 200")
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range out.Tuples {
		line := tup.Values[0].S
		if strings.Contains(line, "rows=") && !strings.Contains(line, "batches=") {
			t.Fatalf("EXPLAIN ANALYZE line lacks batches=: %q\n%s", line, out)
		}
	}
}

// streamQueries are pulled through the public streaming cursor one row at
// a time.
var streamQueries = []string{
	"SELECT o.okey, c.name FROM orders o, customers c WHERE o.cust = c.cust ORDER BY o.okey LIMIT 7",
	"SELECT cust, price FROM customers WHERE price > 200",
	"SELECT s.berg, h.ship, conf() AS threat FROM sightings s, ships h WHERE s.plat > h.lat - 0.5 AND s.plat < h.lat + 0.5 AND s.plon > h.lon - 0.5 AND s.plon < h.lon + 0.5",
}

// TestStreamingCursorsMatch drives the engine through the public streaming
// cursor (QueryContext) instead of eager drain, pulling one row at a time:
// the rows, their order and the way the stream ends must match the golden
// file.
func TestStreamingCursorsMatch(t *testing.T) {
	for _, w := range workerCounts {
		db := seedDB(t, w)
		var b strings.Builder
		for _, q := range streamQueries {
			fmt.Fprintf(&b, "=== %s\n", q)
			cur, err := sql.QueryContext(t.Context(), db, q)
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				continue
			}
			for {
				tup, err := cur.Next()
				if err != nil {
					fmt.Fprintf(&b, "end: %v\n", err)
					break
				}
				cells := make([]string, len(tup.Values))
				for i, v := range tup.Values {
					cells[i] = v.String()
				}
				fmt.Fprintf(&b, "%s@%s\n", strings.Join(cells, "|"), tup.Cond)
			}
			cur.Close()
		}
		golden.Check(t, "testdata/streams.golden", fmt.Sprintf("workers=%d", w), b.String())
	}
}
