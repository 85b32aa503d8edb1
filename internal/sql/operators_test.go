package sql

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/golden"
	"pip/internal/sampler"
)

// vecSizesDB builds a table of exactly n rows (v = row index, tag = v mod 7)
// plus a small dimension table for joins.
func vecSizesDB(t *testing.T, n int) *core.DB {
	t.Helper()
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 99
	cfg.FixedSamples = 64
	db := core.NewDB(cfg)
	mustExec(t, db, "CREATE TABLE t (v, tag)")
	for lo := 0; lo < n; lo += 256 {
		hi := lo + 256
		if hi > n {
			hi = n
		}
		rows := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d)", i, i%7))
		}
		mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(rows, ", "))
	}
	mustExec(t, db, "CREATE TABLE u (tag, lbl)")
	for i := 0; i < 7; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO u VALUES (%d, 'L%d')", i, i))
	}
	return db
}

// TestVecBatchBoundaries pushes tables of 0, 1, batch-1, batch and batch+1
// rows through every operator shape (scan, filter, project, hash-join build
// and probe sides, DISTINCT, ORDER BY, streaming LIMIT stopping mid-batch)
// and compares each rendered result and its EXPLAIN ANALYZE row counts
// against testdata/batch_boundaries.golden, at workers 1, 4 and NumCPU.
func TestVecBatchBoundaries(t *testing.T) {
	queries := []string{
		"SELECT v FROM t",                                             // bare scan
		"SELECT v FROM t WHERE v >= 0",                                // filter keeping every row
		"SELECT v FROM t WHERE tag = 3",                               // sparse filter (~1/7 survive)
		"SELECT v FROM t WHERE v < 0",                                 // filter dropping every row
		"SELECT v * 2 AS d FROM t WHERE tag = 1",                      // project above filter
		"SELECT DISTINCT tag FROM t",                                  // distinct
		"SELECT v FROM t ORDER BY v DESC LIMIT 5",                     // sort + limit
		"SELECT v FROM t LIMIT 1000",                                  // limit mid-batch
		"SELECT v FROM t LIMIT 1024",                                  // limit at the batch boundary
		"SELECT v FROM t LIMIT 2000",                                  // limit beyond one batch
		"SELECT t.v, u.lbl FROM t, u WHERE t.tag = u.tag LIMIT 10",    // join probe under limit pressure
		"SELECT u.lbl, t.v FROM u, t WHERE u.tag = t.tag LIMIT 10",    // big table on the build side
		"SELECT expected_count(*) AS n FROM t, u WHERE t.tag = u.tag", // full join drain + aggregate
	}
	sizes := []int{0, 1, batchSize - 1, batchSize, batchSize + 1}
	dbs := make([]*core.DB, len(sizes))
	for i, n := range sizes {
		dbs[i] = vecSizesDB(t, n)
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		var b strings.Builder
		for i, n := range sizes {
			db := dbs[i]
			db.UpdateConfig(func(cfg *sampler.Config) { cfg.Workers = w })
			for _, q := range queries {
				fmt.Fprintf(&b, "=== n=%d %s\n", n, q)
				out, err := Exec(db, q)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				b.WriteString(out.String())
				node, err := Explain(db, "EXPLAIN ANALYZE "+q)
				if err != nil {
					fmt.Fprintf(&b, "explain error: %v\n", err)
					continue
				}
				var lines []string
				planRows(node, 0, &lines)
				b.WriteString("--- plan\n" + strings.Join(lines, "\n") + "\n")
			}
		}
		golden.Check(t, "testdata/batch_boundaries.golden", fmt.Sprintf("workers=%d", w), b.String())
	}
}

// errRowDB builds a 1500-row table t(v) whose row 1200 holds the string
// 'x' and every other row its numeric index: the row sits in the second
// batch, after 1200 good rows.
func errRowDB(t *testing.T) *core.DB {
	t.Helper()
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 99
	cfg.FixedSamples = 64
	db := core.NewDB(cfg)
	mustExec(t, db, "CREATE TABLE t (v)")
	for lo := 0; lo < 1500; lo += 250 {
		rows := make([]string, 0, 250)
		for i := lo; i < lo+250; i++ {
			if i == 1200 {
				rows = append(rows, "('x')")
			} else {
				rows = append(rows, fmt.Sprintf("(%d)", i))
			}
		}
		mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(rows, ", "))
	}
	return db
}

// TestEmitThenFail pins the error order of a per-row failure in the middle
// of a batch: a streaming cursor delivers every row before the failing one
// and then the error, and the eager path returns that same error and no
// table. The goldens hold the streamed rows and both errors.
func TestEmitThenFail(t *testing.T) {
	db := errRowDB(t)
	queries := []string{
		"SELECT v FROM t WHERE v > -1", // filter: incomparable values
		"SELECT v * 2 AS d FROM t",     // project: non-numeric arithmetic
	}
	var b strings.Builder
	for _, q := range queries {
		fmt.Fprintf(&b, "=== stream %s\n", q)
		cur, err := QueryContext(context.Background(), db, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows := 0
		for {
			tup, err := cur.Next()
			if err != nil {
				fmt.Fprintf(&b, "after %d rows: %v\n", rows, err)
				break
			}
			rows++
			fmt.Fprintf(&b, "%s\n", tup.Values[0])
		}
		cur.Close()
		fmt.Fprintf(&b, "=== exec %s\n", q)
		out, err := Exec(db, q)
		fmt.Fprintf(&b, "table=%v error: %v\n", out != nil, err)
	}
	golden.Check(t, "testdata/emit_then_fail.golden", "emit-then-fail", b.String())
}

// TestVecLimitStopsPulling asserts the need-driven chunk protocol: under
// LIMIT k the scan must report exactly k emitted rows, not a full batch.
func TestVecLimitStopsPulling(t *testing.T) {
	db := vecSizesDB(t, batchSize+1)
	node, err := Explain(db, "EXPLAIN ANALYZE SELECT v FROM t LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	scan := node
	for len(scan.Children) > 0 {
		scan = scan.Children[0]
	}
	if scan.Op != "Scan" || scan.Rows != 3 {
		t.Fatalf("scan under LIMIT 3 emitted rows=%d (op %s), want 3", scan.Rows, scan.Op)
	}
}

// TestVecCancellationBetweenBatches cancels the request context while a
// streaming cursor holds a partially consumed batch: the rows already
// produced keep flowing, and the cancellation surfaces at the next batch
// boundary instead of hanging or truncating silently.
func TestVecCancellationBetweenBatches(t *testing.T) {
	db := vecSizesDB(t, 3*batchSize)
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := QueryContext(ctx, db, "SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	cancel()
	rows := 1
	for {
		_, err := cur.Next()
		if err == nil {
			rows++
			if rows > 3*batchSize {
				t.Fatal("cursor delivered more rows than the table holds after cancellation")
			}
			continue
		}
		if err == io.EOF || !errors.Is(err, context.Canceled) {
			t.Fatalf("cursor ended with %v, want context.Canceled", err)
		}
		break
	}
	if rows > batchSize {
		t.Fatalf("cancellation crossed a batch boundary: %d rows delivered, want <= %d", rows, batchSize)
	}
}

// planRows flattens an EXPLAIN tree into per-operator "Op detail rows=N"
// lines (no wall times, no batch counts).
func planRows(n *PlanNode, depth int, out *[]string) {
	*out = append(*out, fmt.Sprintf("%*s%s %s rows=%d", depth*2, "", n.Op, n.Detail, n.Rows))
	for _, c := range n.Children {
		planRows(c, depth+1, out)
	}
}
