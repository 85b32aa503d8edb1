// Physical operators: every logical plan node lowers onto one columnar
// batch operator. Operators exchange ctable.Batch column vectors through
// NextBatch(max), so the scan/filter/join spine runs without per-row
// interface dispatch or per-row allocation. Rows leave a plan in exactly
// two places: physPlan.drain gathers the root's batches into the result
// c-table (eager execution, EXPLAIN ANALYZE), and planCursor (stream.go)
// gathers them one row per Next for streaming callers.
//
// Three properties are load-bearing, and the golden corpus
// (internal/sql/vectest/testdata, internal/sql/testdata) pins all three:
//
//   - Row order: scans advance the table snapshot in order, joins emit
//     matches in build-side input order per probe row (the order of the
//     filtered cross product), and blocking operators materialize their
//     input before computing.
//   - Row counts: NextBatch(max) is need-driven. An operator never emits
//     more than max rows and never pulls more input than its own need:
//     Filter pulls child chunks sized by its remaining need (within a
//     chunk of size s at most s rows pass, so the need is never
//     overshot), and joins under limit pressure (a streaming LIMIT above,
//     computed at lowering) pull probe rows one at a time while buffering
//     in-flight matches. EXPLAIN ANALYZE rows= therefore counts exactly
//     the rows a row-at-a-time pull would have produced.
//   - Errors: a per-row error inside a batch is held back until the rows
//     preceding it have been emitted (emit-then-fail), so a streaming
//     caller sees every good row before the error.
//
// Cancellation is checked once per batch boundary rather than per row.

package sql

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/obs"
	"pip/internal/sampler"
)

// opStats holds per-operator execution counters for EXPLAIN ANALYZE.
type opStats struct {
	rows    int64
	batches int64         // column batches emitted
	elapsed time.Duration // cumulative: includes time spent in child operators
}

// operator is a physical plan node.
type operator interface {
	// NextBatch returns the next batch of at most max rows. It never
	// returns an empty batch: the stream ends with (nil, io.EOF), fails
	// with (nil, err). The batch is valid until the following NextBatch
	// call on the same operator. A cancelled request context surfaces as
	// ctx.Err().
	NextBatch(max int) (*ctable.Batch, error)
	// Columns returns the operator's output column names.
	Columns() []string
	// Close releases the operator and its children. It is idempotent;
	// NextBatch after Close returns io.EOF.
	Close() error
	base() *opBase
}

// opBase carries the metadata common to all operators.
type opBase struct {
	name   string
	detail string
	cols   []string
	kids   []operator
	stats  opStats
	timed  bool
	// samp, set only on operators that invoke the sampler (Project,
	// Aggregate), scopes their sampler work for EXPLAIN ANALYZE's samples=
	// / batches= / accept= annotations. It chains to the statement scope.
	samp *obs.SamplerStats
}

func (b *opBase) base() *opBase { return b }

// Columns implements operator.
func (b *opBase) Columns() []string { return b.cols }

// begin starts a timing window when ANALYZE instrumentation is on.
func (b *opBase) begin() time.Time {
	if b.timed {
		//pipvet:allow detsource ANALYZE timing window, never feeds sampled state
		return time.Now()
	}
	return time.Time{}
}

// emit closes the timing window and counts the emitted batch and its rows,
// passing the pair through for a tail-call from NextBatch.
func (b *opBase) emit(t0 time.Time, batch *ctable.Batch, err error) (*ctable.Batch, error) {
	if b.timed {
		//pipvet:allow detsource ANALYZE timing window, never feeds sampled state
		b.stats.elapsed += time.Since(t0)
	}
	if batch != nil {
		b.stats.rows += int64(batch.Len())
		b.stats.batches++
	}
	return batch, err
}

// closeKids closes all child operators, keeping the first error.
func (b *opBase) closeKids() error {
	var first error
	for _, k := range b.kids {
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// physPlan is a lowered, executable plan.
type physPlan struct {
	root operator
	name string // result table name
	qs   *obs.QueryStats
}

// drain runs the plan to completion, materializing the result c-table
// straight out of the root's batches. The whole pull loop is the trace's
// "execute" phase.
func (p *physPlan) drain() (*ctable.Table, error) {
	defer p.qs.StartPhase("execute")()
	names := p.root.Columns()
	sch := make(ctable.Schema, len(names))
	for i, n := range names {
		sch[i] = ctable.Column{Name: n}
	}
	out := &ctable.Table{Name: p.name, Schema: sch}
	defer p.root.Close()
	if err := materialize(p.root, &out.Tuples); err != nil {
		return nil, err
	}
	return out, nil
}

// batchSize is the target number of rows per column batch.
const batchSize = 1024

// batchCap sizes a batch's initial allocation: the caller's need capped by
// the rows known to be available. Small queries allocate small batches (the
// demo catalog never pays for 1024-row columns); large scans still get one
// full-width allocation. Append grows the columns if the estimate is low.
func batchCap(avail, max int) int {
	if avail < 0 || avail > max {
		return max
	}
	if avail < 1 {
		return 1
	}
	return avail
}

// materialize drains an operator into a tuple slice. Rows are gathered out
// of the batches (batch memory is producer-owned and reused), so the
// returned tuples are stable for the query's duration. Each batch is
// gathered through one flat allocation — the per-row Values slices are
// disjoint subslices with clamped capacity.
func materialize(op operator, into *[]ctable.Tuple) error {
	for {
		b, err := op.NextBatch(batchSize)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		gatherBatch(b, into)
	}
}

// materializeBatch drains an operator into one dense column-major batch
// (no selection vector). Cells are copied out of the
// producer-owned batches, so the result is stable for the query's duration;
// dense input batches copy over one bulk append per column.
func materializeBatch(op operator, ncols int) (*ctable.Batch, error) {
	out := ctable.NewBatch(ncols, 0)
	for {
		b, err := op.NextBatch(batchSize)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if b.Sel == nil {
			for c := range out.Cols {
				out.Cols[c] = append(out.Cols[c], b.Cols[c]...)
			}
			out.Conds = append(out.Conds, b.Conds...)
			continue
		}
		for _, phys := range b.Sel {
			for c := range out.Cols {
				out.Cols[c] = append(out.Cols[c], b.Cols[c][phys])
			}
			out.Conds = append(out.Conds, b.Conds[phys])
		}
	}
}

// gatherBatch appends every live row of b to into as stable tuples, using a
// single backing allocation for the batch's cells.
func gatherBatch(b *ctable.Batch, into *[]ctable.Tuple) {
	n, w := b.Len(), len(b.Cols)
	if n == 0 {
		return
	}
	flat := make([]ctable.Value, n*w)
	for k := 0; k < n; k++ {
		vals := flat[k*w : (k+1)*w : (k+1)*w]
		c := b.GatherRow(k, vals)
		*into = append(*into, ctable.Tuple{Values: vals, Cond: c})
	}
}

// lower lowers a logical node onto its operator, recursively. pressure
// marks subtrees under a streaming LIMIT with no blocking operator in
// between: joins there pull probe rows one at a time so upstream row counts
// stop exactly at the limit's need. Blocking operators (Sort, Distinct,
// Aggregate) drain their input fully and reset the flag for their children.
func lower(env execEnv, n lnode, timed, pressure bool) (operator, error) {
	mk := func(cols []string, kids ...operator) opBase {
		return opBase{name: n.op(), detail: n.detail(), cols: cols, kids: kids, timed: timed}
	}
	switch t := n.(type) {
	case *lScan:
		pre := make([]ctable.Compare, len(t.pre))
		for i, p := range t.pre {
			pre[i] = p.cmp
		}
		return &scanOp{opBase: mk(t.outCols()), env: env, tuples: t.tuples, keep: t.keep, pre: pre}, nil
	case *lJoin:
		left, err := lower(env, t.left, timed, pressure)
		if err != nil {
			return nil, err
		}
		right, err := lower(env, t.right, timed, false)
		if err != nil {
			return nil, err
		}
		cols := append(append([]string{}, left.Columns()...), right.Columns()...)
		return &joinOp{opBase: mk(cols, left, right), env: env,
			left: left, right: right, hash: t.hash,
			leftKeys: t.leftKeys, rightKeys: t.rightKeys,
			nLeft: len(left.Columns()), pressure: pressure}, nil
	case *lFilter:
		child, err := lower(env, t.input, timed, pressure)
		if err != nil {
			return nil, err
		}
		pred := make(ctable.AndPred, len(t.preds))
		for i, p := range t.preds {
			pred[i] = p.cmp
		}
		o := &filterOp{opBase: mk(child.Columns(), child), child: child, pred: pred}
		o.predI = o.pred // boxed once; ApplyPredicate per row would re-box
		o.bp, _ = ctable.CompileBatchPred(pred)
		return o, nil
	case *lProject:
		child, err := lower(env, t.input, timed, pressure)
		if err != nil {
			return nil, err
		}
		b := mk(t.names, child)
		oenv := opScope(env, &b)
		return &projectOp{opBase: b, env: oenv, child: child, spec: t}, nil
	case *lAggregate:
		child, err := lower(env, t.input, timed, false)
		if err != nil {
			return nil, err
		}
		b := mk(t.outNames, child)
		oenv := opScope(env, &b)
		return &aggOp{opBase: b, env: oenv, child: child, spec: t}, nil
	case *lDistinct:
		child, err := lower(env, t.input, timed, false)
		if err != nil {
			return nil, err
		}
		return &distinctOp{opBase: mk(child.Columns(), child), child: child}, nil
	case *lSort:
		child, err := lower(env, t.input, timed, false)
		if err != nil {
			return nil, err
		}
		return &sortOp{opBase: mk(child.Columns(), child), child: child, col: t.col, colName: t.name, desc: t.desc}, nil
	case *lLimit:
		child, err := lower(env, t.input, timed, true)
		if err != nil {
			return nil, err
		}
		return &limitOp{opBase: mk(child.Columns(), child), child: child, remaining: t.n}, nil
	case *lEmpty:
		return &emptyOp{opBase: mk(nil)}, nil
	default:
		return nil, fmt.Errorf("sql: unknown plan node %T", n)
	}
}

// opScope gives a sampling operator (Project, Aggregate) its own telemetry
// scope chained to the statement trace, and returns a copy of env whose
// sampler records into it — so EXPLAIN ANALYZE can attribute sampler work
// to the operator that caused it while the statement and engine counters
// keep aggregating through the parent chain.
func opScope(env execEnv, b *opBase) execEnv {
	var parent *obs.SamplerStats
	if env.qs != nil {
		parent = env.qs.Sampler
	}
	b.samp = &obs.SamplerStats{Parent: parent}
	env.smp = env.smp.WithStats(b.samp)
	return env
}

// ---------------------------------------------------------------------------
// Scan

// scanOp fills a column batch with up to max kept rows from the table
// snapshot, skipping tuples with trivially false conditions, applying the
// pushed-down drop-only prefilter, and projecting the kept columns. The
// output batch is reused across calls. Prefilter evaluation errors are
// deferred to the final Filter, which re-evaluates the same comparison on
// every surviving row; rows the prefilter drops (or starves downstream of)
// follow the rewriter's error-scope contract (see rewrite.go).
type scanOp struct {
	opBase
	env    execEnv
	tuples []ctable.Tuple
	keep   []int
	pre    []ctable.Compare
	out    *ctable.Batch
	i      int
	done   bool
}

// NextBatch implements operator.
func (o *scanOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emit(t0, nil, io.EOF)
	}
	if err := o.env.ctxErr(); err != nil {
		o.done = true
		return o.emit(t0, nil, err)
	}
	if o.out == nil {
		o.out = ctable.NewBatch(len(o.cols), batchCap(len(o.tuples)-o.i, max))
	}
	o.out.Reset()
	for o.out.Len() < max && o.i < len(o.tuples) {
		t := &o.tuples[o.i]
		o.i++
		if t.Cond.IsFalse() {
			continue
		}
		dropped := false
		for _, p := range o.pre {
			outcome, _, err := p.Eval(t)
			if err == nil && outcome == ctable.PredFalse {
				dropped = true
				break
			}
		}
		if dropped {
			continue
		}
		if o.keep == nil {
			o.out.AppendRow(t.Values, t.Cond)
			continue
		}
		for n, c := range o.keep {
			o.out.Cols[n] = append(o.out.Cols[n], t.Values[c])
		}
		o.out.Conds = append(o.out.Conds, t.Cond)
	}
	if o.out.Len() == 0 {
		o.done = true
		return o.emit(t0, nil, io.EOF)
	}
	return o.emit(t0, o.out, nil)
}

// Close implements operator.
func (o *scanOp) Close() error {
	o.done = true
	return nil
}

// ---------------------------------------------------------------------------
// Filter

// filterOp applies the remaining WHERE conjuncts in source order via
// ApplyPredicate: deterministic failures drop the row, symbolic comparisons
// conjoin condition atoms, and conditions proven inconsistent by Algorithm
// 3.2 are removed. It is zero-copy: surviving rows are recorded in the
// child batch's selection vector (their possibly rewritten conditions
// overwrite the batch's condition slots), and the child batch itself is
// passed downstream. The child chunk size equals the caller's remaining
// need, so the filter never pulls more input rows than it must.
type filterOp struct {
	opBase
	child   operator
	pred    ctable.AndPred
	predI   ctable.Predicate // pred boxed once for the per-row ApplyPredicate path
	bp      *ctable.BatchPred
	row     []ctable.Value
	sel     []int
	pendErr error
	done    bool
}

// NextBatch implements operator.
func (o *filterOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emit(t0, nil, io.EOF)
	}
	if o.pendErr != nil {
		o.done = true
		return o.emit(t0, nil, o.pendErr)
	}
	if o.row == nil {
		o.row = make([]ctable.Value, len(o.cols))
	}
	for {
		b, err := o.child.NextBatch(max)
		if err != nil {
			o.done = true
			return o.emit(t0, nil, err)
		}
		n := b.Len()
		sel := o.sel[:0]
		var rowErr error
		for k := 0; k < n; k++ {
			phys := b.RowIdx(k)
			if o.bp != nil {
				// Columnar fast path: fully deterministic rows are decided
				// straight from the batch columns; a kept row's condition is
				// untouched, exactly as ApplyPredicate leaves PredTrue rows.
				if keep, ok := o.bp.EvalRow(b, phys); ok {
					if keep {
						sel = append(sel, phys)
					}
					continue
				}
			}
			c := b.GatherRow(k, o.row)
			t := ctable.Tuple{Values: o.row, Cond: c}
			kept, keep, err := ctable.ApplyPredicate(&t, o.predI)
			if err != nil {
				rowErr = err
				break
			}
			if !keep {
				continue
			}
			b.Conds[phys] = kept.Cond
			sel = append(sel, phys)
		}
		if rowErr != nil && len(sel) == 0 {
			o.done = true
			return o.emit(t0, nil, rowErr)
		}
		if len(sel) > 0 {
			o.pendErr = rowErr
			o.sel = sel
			b.Sel = sel
			return o.emit(t0, b, nil)
		}
		o.sel = sel
		// Whole chunk filtered out: pull the next one.
	}
}

// Close implements operator.
func (o *filterOp) Close() error {
	o.done = true
	return o.closeKids()
}

// ---------------------------------------------------------------------------
// Project

// projectOp computes the SELECT targets per row through finishProject
// (sampling functions included) and scatters them into a dense output
// batch. Rows map 1:1, so the chunk size is simply the caller's need.
type projectOp struct {
	opBase
	env     execEnv
	child   operator
	spec    *lProject
	row     []ctable.Value
	out     *ctable.Batch
	pendErr error
	done    bool
}

// NextBatch implements operator.
func (o *projectOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emit(t0, nil, io.EOF)
	}
	if o.pendErr != nil {
		o.done = true
		return o.emit(t0, nil, o.pendErr)
	}
	b, err := o.child.NextBatch(max)
	if err != nil {
		o.done = true
		return o.emit(t0, nil, err)
	}
	if o.row == nil {
		o.row = make([]ctable.Value, len(o.child.Columns()))
		o.out = ctable.NewBatch(len(o.cols), batchCap(b.Len(), max))
	}
	o.out.Reset()
	n := b.Len()
	for k := 0; k < n; k++ {
		c := b.GatherRow(k, o.row)
		t := ctable.Tuple{Values: o.row, Cond: c}
		res, err := finishProject(o.env, o.spec, &t)
		if err != nil {
			if o.out.Len() == 0 {
				o.done = true
				return o.emit(t0, nil, err)
			}
			o.pendErr = err
			break
		}
		o.out.AppendTuple(res)
	}
	return o.emit(t0, o.out, nil)
}

// Close implements operator.
func (o *projectOp) Close() error {
	o.done = true
	return o.closeKids()
}

// finishProject computes the projection targets for one row and applies the
// per-row probability functions: expectation() and variance()/stddev()
// evaluate their cell under the request-scoped sampler, and conf() is
// probability-removing — it fills in the row's probability and strips the
// condition.
func finishProject(env execEnv, q *lProject, t *ctable.Tuple) (*ctable.Tuple, error) {
	vals := make([]ctable.Value, len(q.targets))
	for j, tgt := range q.targets {
		v, err := tgt.Resolve(t)
		if err != nil {
			return nil, err
		}
		vals[j] = v
	}
	out := ctable.Tuple{Values: vals, Cond: t.Cond}

	for _, pos := range q.expCols {
		if !out.Values[pos].IsSymbolic() {
			continue
		}
		res, err := core.TupleExpectation(env.smp, &out, pos, false)
		if err != nil {
			return nil, err
		}
		out.Values[pos] = ctable.Float(res.Mean)
	}
	for _, vc := range q.varCols {
		pos, kind := vc.pos, vc.kind
		e, ok := out.Values[pos].AsExpr()
		if !ok {
			return nil, fmt.Errorf("sql: non-numeric %s() target %s", kind, out.Values[pos])
		}
		var clause cond.Clause
		switch len(out.Cond.Clauses) {
		case 0:
			out.Values[pos] = ctable.Float(0)
			continue
		case 1:
			clause = out.Cond.Clauses[0]
		default:
			return nil, fmt.Errorf("sql: %s() over disjunctive conditions is not supported", kind)
		}
		v := env.smp.Variance(e, clause)
		if v.Err != nil {
			return nil, v.Err
		}
		if kind == "stddev" {
			out.Values[pos] = ctable.Float(v.StdDev)
		} else {
			out.Values[pos] = ctable.Float(v.Variance)
		}
	}
	if len(q.confCols) > 0 {
		res := env.smp.AConf(out.Cond)
		if res.Err != nil {
			return nil, res.Err
		}
		for _, pos := range q.confCols {
			out.Values[pos] = ctable.Float(res.Prob)
		}
		out.Cond = cond.TrueCondition()
	}
	return &out, nil
}

// ---------------------------------------------------------------------------
// Joins

// joinOp pairs left (probe) rows with right (build) rows, conjoining their
// conditions and dropping trivially false pairs. The build side
// materializes once into a dense column-major batch. With hash set it is
// the equi-join: build rows are bucketed by their deterministic key
// columns, plus a fallback list for symbolic keys, which must pair with
// every probe row and let the final Filter conjoin the comparison as a
// condition atom. Keys of incomparable kinds (a string probing a numeric
// column) simply never pair — the "incomparable values" error the cross
// product would raise on those pairs falls under the rewriter's
// error-scope contract (rewrite.go). Without hash it is the
// filtered-cross-product fallback for joins without extractable equi-keys.
//
// Probe rows stream through in chunks — single rows under limit pressure —
// and every match is emitted in build-side input order, so output order is
// identical to the filtered cross product. In-flight matches are buffered
// across NextBatch calls, so no probe row is pulled before its
// predecessors' matches have been delivered.
type joinOp struct {
	opBase
	env                 execEnv
	left, right         operator
	hash                bool
	leftKeys, rightKeys []int
	nLeft               int
	pressure            bool

	bb            *ctable.Batch // build side, dense column-major
	anyBuildFalse bool          // some build row has a false condition
	buckets       map[string][]int
	symb          []int
	keyBuf        []byte
	built         bool

	pb        *ctable.Batch // current probe batch
	pi        int           // next logical probe row in pb
	pphys     int           // physical index of the in-flight probe row
	probeCond cond.Condition
	probing   bool // pphys/matches hold an in-flight probe row
	matches   []int
	all       bool
	mi        int

	out     *ctable.Batch
	pendErr error
	done    bool
}

// NextBatch implements operator.
func (o *joinOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emit(t0, nil, io.EOF)
	}
	if o.pendErr != nil {
		o.done = true
		return o.emit(t0, nil, o.pendErr)
	}
	if err := o.env.ctxErr(); err != nil {
		o.done = true
		return o.emit(t0, nil, err)
	}
	if !o.built {
		bb, err := materializeBatch(o.right, len(o.right.Columns()))
		if err != nil {
			o.done = true
			return o.emit(t0, nil, err)
		}
		o.bb = bb
		for _, c := range bb.Conds {
			if c.IsFalse() {
				o.anyBuildFalse = true
				break
			}
		}
		if o.hash {
			o.buckets = make(map[string][]int, len(bb.Conds))
			for i := range bb.Conds {
				kb, ok := o.keyBuf[:0], true
				for _, c := range o.rightKeys {
					v := bb.Cols[c][i]
					if v.IsSymbolic() {
						ok = false
						break
					}
					kb = v.AppendBinaryKey(kb)
				}
				o.keyBuf = kb
				if ok {
					o.buckets[string(kb)] = append(o.buckets[string(kb)], i)
				} else {
					o.symb = append(o.symb, i)
				}
			}
		}
		o.built = true
	}
	if o.out == nil {
		o.out = ctable.NewBatch(len(o.cols), batchCap(len(o.bb.Conds), max))
	}
	o.out.Reset()
	for o.out.Len() < max {
		if !o.probing {
			// Advance to the next probe row, pulling a new chunk when the
			// current batch is exhausted.
			if o.pb == nil || o.pi >= o.pb.Len() {
				chunk := batchSize
				if o.pressure {
					chunk = 1
				}
				b, err := o.left.NextBatch(chunk)
				if err != nil {
					if o.out.Len() > 0 {
						o.pendErr = err
						return o.emit(t0, o.out, nil)
					}
					o.done = true
					return o.emit(t0, nil, err)
				}
				o.pb, o.pi = b, 0
			}
			// The in-flight probe row is read in place: pb stays valid until
			// the next left.NextBatch, which only happens after every row of
			// this batch has finished probing.
			o.pphys = o.pb.RowIdx(o.pi)
			o.probeCond = o.pb.Conds[o.pphys]
			o.pi++
			o.mi = 0
			o.all = !o.hash
			o.matches = nil
			if o.hash {
				kb, ok := o.keyBuf[:0], true
				for _, c := range o.leftKeys {
					v := o.pb.Cols[c][o.pphys]
					if v.IsSymbolic() {
						ok = false
						break
					}
					kb = v.AppendBinaryKey(kb)
				}
				o.keyBuf = kb
				if ok {
					o.matches = mergeSorted(o.buckets[string(kb)], o.symb)
				} else {
					o.all = true
				}
			}
			o.probing = true
		}
		n := len(o.matches)
		if o.all {
			n = len(o.bb.Conds)
		}
		if o.all && !o.anyBuildFalse && o.probeCond.IsTrivialTrue() {
			// Bulk run: every pair of this cross-product probe row survives,
			// and each pair's condition is exactly the build row's (And with
			// a trivially-true probe condition is the identity), so right
			// columns and conditions copy over one bulk append per column.
			m := n - o.mi
			if r := max - o.out.Len(); m > r {
				m = r
			}
			lo, hi := o.mi, o.mi+m
			for c := 0; c < o.nLeft; c++ {
				v := o.pb.Cols[c][o.pphys]
				for i := 0; i < m; i++ {
					o.out.Cols[c] = append(o.out.Cols[c], v)
				}
			}
			for c := o.nLeft; c < len(o.out.Cols); c++ {
				o.out.Cols[c] = append(o.out.Cols[c], o.bb.Cols[c-o.nLeft][lo:hi]...)
			}
			o.out.Conds = append(o.out.Conds, o.bb.Conds[lo:hi]...)
			o.mi = hi
		} else {
			for o.mi < n && o.out.Len() < max {
				j := o.mi
				if !o.all {
					j = o.matches[o.mi]
				}
				o.mi++
				nc := o.probeCond.And(o.bb.Conds[j])
				if nc.IsFalse() {
					continue
				}
				for c := 0; c < o.nLeft; c++ {
					o.out.Cols[c] = append(o.out.Cols[c], o.pb.Cols[c][o.pphys])
				}
				for c := o.nLeft; c < len(o.out.Cols); c++ {
					o.out.Cols[c] = append(o.out.Cols[c], o.bb.Cols[c-o.nLeft][j])
				}
				o.out.Conds = append(o.out.Conds, nc)
			}
		}
		if o.mi >= n {
			o.probing = false
		}
	}
	return o.emit(t0, o.out, nil)
}

// Close implements operator.
func (o *joinOp) Close() error {
	o.done = true
	return o.closeKids()
}

// mergeSorted merges two ascending index lists (either may be empty).
func mergeSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ---------------------------------------------------------------------------
// Blocking operators: Aggregate, Distinct, Sort

// emitTable streams a materialized result table in batches of at most max
// rows, tracking the emission cursor in *i.
func emitTable(vb *opBase, out **ctable.Batch, result *ctable.Table, i *int, max int) *ctable.Batch {
	if *i >= len(result.Tuples) {
		return nil
	}
	if *out == nil {
		*out = ctable.NewBatch(len(vb.cols), batchCap(len(result.Tuples)-*i, max))
	}
	(*out).Reset()
	for (*out).Len() < max && *i < len(result.Tuples) {
		(*out).AppendTuple(&result.Tuples[*i])
		*i++
	}
	return *out
}

// aggOp materializes its input, stages [group keys..., agg args...] per
// row (stageAggRow), partitions by key, evaluates the expectation
// aggregates (the probability-removing operators of paper §V-A) per group
// under the request-scoped sampler (computeAgg), and emits the result in
// batches.
type aggOp struct {
	opBase
	env    execEnv
	child  operator
	spec   *lAggregate
	result *ctable.Table
	out    *ctable.Batch
	i      int
	done   bool
}

// NextBatch implements operator.
func (o *aggOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emit(t0, nil, io.EOF)
	}
	if o.result == nil {
		a := o.spec
		sch := make(ctable.Schema, len(a.stagedNames))
		for i, n := range a.stagedNames {
			sch[i] = ctable.Column{Name: n}
		}
		staged := &ctable.Table{Name: "agg_input", Schema: sch}
		row := make([]ctable.Value, len(o.child.Columns()))
		for {
			b, err := o.child.NextBatch(batchSize)
			if err == io.EOF {
				break
			}
			if err != nil {
				o.done = true
				return o.emit(t0, nil, err)
			}
			for k := 0; k < b.Len(); k++ {
				c := b.GatherRow(k, row)
				t := ctable.Tuple{Values: row, Cond: c}
				st, err := stageAggRow(a, &t)
				if err != nil {
					o.done = true
					return o.emit(t0, nil, err)
				}
				staged.Tuples = append(staged.Tuples, st)
			}
		}
		res, err := computeAgg(o.env, a, staged)
		if err != nil {
			o.done = true
			return o.emit(t0, nil, err)
		}
		o.result = res
	}
	b := emitTable(&o.opBase, &o.out, o.result, &o.i, max)
	if b == nil {
		o.done = true
		return o.emit(t0, nil, io.EOF)
	}
	return o.emit(t0, b, nil)
}

// Close implements operator.
func (o *aggOp) Close() error {
	o.done = true
	return o.closeKids()
}

// stageAggRow resolves the [group keys..., agg args...] staging targets for
// one input row.
func stageAggRow(a *lAggregate, t *ctable.Tuple) (ctable.Tuple, error) {
	vals := make([]ctable.Value, len(a.staged))
	for j, tgt := range a.staged {
		v, err := tgt.Resolve(t)
		if err != nil {
			return ctable.Tuple{}, err
		}
		vals[j] = v
	}
	return ctable.Tuple{Values: vals, Cond: t.Cond}, nil
}

// computeAgg partitions a staged input table by its key columns and
// evaluates the expectation aggregates per group.
func computeAgg(env execEnv, a *lAggregate, staged *ctable.Table) (*ctable.Table, error) {
	// Group.
	var groups []ctable.GroupRows
	if a.nKeys == 0 {
		all := make([]int, staged.Len())
		for i := range all {
			all[i] = i
		}
		groups = []ctable.GroupRows{{Rows: all}}
	} else {
		keyCols := make([]int, a.nKeys)
		for i := range keyCols {
			keyCols[i] = i
		}
		var err error
		groups, err = ctable.GroupBy(staged, keyCols)
		if err != nil {
			return nil, err
		}
	}

	outSch := make(ctable.Schema, len(a.outCols))
	for i, oc := range a.outCols {
		outSch[i] = ctable.Column{Name: oc.name}
	}
	out := &ctable.Table{Name: "result", Schema: outSch}

	smp := env.smp
	for _, g := range groups {
		if err := env.ctxErr(); err != nil {
			return nil, err
		}
		sub := &ctable.Table{Name: staged.Name, Schema: staged.Schema}
		for _, ri := range g.Rows {
			sub.Tuples = append(sub.Tuples, staged.Tuples[ri])
		}
		aggVals := make([]ctable.Value, len(a.aggs))
		for ai, at := range a.aggs {
			switch at.kind {
			case "expected_sum":
				res, err := smp.ExpectedSum(sub, at.argCol)
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "expected_count":
				res, err := smp.ExpectedCount(sub)
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "expected_avg":
				res, err := smp.ExpectedAvg(sub, at.argCol)
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "expected_max":
				res, err := smp.ExpectedMax(sub, at.argCol, 0)
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "expected_stddev", "expected_variance":
				// Per-world spread across the group's rows, averaged over
				// sampled worlds (per-table semantics).
				fold := sampler.StdDevFold
				if at.kind == "expected_variance" {
					fold = sampler.VarianceFold
				}
				n := env.db.Config().FixedSamples
				if n <= 0 {
					n = 1000
				}
				hist, err := smp.AggregateHistogram(sub, at.argCol, fold, n)
				if err != nil {
					return nil, err
				}
				total := 0.0
				for _, v := range hist {
					total += v
				}
				if len(hist) > 0 {
					total /= float64(len(hist))
				}
				aggVals[ai] = ctable.Float(total)
			case "conf", "aconf":
				// Joint probability that at least one row of the group
				// exists (aconf over the disjunction of row conditions).
				d := cond.FalseCondition()
				for i := range sub.Tuples {
					d = d.Or(sub.Tuples[i].Cond)
				}
				res := smp.AConf(d)
				if res.Err != nil {
					return nil, res.Err
				}
				aggVals[ai] = ctable.Float(res.Prob)
			default:
				return nil, fmt.Errorf("sql: unhandled aggregate %s", at.kind)
			}
		}
		vals := make([]ctable.Value, len(a.outCols))
		for i, oc := range a.outCols {
			if oc.isKey {
				vals[i] = g.Key[oc.keyIdx]
			} else {
				vals[i] = aggVals[oc.aggIdx]
			}
		}
		out.Tuples = append(out.Tuples, ctable.NewTuple(vals...))
	}
	return out, nil
}

// distinctOp materializes its input and coalesces duplicate data tuples
// via ctable.Distinct, OR-ing their conditions into DNF (first-occurrence
// order preserved), then emits the result in batches.
type distinctOp struct {
	opBase
	child  operator
	result *ctable.Table
	out    *ctable.Batch
	i      int
	done   bool
}

// NextBatch implements operator.
func (o *distinctOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emit(t0, nil, io.EOF)
	}
	if o.result == nil {
		var rows []ctable.Tuple
		if err := materialize(o.child, &rows); err != nil {
			o.done = true
			return o.emit(t0, nil, err)
		}
		o.result = ctable.Distinct(&ctable.Table{Tuples: rows})
	}
	b := emitTable(&o.opBase, &o.out, o.result, &o.i, max)
	if b == nil {
		o.done = true
		return o.emit(t0, nil, io.EOF)
	}
	return o.emit(t0, b, nil)
}

// Close implements operator.
func (o *distinctOp) Close() error {
	o.done = true
	return o.closeKids()
}

// sortOp materializes its input, orders it deterministically (stable
// sort) by one output column, and emits the result in batches.
type sortOp struct {
	opBase
	child   operator
	col     int
	colName string
	desc    bool
	rows    []ctable.Tuple
	out     *ctable.Batch
	sorted  bool
	i       int
	done    bool
}

// NextBatch implements operator.
func (o *sortOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emit(t0, nil, io.EOF)
	}
	if !o.sorted {
		if err := materialize(o.child, &o.rows); err != nil {
			o.done = true
			return o.emit(t0, nil, err)
		}
		var sortErr error
		sort.SliceStable(o.rows, func(i, j int) bool {
			c, ok := o.rows[i].Values[o.col].Compare(o.rows[j].Values[o.col])
			if !ok {
				sortErr = fmt.Errorf("sql: ORDER BY over symbolic column %s", o.colName)
				return false
			}
			if o.desc {
				return c > 0
			}
			return c < 0
		})
		if sortErr != nil {
			o.done = true
			return o.emit(t0, nil, sortErr)
		}
		o.sorted = true
	}
	result := &ctable.Table{Tuples: o.rows}
	b := emitTable(&o.opBase, &o.out, result, &o.i, max)
	if b == nil {
		o.done = true
		return o.emit(t0, nil, io.EOF)
	}
	return o.emit(t0, b, nil)
}

// Close implements operator.
func (o *sortOp) Close() error {
	o.done = true
	return o.closeKids()
}

// ---------------------------------------------------------------------------
// Limit / Result

// limitOp truncates the stream after n rows. It forwards its remaining
// budget as the child's chunk size, so upstream operators stop being
// pulled the moment the limit fills and per-row sampling beyond the limit
// never runs.
type limitOp struct {
	opBase
	child     operator
	remaining int
	done      bool
}

// NextBatch implements operator.
func (o *limitOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done || o.remaining <= 0 {
		o.done = true
		return o.emit(t0, nil, io.EOF)
	}
	n := max
	if o.remaining < n {
		n = o.remaining
	}
	b, err := o.child.NextBatch(n)
	if err != nil {
		o.done = true
		return o.emit(t0, nil, err)
	}
	b = b.Head(n)
	o.remaining -= b.Len()
	return o.emit(t0, b, nil)
}

// Close implements operator.
func (o *limitOp) Close() error {
	o.done = true
	return o.closeKids()
}

// emptyOp is the zero-row relation of a constant-false WHERE.
type emptyOp struct {
	opBase
}

// NextBatch implements operator.
func (o *emptyOp) NextBatch(int) (*ctable.Batch, error) {
	return nil, io.EOF
}

// Close implements operator.
func (o *emptyOp) Close() error { return nil }
