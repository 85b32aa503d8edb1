package sampler

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pip/internal/expr"
)

// Parallel world evaluation.
//
// Every pseudorandom draw in the sampler is keyed as
// prng.NewKeyed(WorldSeed, varID, subscript, sampleIdx, attempt) — a pure
// function of the sample index, never of execution history. The engine
// exploits this: sample indices are sharded into fixed-size batches, batches
// are dispatched to a goroutine pool, each worker draws into its own
// expr.Assignment scratch with its own per-group sampler state, and
// per-batch accumulators are merged IN BATCH ORDER at round barriers.
//
// Determinism contract: batch boundaries, the adaptive round schedule
// (Config.nextRoundSize), every per-batch draw, and the merge order are all
// independent of Config.Workers. Equal seed + any worker count => bit
// identical results. The only engine state that is not a pure function of
// the sample index — the Metropolis random walk, whose chain is inherently
// sequential — is handled by falling back to in-order batch execution on a
// single goroutine whenever a group pre-escalates, and by making mid-stream
// escalation a batch-local decision (fresh per-batch counters), which is
// again a pure function of the batch's index range.
//
// Adaptive (epsilon, delta) stopping is checked at batch barriers instead of
// per sample: after each round the merged accumulator is tested with
// Config.wantMore, so the engine may overshoot the sequential stopping point
// by at most one round — identically for every worker count.

// sampleBatchSize is the number of sample indices per dispatched batch.
// Small enough to balance load across workers at MinSamples-scale budgets,
// large enough that per-batch setup (group-sampler clones, scratch maps) is
// amortized.
const sampleBatchSize = 64

// rowBatchSize is the number of c-table rows per dispatched batch in
// row-parallel aggregates (ExpectedSum, ExpectedCount).
const rowBatchSize = 8

// effectiveWorkers resolves Config.Workers: 0 means one goroutine per
// available CPU.
func (c Config) effectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachBatch runs fn(b) for every b in [0, numBatches) on up to workers
// goroutines. fn must touch only state owned by batch b (plus read-only
// shared structures); results must be written into per-batch slots so the
// caller can merge them in batch order. With workers <= 1 the batches run
// inline, in order, on the calling goroutine — same slots, same merge.
//
// A cancelled ctx stops further batch dispatch; already-running batches
// finish. Callers must re-check the context after the barrier and discard
// the round on cancellation (slots of undispatched batches are zero), so
// cancellation can never surface as a partial result.
func forEachBatch(ctx context.Context, workers, numBatches int, fn func(b int)) {
	if workers > numBatches {
		workers = numBatches
	}
	if workers <= 1 {
		for b := 0; b < numBatches; b++ {
			if ctxCancelled(ctx) {
				return
			}
			fn(b)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !ctxCancelled(ctx) {
				b := int(atomic.AddInt64(&next, 1)) - 1
				if b >= numBatches {
					return
				}
				fn(b)
			}
		}()
	}
	wg.Wait()
}

// ctxCancelled reports whether a (possibly nil) context has been cancelled.
func ctxCancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// splitRange shards the index range [start, start+count) into batches of at
// most size indices, returning the batch start offsets (the last batch may
// be short). The split depends only on (start, count, size).
func splitRange(start, count, size int) []int {
	if count <= 0 {
		return nil
	}
	n := (count + size - 1) / size
	offs := make([]int, n)
	for i := range offs {
		offs[i] = start + i*size
	}
	return offs
}

// ---------------------------------------------------------------------------
// Group-sampling engine: conditional samples of an expression drawn through
// goal-directed group samplers (Expectation, ExpectationHistogram, Conf's
// rejection path).

// groupBatch is one batch's private result, merged at the round barrier.
type groupBatch struct {
	acc    Accumulator
	values []float64 // per-sample values, kept only in collect mode
	// failedAt is the first sample index whose rejection cap was exhausted
	// (-1 when the whole batch succeeded). Samples after it were not drawn.
	failedAt int
	// attempts / accepts / escalated mirror the per-group rejection counters
	// of the batch's private group-sampler clones, indexed like the engine's
	// prototype slice.
	attempts  []int
	accepts   []int
	escalated []bool
}

// groupEngine draws conditional samples for a fixed set of constraint
// groups, evaluating a target expression per accepted sample. It is shared
// by the adaptive expectation path and the fixed-count histogram path.
type groupEngine struct {
	cfg    *Config
	protos []*groupSampler
	// prog is the target expression compiled to a flat postfix program,
	// evaluated across a whole batch of drawn sample worlds in one pass; nil
	// means counting only (accumulate 1 per sample). Evaluation is a pure
	// read of the per-sample assignment, so evaluating after the batch's
	// draws changes no PRNG state and no merge order.
	prog *expr.Program
	// collect keeps every per-sample value (histogram mode) in addition to
	// the moment accumulator.
	collect bool

	// sequential is set when any group pre-escalated to Metropolis: the
	// chain's state must persist across samples, so batches run in order on
	// the calling goroutine against the prototypes themselves. The decision
	// is made once, from setup state that is a pure function of the query,
	// so it is identical for every worker count.
	sequential bool
	seqScratch expr.Assignment

	acc    Accumulator
	values []float64
	failed bool
	// err is the context error that aborted the run, if any. Once set, the
	// accumulated state is partial and must not be reported.
	err error
}

// newGroupEngine builds an engine evaluating e (nil: counting only). It
// fails when e cannot be compiled to a program, which only an Expr
// implementation from outside internal/expr can cause.
func newGroupEngine(cfg *Config, protos []*groupSampler, e expr.Expr, collect bool) (*groupEngine, error) {
	ge := &groupEngine{cfg: cfg, protos: protos, collect: collect}
	if e != nil {
		p, err := expr.Compile(e)
		if err != nil {
			return nil, fmt.Errorf("sampler: %w", err)
		}
		ge.prog = p
	}
	for _, gs := range protos {
		if gs.usingMetropolis() {
			ge.sequential = true
			ge.seqScratch = expr.Assignment{}
			break
		}
	}
	return ge, nil
}

// runRound draws the sample index range [start, start+count), merging batch
// results in batch order. It returns false once a sample exhausts its
// rejection cap (the constraint region is unreachable within budget) or the
// configuration context is cancelled (ge.err distinguishes the two).
func (ge *groupEngine) runRound(start, count int) bool {
	if ge.failed || ge.err != nil || count <= 0 {
		return !ge.failed && ge.err == nil
	}
	if err := ge.cfg.ctxErr(); err != nil {
		ge.err = err
		return false
	}
	offs := splitRange(start, count, sampleBatchSize)
	// Telemetry baselines, recorded as deltas once the barrier merge has
	// completed (or failed mid-merge). The counters never steer the round.
	preN := ge.acc.N
	preAtt, preAcc := 0, 0
	for _, gs := range ge.protos {
		preAtt += gs.attempts
		preAcc += gs.accepts
	}
	record := func() {
		if st := ge.cfg.Stats; st != nil {
			att, acc := 0, 0
			for _, gs := range ge.protos {
				att += gs.attempts
				acc += gs.accepts
			}
			st.AddRound()
			st.AddBatches(int64(len(offs)))
			st.AddSamples(int64(ge.acc.N - preN))
			st.AddRejection(int64(att-preAtt), int64(acc-preAcc))
		}
	}
	results := make([]groupBatch, len(offs))
	run := func(b int) {
		n := sampleBatchSize
		if rem := start + count - offs[b]; rem < n {
			n = rem
		}
		results[b] = ge.runBatch(offs[b], n)
	}
	if ge.sequential {
		// In-order execution against the live prototypes: Metropolis chain
		// state carries across batches, exactly as in a sequential engine.
		for b := range offs {
			if ctxCancelled(ge.cfg.Ctx) {
				break
			}
			run(b)
		}
	} else {
		forEachBatch(ge.cfg.Ctx, ge.cfg.effectiveWorkers(), len(offs), run)
	}
	// Round barrier: a cancellation observed here aborts before the merge —
	// undispatched batches hold zero slots, so merging them would corrupt
	// the accumulator silently.
	if err := ge.cfg.ctxErr(); err != nil {
		ge.err = err
		return false
	}
	// Barrier merge, strictly in batch order.
	for b := range results {
		r := &results[b]
		ge.acc.Merge(r.acc)
		if ge.collect {
			ge.values = append(ge.values, r.values...)
		}
		for gi := range ge.protos {
			if r.attempts != nil {
				ge.protos[gi].attempts += r.attempts[gi]
				ge.protos[gi].accepts += r.accepts[gi]
			}
			if r.escalated != nil && r.escalated[gi] {
				ge.protos[gi].escalated = true
			}
		}
		if r.failedAt >= 0 {
			ge.failed = true
			record()
			return false
		}
	}
	record()
	// If any batch escalated this round, later rounds run sequentially on
	// the prototypes: their merged counters immediately re-trigger the
	// escalation inside drawInto, so the burn-in is paid once for the rest
	// of the run instead of once per batch. The flip is a pure function of
	// the merged round results, hence identical at every worker count.
	if !ge.sequential {
		for _, gs := range ge.protos {
			if gs.escalated {
				ge.sequential = true
				ge.seqScratch = expr.Assignment{}
				break
			}
		}
	}
	return true
}

// runBatch draws samples [start, start+n) into a private result. In
// parallel mode each group prototype is cloned with fresh counters, so the
// batch result is a pure function of its index range; in sequential mode
// the prototypes themselves advance (Metropolis chains must persist).
func (ge *groupEngine) runBatch(start, n int) groupBatch {
	res := groupBatch{failedAt: -1}
	var gss []*groupSampler
	var asn expr.Assignment
	if ge.sequential {
		gss = ge.protos
		asn = ge.seqScratch
	} else {
		gss = make([]*groupSampler, len(ge.protos))
		for i, gs := range ge.protos {
			gss[i] = gs.clone()
		}
		asn = expr.Assignment{}
	}
	if ge.collect {
		res.values = make([]float64, 0, n)
	}
	// Program scratch: one flat allocation holds the slot columns, the
	// output column, and the evaluation stack for the whole batch.
	var cols [][]float64
	var vals, out, stack []float64
	if ge.prog != nil && n > 0 {
		nslots := ge.prog.NumSlots()
		flat := make([]float64, (nslots+1+ge.prog.MaxStack())*n+nslots)
		cols = make([][]float64, nslots)
		for s := range cols {
			cols[s] = flat[s*n : (s+1)*n]
		}
		out = flat[nslots*n : (nslots+1)*n]
		stack = flat[(nslots+1)*n : (nslots+1+ge.prog.MaxStack())*n]
		vals = flat[(nslots+1+ge.prog.MaxStack())*n:]
	}
	drawn := 0
	for i := 0; i < n; i++ {
		idx := uint64(start + i)
		ok := true
		for _, gs := range gss {
			if !gs.drawInto(asn, idx) {
				ok = false
				break
			}
		}
		if !ok {
			res.failedAt = start + i
			break
		}
		if ge.prog == nil {
			res.acc.Add(1)
			if ge.collect {
				res.values = append(res.values, 1)
			}
			continue
		}
		// Snapshot this sample's variable values into the columns; the
		// arithmetic runs once for the whole batch after the draw loop.
		ge.prog.Gather(asn, vals)
		for s := range cols {
			cols[s][drawn] = vals[s]
		}
		drawn++
	}
	if drawn > 0 {
		ge.prog.EvalBatch(cols, drawn, out, stack)
		// Accumulate in sample order.
		for _, v := range out[:drawn] {
			res.acc.Add(v)
			if ge.collect {
				res.values = append(res.values, v)
			}
		}
	}
	if !ge.sequential {
		res.attempts = make([]int, len(gss))
		res.accepts = make([]int, len(gss))
		res.escalated = make([]bool, len(gss))
		for i, gs := range gss {
			res.attempts[i] = gs.attempts
			res.accepts[i] = gs.accepts
			res.escalated[i] = gs.usingMetropolis()
		}
	}
	return res
}

// runAdaptive draws rounds until the (epsilon, delta) bound is met at a
// barrier (or a rejection cap fires). It returns the merged accumulator and
// whether every requested sample was produced.
func (ge *groupEngine) runAdaptive() (Accumulator, bool) {
	for ge.cfg.wantMore(ge.acc) {
		round := ge.cfg.nextRoundSize(ge.acc.N)
		if round <= 0 {
			break
		}
		if !ge.runRound(ge.acc.N, round) {
			return ge.acc, false
		}
		// Epsilon-trajectory: one barrier observation of the confidence
		// half-width the stopping rule just evaluated.
		ge.cfg.Stats.RecordTrajectory(ge.acc.N, ge.cfg.relWidth(ge.acc))
	}
	return ge.acc, true
}

// runFixed draws exactly n samples (stopping early only on rejection-cap
// failure), returning the per-sample values when collecting.
func (ge *groupEngine) runFixed(n int) ([]float64, Accumulator, bool) {
	ok := ge.runRound(0, n)
	return ge.values, ge.acc, ok
}

// ---------------------------------------------------------------------------
// World-sampling engine: unconditioned draws over a fixed variable set,
// indexed by attempt (worldSampleDNF, AggregateHistogram).

// worldRoundSize returns the next number of raw attempts for the rejection
// world sampler, given attempts so far — the attempt-indexed analogue of
// nextRoundSize (initial rounds of 4 batches, then doubling).
func worldRoundSize(attempts, maxAttempts int) int {
	r := attempts
	if r < 4*sampleBatchSize {
		r = 4 * sampleBatchSize
	}
	if attempts+r > maxAttempts {
		r = maxAttempts - attempts
	}
	return r
}

// worldBatch is one batch of attempt indices of the DNF world sampler.
type worldBatch struct {
	acc      Accumulator // moments of accepted samples
	attempts int
	// values / idxs record each accepted value and its global attempt
	// index (collect mode only), letting a fixed budget truncate to exactly
	// its sample count in attempt order.
	values []float64
	idxs   []int
}

// runWorldRound draws attempt indices [start, start+count) of a rejection
// world sample: each attempt draws every variable naturally (keyed by the
// attempt index), keeps the value when the condition holds, and batch
// accumulators merge in batch order. With collect set, accepted values and
// their attempt indices are also returned, in attempt order. Callers must
// check cfg.ctxErr() after the round and discard the batch on cancellation.
func runWorldRound(cfg *Config, draw func(asn expr.Assignment, idx uint64) (float64, bool), start, count int, collect bool) worldBatch {
	offs := splitRange(start, count, sampleBatchSize)
	results := make([]worldBatch, len(offs))
	forEachBatch(cfg.Ctx, cfg.effectiveWorkers(), len(offs), func(b int) {
		n := sampleBatchSize
		if rem := start + count - offs[b]; rem < n {
			n = rem
		}
		asn := expr.Assignment{}
		r := &results[b]
		for i := 0; i < n; i++ {
			r.attempts++
			idx := offs[b] + i
			if v, ok := draw(asn, uint64(idx)); ok {
				r.acc.Add(v)
				if collect {
					r.values = append(r.values, v)
					r.idxs = append(r.idxs, idx)
				}
			}
		}
	})
	var merged worldBatch
	for b := range results {
		merged.acc.Merge(results[b].acc)
		merged.attempts += results[b].attempts
		if collect {
			merged.values = append(merged.values, results[b].values...)
			merged.idxs = append(merged.idxs, results[b].idxs...)
		}
	}
	if st := cfg.Stats; st != nil {
		st.AddRound()
		st.AddBatches(int64(len(offs)))
		st.AddSamples(int64(merged.acc.N))
		st.AddRejection(int64(merged.attempts), int64(merged.acc.N))
	}
	return merged
}
