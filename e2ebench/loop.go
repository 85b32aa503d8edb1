package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"pip/internal/server"
)

// sessions is the closed loop's client count: each session stands for an
// analyst or an ingest job that waits for its reply before sending again.
const sessions = 2

// loadGen drives one server through a closed loop of sessions over one
// server.Client (at most one keep-alive connection per session), checking
// every answer as it goes.
type loadGen struct {
	wl       *workload
	sessions []*session

	mu sync.Mutex
	// refs holds the answer hash of the first reply to each template and
	// parameter set; every later reply must hash the same.
	refs map[refKey]uint64
	// errs keeps the first few failure messages for the report.
	errs []string
	// onOp, when set, observes every completed operation (the traced run
	// records its client spans through it).
	onOp func(sess, n int, start, end time.Time)
}

type refKey struct{ tmpl, param int }

// session is one closed-loop client.
type session struct {
	idx int
	// cs holds the client's server-side sessions by their samples setting
	// (0 is pipd's adaptive default); each template runs in the one its
	// samples field names, all over the same keep-alive connection.
	cs    map[int]*server.ClientSession
	stmts map[string]*server.ClientStmt
	rng   *rand.Rand
	op    int // operations issued, across windows
	// next is each template's next parameter set: every session cycles
	// through all of them, so each run weighs every parameter set equally.
	next []int
	// acked lists the (seq) numbers of this session's acknowledged inserts.
	acked []int64
	n     int       // operations issued in the current window
	start time.Time // start of the current window
}

// window is what one timed (or warm-up) stretch of the loop measured.
type window struct {
	elapsed time.Duration
	ops     int
	failed  int
	rows    int64
	lat     []time.Duration
	// done holds each operation's completion time, from the window start.
	done []time.Duration
	// tmplLat holds each template's latencies.
	tmplLat [][]time.Duration
}

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 8

func newLoadGen(ctx context.Context, c *server.Client, wl *workload, seed uint64) (*loadGen, error) {
	g := &loadGen{wl: wl, refs: map[refKey]uint64{}}
	for i := range sessions {
		s := &session{idx: i, cs: map[int]*server.ClientSession{}, stmts: map[string]*server.ClientStmt{},
			rng: rand.New(rand.NewPCG(seed, uint64(i)+1)), next: make([]int, len(wl.templates))}
		for _, t := range wl.templates {
			cs, ok := s.cs[t.samples]
			if !ok {
				var err error
				if cs, err = openSession(ctx, c, t.samples); err != nil {
					return nil, err
				}
				s.cs[t.samples] = cs
			}
			if t.prepared {
				st, err := cs.Prepare(ctx, t.sql)
				if err != nil {
					return nil, fmt.Errorf("prepare %s: %w", t.name, err)
				}
				s.stmts[t.name] = st
			}
		}
		g.sessions = append(g.sessions, s)
	}
	return g, nil
}

// run drives every session until d has passed, each session sending its
// next operation only after the previous reply. The window ends when the
// last in-flight operation completes.
func (g *loadGen) run(ctx context.Context, d time.Duration) window {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]window, len(g.sessions))
	var wg sync.WaitGroup
	for i, s := range g.sessions {
		s.n = 0
		s.start = start
		parts[i].tmplLat = make([][]time.Duration, len(g.wl.templates))
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &parts[i]
			for time.Now().Before(deadline) && ctx.Err() == nil {
				g.step(ctx, s, w)
			}
		}()
	}
	wg.Wait()
	total := window{elapsed: time.Since(start), tmplLat: make([][]time.Duration, len(g.wl.templates))}
	for _, p := range parts {
		total.ops += p.ops
		total.failed += p.failed
		total.rows += p.rows
		total.lat = append(total.lat, p.lat...)
		total.done = append(total.done, p.done...)
		for i, l := range p.tmplLat {
			total.tmplLat[i] = append(total.tmplLat[i], l...)
		}
	}
	return total
}

// step issues one operation: the session's next template in the
// workload's cycle and that template's next parameter set, both
// round-robin (sessions start at different offsets).
func (g *loadGen) step(ctx context.Context, s *session, w *window) {
	ti := g.wl.cycle[(s.op+s.idx)%len(g.wl.cycle)]
	t := g.wl.templates[ti]
	s.op++
	n := s.n
	s.n++
	w.ops++
	if g.wl.ingest {
		seq := int64(s.op)
		mu, sd := 100*s.rng.Float64(), 0.5+4.5*s.rng.Float64()
		t0 := time.Now()
		_, err := s.stmts[t.name].Exec(ctx, int64(s.idx), seq, mu, sd)
		t1 := time.Now()
		w.lat = append(w.lat, t1.Sub(t0))
		w.done = append(w.done, t1.Sub(s.start))
		w.tmplLat[ti] = append(w.tmplLat[ti], t1.Sub(t0))
		if g.onOp != nil {
			g.onOp(s.idx, n, t0, t1)
		}
		if err != nil {
			w.failed++
			g.fail("insert: %v", err)
			return
		}
		s.acked = append(s.acked, seq)
		return
	}
	pi := (s.next[ti] + s.idx) % len(t.params)
	s.next[ti]++
	p := t.params[pi]
	key := refKey{ti, pi}
	g.mu.Lock()
	ref, seen := g.refs[key]
	g.mu.Unlock()

	t0 := time.Now()
	var rows *server.ClientRows
	var err error
	if t.prepared {
		rows, err = s.stmts[t.name].Query(ctx, p.args...)
	} else {
		rows, err = s.cs[t.samples].Query(ctx, t.sql, p.args...)
	}
	var a *answer
	var sum uint64
	if err == nil {
		a, sum, err = readAnswer(rows, !seen)
	}
	t1 := time.Now()
	w.lat = append(w.lat, t1.Sub(t0))
	w.done = append(w.done, t1.Sub(s.start))
	w.tmplLat[ti] = append(w.tmplLat[ti], t1.Sub(t0))
	if g.onOp != nil {
		g.onOp(s.idx, n, t0, t1)
	}
	if err != nil {
		w.failed++
		g.fail("%s%v: %v", t.name, p.args, err)
		return
	}
	if a != nil {
		w.rows += int64(len(a.rows))
	} else {
		w.rows += rows.RowCount()
	}
	if seen {
		if sum != ref {
			w.failed++
			g.fail("%s%v: answer differs from the first answer to the same query", t.name, p.args)
		}
		return
	}
	if err := p.check(a); err != nil {
		w.failed++
		g.fail("%s%v: wrong answer: %v", t.name, p.args, err)
	}
	g.mu.Lock()
	if _, dup := g.refs[key]; !dup {
		g.refs[key] = sum
	}
	g.mu.Unlock()
}

func (g *loadGen) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.errs) < maxErrs {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// readAnswer drains a result stream into an FNV-64a hash of every cell and
// condition; with keep it also returns the rows for the answer check.
func readAnswer(rows *server.ClientRows, keep bool) (*answer, uint64, error) {
	defer rows.Close()
	h := fnv.New64a()
	var a *answer
	if keep {
		a = &answer{}
	}
	var buf []byte
	for rows.Next() {
		row := rows.Row()
		buf = buf[:0]
		for _, v := range row {
			buf = append(append(buf, v.T...), '|')
			buf = append(append(buf, v.F...), '|')
			buf = append(strconv.AppendInt(buf, v.I, 10), '|')
			buf = append(append(buf, v.S...), '|')
			buf = append(strconv.AppendBool(buf, v.B), ';')
		}
		buf = append(append(buf, rows.Cond()...), '\n')
		h.Write(buf)
		if keep {
			a.rows = append(a.rows, append([]server.Value(nil), row...))
			a.conds = append(a.conds, rows.Cond())
		}
	}
	if err := rows.Err(); err != nil {
		return nil, 0, err
	}
	return a, h.Sum64(), nil
}

// openSession opens a server-side session; a positive samples sets the
// fixed sample count in place of adaptive stopping.
func openSession(ctx context.Context, c *server.Client, samples int) (*server.ClientSession, error) {
	var settings map[string]json.Number
	if samples > 0 {
		settings = map[string]json.Number{"samples": json.Number(strconv.Itoa(samples))}
	}
	cs, err := c.Session(ctx, settings)
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	return cs, nil
}

// loadCatalog runs the workload's catalog statements in one session.
func loadCatalog(ctx context.Context, c *server.Client, stmts []string) error {
	cs, err := c.Session(ctx, nil)
	if err != nil {
		return fmt.Errorf("open loader session: %w", err)
	}
	for _, st := range stmts {
		if _, err := cs.Exec(ctx, st); err != nil {
			return fmt.Errorf("load catalog: %.60s...: %w", st, err)
		}
	}
	return cs.Close(ctx)
}

// checkIngested requires the readings table to hold exactly the rows the
// sessions saw acknowledged: no loss, no duplicates, nothing extra.
func (g *loadGen) checkIngested(ctx context.Context, c *server.Client) error {
	want := map[[2]int64]bool{}
	for _, s := range g.sessions {
		for _, seq := range s.acked {
			want[[2]int64{int64(s.idx), seq}] = true
		}
	}
	cs, err := c.Session(ctx, nil)
	if err != nil {
		return err
	}
	defer cs.Close(ctx)
	rows, err := cs.Query(ctx, "SELECT sensor, seq, reading FROM readings")
	if err != nil {
		return err
	}
	defer rows.Close()
	got := 0
	for rows.Next() {
		r := rows.Row()
		if len(r) != 3 || r[0].T != "i" || r[1].T != "i" || r[2].T != "e" {
			return fmt.Errorf("readings: malformed row %v", r)
		}
		k := [2]int64{r[0].I, r[1].I}
		if !want[k] {
			return fmt.Errorf("readings: row %v was never acknowledged or is duplicated", k)
		}
		delete(want, k)
		got++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if len(want) > 0 {
		return fmt.Errorf("readings: %d acknowledged rows missing (found %d)", len(want), got)
	}
	return nil
}
