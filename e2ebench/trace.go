package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pip"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/server"
	"pip/internal/sql"
	"pip/internal/wal"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the span that caused this one.
type span struct {
	Req     string             `json:"req"`
	Name    string             `json:"name"`
	Parent  string             `json:"parent,omitempty"`
	Start   int64              `json:"start_ns"`
	End     int64              `json:"end_ns"`
	Bytes   int64              `json:"bytes,omitempty"`
	Flushes int64              `json:"flushes,omitempty"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory; they are written out when the run ends.
type tracer struct {
	t0        time.Time
	recording atomic.Bool

	mu      sync.Mutex
	spans   []span
	sessIdx map[string]int
	handled map[int]int
	// walParent maps an insert's (sensor/seq) arguments to the request
	// whose handler is committing it, so wal.append spans find their parent.
	walParent map[string]string
	// appends holds every WAL append's duration in ms, catalog load
	// included.
	appends []float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sessIdx: map[string]int{}, handled: map[int]int{}, walParent: map[string]string{}}
}

func (tr *tracer) ns(t time.Time) int64 { return t.Sub(tr.t0).Nanoseconds() }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func reqID(sess, n int) string { return fmt.Sprintf("s%d-%d", sess, n) }

// clientSpan records one closed-loop operation as the client saw it.
func (tr *tracer) clientSpan(sess, n int, start, end time.Time) {
	if tr.recording.Load() {
		tr.add(span{Req: reqID(sess, n), Name: "client.request", Start: tr.ns(start), End: tr.ns(end)})
	}
}

// countingWriter counts response bytes and Flush calls on their way to
// the connection.
type countingWriter struct {
	http.ResponseWriter
	bytes, flushes int64
}

// Write counts the bytes written to the client.
func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush counts the flush and passes it on, so streaming still streams.
func (w *countingWriter) Flush() {
	w.flushes++
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap times every statement request through h, attributing it to its
// session's next request id.
func (tr *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.recording.Load() || (r.URL.Path != "/v1/query" && r.URL.Path != "/v1/exec") {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req server.QueryRequest
		_ = json.Unmarshal(body, &req) // a malformed body is the server's to reject
		tr.mu.Lock()
		idx, ok := tr.sessIdx[req.Session]
		if !ok {
			tr.mu.Unlock()
			h.ServeHTTP(w, r)
			return
		}
		id := reqID(idx, tr.handled[idx])
		tr.handled[idx]++
		if r.URL.Path == "/v1/exec" && len(req.Args) >= 2 {
			tr.walParent[req.Args[0].String()+"/"+req.Args[1].String()] = id
		}
		tr.mu.Unlock()
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		tr.add(span{Req: id, Name: "server.handler", Parent: "client.request",
			Start: tr.ns(start), End: tr.ns(end), Bytes: cw.bytes, Flushes: cw.flushes})
	})
}

// timedLog is a core.MutationLog that times every append (encode, write
// and fsync) of the wal.Store it wraps.
type timedLog struct {
	inner core.MutationLog
	tr    *tracer
}

// AppendMutation implements core.MutationLog: it times the wrapped
// store's append and records it as a wal.append span of the request that
// committed the statement.
func (l *timedLog) AppendMutation(m core.Mutation) error {
	start := time.Now()
	err := l.inner.AppendMutation(m)
	end := time.Now()
	l.tr.mu.Lock()
	l.tr.appends = append(l.tr.appends, end.Sub(start).Seconds()*1e3)
	l.tr.mu.Unlock()
	if l.tr.recording.Load() {
		var req string
		if len(m.Args) >= 2 {
			key := m.Args[0].String() + "/" + m.Args[1].String()
			l.tr.mu.Lock()
			req = l.tr.walParent[key]
			delete(l.tr.walParent, key)
			l.tr.mu.Unlock()
		}
		l.tr.add(span{Req: req, Name: "wal.append", Parent: "server.handler", Start: l.tr.ns(start), End: l.tr.ns(end)})
	}
	return err
}

// traceResult is what the traced run measured.
type traceResult struct {
	errs    []string
	warm    window
	win     window
	spans   []span
	appends []float64
	replay  replayStats
}

// tracedRun hosts server.New in-process with the Config pipd builds (same
// seed, durable store with fsync and pipd's default snapshot cadence, no
// request logger), loads the catalog over loopback, and runs the same
// closed loop with spans recorded. A single-client replay of each template
// then times the sql, sampler and encoding layers directly.
func tracedRun(ctx context.Context, wl *workload, seed uint64, warm, d time.Duration, dataDir string) (*traceResult, error) {
	db := pip.Open(pip.Options{Seed: pipdSeed})
	store, _, err := wal.Open(dataDir, db.Core(), wal.Options{Fsync: true, SnapshotEvery: pipdSnapshotEvery})
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	defer store.Close()
	tr := newTracer()
	db.Core().SetMutationLog(&timedLog{inner: store, tr: tr})
	srv := server.New(server.Config{DB: db, SessionIdle: server.DefaultSessionIdle, WAL: store})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: tr.wrap(srv.Handler())}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	defer func() {
		hs.Close()
		<-served
	}()

	c := server.NewClient(ln.Addr().String())
	if err := loadCatalog(ctx, c, wl.catalog); err != nil {
		return nil, err
	}
	g, err := newLoadGen(ctx, c, wl, seed)
	if err != nil {
		return nil, err
	}
	for _, s := range g.sessions {
		for _, cs := range s.cs {
			tr.sessIdx[cs.ID()] = s.idx
		}
	}
	res := &traceResult{}
	warmWin := g.run(ctx, warm)
	g.onOp = tr.clientSpan
	tr.recording.Store(true)
	res.win = g.run(ctx, d)
	tr.recording.Store(false)
	res.warm = warmWin
	res.replay, err = replay(ctx, db, wl, tr)
	res.spans, res.appends, res.errs = tr.spans, tr.appends, g.errs
	return res, err
}

// replayStats are per-query means over the workload's template mix.
type replayStats struct {
	parseUS, planUS, executeMS, sampleMS float64
	scannedPerRow, nsPerSample           float64
	encodeUSPerRow                       float64
}

// replayReps is how many times the replay runs each template and
// parameter set; it keeps the median.
const replayReps = 3

// replay runs each template and parameter set from a single client through
// the layers' public functions: sql.Parse, sql.ExplainContext (plan only),
// EXPLAIN ANALYZE, and server.EncodeValue plus JSON encoding of the rows.
// Means weight each template by its share of the workload's cycle, as the
// loop does, and its parameter sets equally.
func replay(ctx context.Context, db *pip.DB, wl *workload, tr *tracer) (replayStats, error) {
	var out replayStats
	var scanned, rows, samples, sampleNS, encodeNS float64
	for ti, t := range wl.templates {
		h := db
		if t.samples > 0 {
			// The fixed-sample session the loop runs the template in.
			h = db.Session()
			if err := h.Exec(fmt.Sprintf("SET samples = %d", t.samples)); err != nil {
				return out, err
			}
		}
		params := t.params
		if wl.ingest {
			params = []param{{}}
		}
		share := 0.0
		for _, c := range wl.cycle {
			if c == ti {
				share++
			}
		}
		w := share / float64(len(wl.cycle)*len(params))
		for pi, p := range params {
			var parse, plan, exec, sample, enc []float64
			for rep := range replayReps {
				req := fmt.Sprintf("replay-%d-%d-%d", ti, pi, rep)
				m, err := replayOne(ctx, h, wl, t, p, rep, tr, req)
				if err != nil {
					return out, fmt.Errorf("replay %s: %w", t.name, err)
				}
				parse, plan, exec, sample = append(parse, m.parse), append(plan, m.plan), append(exec, m.exec), append(sample, m.sample)
				enc = append(enc, m.encode)
				if rep == 0 {
					scanned += w * m.scanned
					rows += w * m.rows
					samples += w * m.samples
				}
			}
			out.parseUS += w * median(parse) / 1e3
			out.planUS += w * median(plan) / 1e3
			out.executeMS += w * median(exec) / 1e6
			out.sampleMS += w * median(sample) / 1e6
			sampleNS += w * median(sample)
			encodeNS += w * median(enc)
		}
	}
	out.scannedPerRow = ratio(scanned, rows)
	out.nsPerSample = ratio(sampleNS, samples)
	out.encodeUSPerRow = ratio(encodeNS, rows) / 1e3
	return out, nil
}

// replayMeasure is one replayed statement's timings (ns) and counts.
type replayMeasure struct {
	parse, plan, exec, sample, encode float64
	scanned, rows, samples            float64
}

func replayOne(ctx context.Context, db *pip.DB, wl *workload, t *template, p param, rep int, tr *tracer, req string) (replayMeasure, error) {
	var m replayMeasure
	t0 := time.Now()
	if _, err := sql.Parse(t.sql); err != nil {
		return m, err
	}
	t1 := time.Now()
	m.parse = float64(t1.Sub(t0))
	tr.add(span{Req: req, Name: "sql.parse", Parent: "replay", Start: tr.ns(t0), End: tr.ns(t1)})
	if wl.ingest {
		// An INSERT has no plan to explain: time it end to end and take
		// the WAL append (its own span) out of the execute time.
		args := []any{int64(sessions + rep), int64(rep + 1), 1.0, 1.0}
		t0 = time.Now()
		if err := db.Exec(t.sql, args...); err != nil {
			return m, err
		}
		t1 = time.Now()
		tr.mu.Lock()
		m.exec = float64(t1.Sub(t0)) - 1e6*tr.appends[len(tr.appends)-1]
		tr.mu.Unlock()
		tr.add(span{Req: req, Name: "sql.execute", Parent: "replay", Start: tr.ns(t0), End: tr.ns(t1)})
		return m, nil
	}
	cargs := make([]ctable.Value, len(p.args))
	for i, a := range p.args {
		v, err := pip.BindValue(a)
		if err != nil {
			return m, err
		}
		cargs[i] = v
	}
	t0 = time.Now()
	if _, err := sql.ExplainContext(ctx, db.Core(), t.sql, cargs...); err != nil {
		return m, err
	}
	t1 = time.Now()
	m.plan = max(0, float64(t1.Sub(t0))-m.parse)
	tr.add(span{Req: req, Name: "sql.plan", Parent: "replay", Start: tr.ns(t0), End: tr.ns(t1)})

	t0 = time.Now()
	root, err := sql.ExplainContext(ctx, db.Core(), "EXPLAIN ANALYZE "+t.sql, cargs...)
	if err != nil {
		return m, err
	}
	t1 = time.Now()
	m.exec = float64(root.Elapsed)
	m.rows = float64(root.Rows)
	walkPlan(root, &m)
	tr.add(span{Req: req, Name: "sql.execute", Parent: "replay", Start: tr.ns(t0), End: tr.ns(t1),
		Attrs: map[string]float64{"operator_ns": m.exec, "sampling_self_ns": m.sample, "scan_rows": m.scanned, "rows": m.rows}})

	rows, err := db.QueryContext(ctx, t.sql, p.args...)
	if err != nil {
		return m, err
	}
	defer rows.Close()
	enc := json.NewEncoder(io.Discard)
	encStart := time.Now()
	for rows.Next() {
		vals := rows.Values()
		s := time.Now()
		wire := make([]server.Value, len(vals))
		for i, v := range vals {
			wire[i] = server.EncodeValue(v)
		}
		ch := server.Chunk{K: "row", Row: wire}
		if c := rows.Cond(); !c.IsTrue() {
			ch.Cond = c.String()
		}
		if err := enc.Encode(ch); err != nil {
			return m, err
		}
		m.encode += float64(time.Since(s))
	}
	if err := rows.Err(); err != nil {
		return m, err
	}
	tr.add(span{Req: req, Name: "server.encode", Parent: "replay", Start: tr.ns(encStart), End: tr.ns(time.Now()),
		Attrs: map[string]float64{"encode_ns": m.encode}})
	return m, nil
}

// walkPlan sums the Sampling operators' self time (their elapsed time less
// their children's) and samples, and the Scan operators' rows.
func walkPlan(n *sql.PlanNode, m *replayMeasure) {
	if n.Sampling {
		self := n.Elapsed
		for _, c := range n.Children {
			self -= c.Elapsed
		}
		m.sample += float64(max(0, self))
		m.samples += float64(n.Samples)
	}
	if n.Op == "Scan" {
		m.scanned += float64(n.Rows)
	}
	for _, c := range n.Children {
		walkPlan(c, m)
	}
}

// writeSpans writes the spans as NDJSON, ordered by start time.
func writeSpans(path string, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
