// Command e2ebench is the end-to-end benchmark of pipd. It boots the real
// pipd binary on loopback with a fresh durable data directory (-fsync on,
// pipd's default), loads a catalog generated from the workload seed over
// the wire, drives it from a closed loop of two sessions through
// server.Client, checks every answer, and prints the end-to-end metrics.
// With -trace 1 it also runs the same loop against an in-process
// server.New whose handler, WAL and query layers it times from outside,
// and prints the per-layer metrics instead.
//
//	bash e2ebench/run.sh --workload sampled-analytics --seed 1 --seconds 10 --trace 0
//
// run.sh builds pipd and this program and passes -pipd and -workdir. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it are the readable
// report and the run record.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"pip/internal/server"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	pipd     string
	workdir  string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: sampled-analytics, wire-scan or durable-ingest")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: drives the generated catalog and the query parameters")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run (split evenly between the untraced and traced loops with -trace 1)")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&o.pipd, "pipd", "", "path of the pipd binary to benchmark")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for data directories and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.pipd == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: need -pipd, a positive -seconds and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runBench(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind a median or percentile (0 for
	// totals and ratios).
	N int `json:"n,omitempty"`
}

// result is everything one run reports.
type result struct {
	record    runRecord
	endToEnd  []metric
	perLayer  []metric
	attempted int
	failed    int
	errs      []string
}

// setupRuns is how many times an untraced run boots pipd and loads the
// catalog; setup_s is their median.
const setupRuns = 11

func runBench(ctx context.Context, o options) (*result, error) {
	wl, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(o.workdir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.workdir, "tmp"), o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	measured := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measured /= 2
	}
	warm := min(time.Second, measured/2)
	nSetup := setupRuns
	if o.trace {
		nSetup = 1
	}

	var p *pipdProc
	defer func() {
		if p != nil {
			p.kill()
		}
	}()
	var setups []float64
	var dataDir string
	for i := range nSetup {
		if p != nil {
			err := p.stop()
			p = nil
			if err != nil {
				return nil, err
			}
		}
		dataDir = filepath.Join(tmp, fmt.Sprintf("data%d", i))
		start := time.Now()
		if p, err = startPipd(ctx, o.pipd, dataDir); err != nil {
			return nil, err
		}
		if err := loadCatalog(ctx, server.NewClient(p.addr), wl.catalog); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	c := server.NewClient(p.addr)
	g, err := newLoadGen(ctx, c, wl, o.seed)
	if err != nil {
		return nil, err
	}
	warmWin := g.run(ctx, warm)
	statsSess, err := c.Session(ctx, nil)
	if err != nil {
		return nil, err
	}
	before, err := p.scrape(ctx, statsSess)
	if err != nil {
		return nil, fmt.Errorf("scrape before the window: %w", err)
	}
	w := g.run(ctx, measured)
	after, err := p.scrape(ctx, statsSess)
	if err != nil {
		return nil, fmt.Errorf("scrape after the window: %w", err)
	}
	res := &result{attempted: warmWin.ops + w.ops, failed: warmWin.failed + w.failed}
	if wl.ingest {
		// The acknowledged rows must be there now, and again after a crash
		// and recovery from the same data directory.
		res.attempted += 2
		if err := g.checkIngested(ctx, c); err != nil {
			res.failed++
			g.fail("before the crash: %v", err)
		}
		p.kill()
		if p, err = startPipd(ctx, o.pipd, dataDir); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		if err := g.checkIngested(ctx, server.NewClient(p.addr)); err != nil {
			res.failed++
			g.fail("after SIGKILL and recovery: %v", err)
		}
	}
	err = p.stop()
	p = nil
	if err != nil {
		return nil, err
	}

	res.errs = g.errs
	res.endToEnd = endToEndMetrics(setups, w, before, after, res.failed, res.attempted)
	res.record = newRunRecord(o, wl, w, setups)
	if o.trace {
		tres, err := tracedRun(ctx, wl, o.seed, warm, measured, filepath.Join(tmp, "traced"))
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		res.attempted += tres.warm.ops + tres.win.ops
		res.failed += tres.warm.failed + tres.win.failed
		res.errs = append(res.errs, tres.errs...)
		res.perLayer = perLayerMetrics(w, before, after, tres)
		spanDir := filepath.Join(o.workdir, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(spanDir, o.workload+".ndjson")
		if err := writeSpans(path, tres.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.record.SpanFile = path
	}
	res.record.Attempted, res.record.Failed = res.attempted, res.failed
	return res, nil
}

// subWindows is how many equal slices of the window the throughput and
// the latency percentiles are taken over; each reports the median slice,
// so a burst of load from outside the benchmark moves one slice, not the
// result.
const subWindows = 5

// endToEndMetrics are what a user of pipd sees, measured with tracing off.
func endToEndMetrics(setups []float64, w window, before, after *counters, failed, attempted int) []metric {
	ops := float64(w.ops)
	slice := w.elapsed / subWindows
	var rates, p50s, p99s []float64
	for k := range subWindows {
		lo, hi := time.Duration(k)*slice, time.Duration(k+1)*slice
		var lat []time.Duration
		for i, d := range w.done {
			if d >= lo && (d < hi || k == subWindows-1) {
				lat = append(lat, w.lat[i])
			}
		}
		rates = append(rates, float64(len(lat))/slice.Seconds())
		p50s = append(p50s, ms(percentile(lat, 0.50)))
		p99s = append(p99s, ms(percentile(lat, 0.99)))
	}
	return []metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		{Name: "throughput_ops_s", Value: median(rates), Unit: "1/s", N: subWindows},
		{Name: "latency_p50_ms", Value: median(p50s), Unit: "ms", N: len(w.lat)},
		{Name: "latency_p99_ms", Value: median(p99s), Unit: "ms", N: len(w.lat)},
		{Name: "error_rate", Value: ratio(float64(failed), float64(attempted)), Unit: "ratio"},
		{Name: "server_cpu_ms_per_op", Value: ratio(float64(after.cpuTicks-before.cpuTicks)*1000/clockTicks, ops), Unit: "ms"},
		{Name: "server_peak_rss_mb", Value: float64(after.hwmKB) / 1024, Unit: "MB"},
	}
}

// perLayerMetrics splits the work by layer. Counts come from pipd's own
// counters over the untraced window; times come from the traced run.
// The wal metrics cover pipd's whole life instead (catalog load and
// window): on the read workloads the catalog load is the only WAL traffic.
// A metric that does not apply to the workload (no rejection attempts, no
// result rows) reads 0.
func perLayerMetrics(w window, before, after *counters, t *traceResult) []metric {
	ops := float64(w.ops)
	eng := func(name string) float64 { return after.engine[name] - before.engine[name] }
	wal := func(name string) float64 { return after.metrics[name] }

	var wire, handler []float64
	handlers := map[string]span{}
	var flushes, bytes, nHandler float64
	for _, s := range t.spans {
		if s.Name == "server.handler" {
			handlers[s.Req] = s
			handler = append(handler, s.dur().Seconds()*1e3)
			flushes += float64(s.Flushes)
			bytes += float64(s.Bytes)
			nHandler++
		}
	}
	for _, s := range t.spans {
		if h, ok := handlers[s.Req]; ok && s.Name == "client.request" {
			wire = append(wire, (s.dur()-h.dur()).Seconds()*1e3)
		}
	}
	traced := float64(t.win.ops) / t.win.elapsed.Seconds()
	untraced := ops / w.elapsed.Seconds()
	r := t.replay
	return []metric{
		{Name: "client.wire_ms", Value: median(wire), Unit: "ms", N: len(wire)},
		{Name: "server.handler_ms", Value: median(handler), Unit: "ms", N: len(handler)},
		{Name: "server.flushes_per_request", Value: ratio(flushes, nHandler), Unit: "count"},
		{Name: "server.bytes_per_row", Value: ratio(bytes, float64(t.win.rows)), Unit: "B"},
		{Name: "server.encode_us_per_row", Value: r.encodeUSPerRow, Unit: "us"},
		{Name: "sql.parse_us", Value: r.parseUS, Unit: "us"},
		{Name: "sql.plan_us", Value: r.planUS, Unit: "us"},
		{Name: "sql.execute_ms", Value: r.executeMS, Unit: "ms"},
		{Name: "sql.relational_ms", Value: max(0, r.executeMS-r.sampleMS), Unit: "ms"},
		{Name: "sql.rows_scanned_per_row", Value: r.scannedPerRow, Unit: "ratio"},
		{Name: "sampler.sample_ms", Value: r.sampleMS, Unit: "ms"},
		{Name: "sampler.samples_per_query", Value: ratio(eng("samples"), ops), Unit: "count"},
		{Name: "sampler.ns_per_sample", Value: r.nsPerSample, Unit: "ns"},
		{Name: "sampler.batches_per_query", Value: ratio(eng("batches"), ops), Unit: "count"},
		{Name: "sampler.rounds_per_query", Value: ratio(eng("rounds"), ops), Unit: "count"},
		{Name: "sampler.rejection_accept_rate", Value: ratio(eng("rejection_accepts"), eng("rejection_attempts")), Unit: "ratio"},
		{Name: "sampler.metropolis_accept_rate", Value: ratio(eng("metropolis_accepts"), eng("metropolis_proposals")), Unit: "ratio"},
		{Name: "sampler.escalations_per_query", Value: ratio(eng("escalations"), ops), Unit: "count"},
		{Name: "sampler.exact_cdf_hits_per_query", Value: ratio(eng("exact_cdf_hits"), ops), Unit: "count"},
		{Name: "sampler.closed_form_hits_per_query", Value: ratio(eng("closed_form_hits"), ops), Unit: "count"},
		{Name: "wal.append_ms", Value: median(t.appends), Unit: "ms", N: len(t.appends)},
		{Name: "wal.fsync_ms", Value: 1e3 * ratio(wal("pip_wal_fsync_seconds_sum"), wal("pip_wal_fsync_seconds_count")), Unit: "ms"},
		{Name: "wal.fsyncs_per_insert", Value: ratio(wal("pip_wal_fsyncs_total"), wal("pip_wal_records_total")), Unit: "ratio"},
		{Name: "wal.bytes_per_record", Value: ratio(wal("pip_wal_bytes_total"), wal("pip_wal_records_total")), Unit: "B"},
		{Name: "wal.snapshots", Value: wal("pip_wal_snapshots_total"), Unit: "count"},
		{Name: "pipd.alloc_bytes_per_op", Value: ratio(after.totalAlloc-before.totalAlloc, ops), Unit: "B"},
		{Name: "pipd.gc_cycles_per_1k_ops", Value: 1000 * ratio(after.numGC-before.numGC, ops), Unit: "count"},
		{Name: "trace.throughput_ops_s", Value: traced, Unit: "1/s"},
		{Name: "trace.untraced_throughput_ops_s", Value: untraced, Unit: "1/s"},
		{Name: "trace.overhead_pct", Value: 100 * ratio(untraced-traced, untraced), Unit: "%"},
	}
}

// reportedEndToEnd is the end-to-end metric set of the result line.
// error_rate is left out there because it is 0 on a healthy run; the
// result line carries the same fact as attempted and failed.
func reportedEndToEnd(ms []metric) []metric {
	var out []metric
	for _, m := range ms {
		if m.Name != "error_rate" {
			out = append(out, m)
		}
	}
	return out
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s, seed %d, %d sessions, closed loop\n", r.record.Workload, r.record.Seed, sessions)
	fmt.Fprintln(w, "end to end (untraced):")
	for _, m := range r.endToEnd {
		printMetric(w, m)
	}
	if r.perLayer != nil {
		fmt.Fprintln(w, "per layer (counts from pipd's counters, times from the traced run):")
		for _, m := range r.perLayer {
			printMetric(w, m)
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "failure: %s\n", e)
	}
	rec, err := json.Marshal(r.record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", rec)

	ms := reportedEndToEnd(r.endToEnd)
	if r.perLayer != nil {
		ms = r.perLayer
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]json.RawMessage{}}
	for _, m := range ms {
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit})
		if err != nil {
			return fmt.Errorf("metric %s: %w", m.Name, err)
		}
		line.Metrics[m.Name] = raw
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func printMetric(w io.Writer, m metric) {
	if m.N > 0 {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
		return
	}
	fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
}
