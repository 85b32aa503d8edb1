package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"pip/internal/sampler"
	"pip/internal/server"
	"pip/internal/tpch"
)

// workload is one traffic mix: the statements that build its catalog, and
// the templates its sessions cycle through round-robin.
type workload struct {
	name      string
	catalog   []string
	templates []*template
	// cycle is the order in which each session visits the templates (by
	// index); a template listed twice gets twice the traffic.
	cycle []int
	// ingest marks the write workload: its one template is an INSERT whose
	// acknowledged rows are checked after the window and after a crash.
	ingest bool
}

// template is one statement shape with the parameter sets the seed chose
// for it. Each parameter set carries the oracle that checks its answer.
type template struct {
	name     string
	sql      string
	prepared bool
	// samples, when positive, runs the template in a session with SET
	// samples = samples (a fixed accepted-sample count per estimate)
	// instead of pipd's adaptive (epsilon, delta) default.
	samples int
	params  []param
}

// param is one bound argument list plus the check its first answer must
// pass. Later answers to the same template and arguments must be
// byte-identical to the first (the determinism contract).
type param struct {
	args  []any
	check func(a *answer) error
}

// answer is one query result as it crossed the wire.
type answer struct {
	rows  [][]server.Value
	conds []string
}

// Names of the three workloads, in the order BENCHMARK.json lists them.
const (
	wlSampled = "sampled-analytics"
	wlWire    = "wire-scan"
	wlIngest  = "durable-ingest"
)

var workloadNames = []string{wlSampled, wlWire, wlIngest}

// rowsPerInsert is the batch size of the catalog load's INSERT statements.
const rowsPerInsert = 64

// The (epsilon, delta) goal pipd runs at by default; the sampled-answer
// tolerances are derived from it.
var (
	defaults = sampler.DefaultConfig()
	// zGoal is the z-score of the (1 - epsilon) interval whose half-width
	// the adaptive sampler drives below delta.
	zGoal = math.Sqrt2 * math.Erfinv(1-defaults.Epsilon)
)

// The templates whose answers pipd's adaptive default gets wrong at this
// commit run at a fixed sample count instead. Adaptive stopping checks only
// the running mean's variance after the first MinSamples draws: conf() over
// a rare or near-certain event sees 30 identical indicators, zero variance,
// and stops at 0 or 1; a conditioned expected_sum stops once the
// conditional mean converges and takes P[condition] from those few dozen
// attempts. Both miss the truth by far more than the delta goal. With a
// fixed count every answer is a plain Monte Carlo estimate whose spread the
// checks derive from the count.
const (
	// confSamples is the paper's fixed-1000-sample setting.
	confSamples = 1000
	// condSamples is smaller: rejection makes about n/P[condition]
	// attempts per row, so a row just above the escalation point costs
	// 200 n, and at n = 1000 the few such rows a seed's catalog happens
	// to hold would set both the cost of the whole mix and its tail.
	condSamples = 100
)

// lit renders a float as an exact SQL literal (shortest round-trip form).
func lit(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// poissonLambda is the customer's expected order count next year: last
// year's purchases grown at the customer's observed rate.
func poissonLambda(c tpch.Customer) float64 { return c.PurchasesLastYear * c.GrowthRate() }

// catalogStatements loads the generated data: customers with a Poisson
// order-count variable, suppliers with Normal manufacturing and shipping
// times, deterministic lineorders, and the paper's orders/shipping example.
func catalogStatements(d *tpch.Data) []string {
	var out []string
	batch := func(table string, rows []string) {
		for i := 0; i < len(rows); i += rowsPerInsert {
			end := min(i+rowsPerInsert, len(rows))
			out = append(out, "INSERT INTO "+table+" VALUES "+strings.Join(rows[i:end], ", "))
		}
	}
	out = append(out, "CREATE TABLE customers (custkey, price, morders)")
	var rows []string
	for _, c := range d.Customers {
		rows = append(rows, fmt.Sprintf("(%d, %s, CREATE_VARIABLE('Poisson', %s))",
			c.CustKey, lit(c.AvgOrderPrice), lit(poissonLambda(c))))
	}
	batch("customers", rows)

	out = append(out, "CREATE TABLE suppliers (suppkey, nation, manuf, ship)")
	rows = rows[:0]
	for _, s := range d.Suppliers {
		rows = append(rows, fmt.Sprintf("(%d, '%s', CREATE_VARIABLE('Normal', %s, %s), CREATE_VARIABLE('Normal', %s, %s))",
			s.SuppKey, s.Nation, lit(s.ManufMean), lit(s.ManufStd), lit(s.ShipMean), lit(s.ShipStd)))
	}
	batch("suppliers", rows)

	out = append(out, "CREATE TABLE lineorders (orderkey, cust, part, supp, price)")
	rows = rows[:0]
	for _, o := range d.Orders {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d, %d, %s)",
			o.OrderKey, o.CustKey, o.PartKey, o.SuppKey, lit(o.Price)))
	}
	batch("lineorders", rows)
	return append(out, server.DemoStatements...)
}

// ingestSQL is durable-ingest's statement: one row, one WAL record.
const ingestSQL = "INSERT INTO readings VALUES (?, ?, CREATE_VARIABLE('Normal', ?, ?))"

// buildWorkload generates the named workload from the seed: the catalog
// comes from tpch.Generate(DefaultScale, seed), the query parameters from a
// second stream of the same seed.
func buildWorkload(name string, seed uint64) (*workload, error) {
	d := tpch.Generate(tpch.DefaultScale(), seed)
	rng := rand.New(rand.NewPCG(seed, 0x65326562656e6368))
	wl := &workload{name: name, catalog: catalogStatements(d)}
	switch name {
	// Each mix gives one template twice the traffic of the others. With
	// equal shares the median latency would fall between two templates'
	// latencies and jump from one to the other on a small change in the mix;
	// this way it falls inside the doubled template's own spread, and that
	// template is one whose cost does not depend on the seed's data.
	case wlSampled:
		wl.templates = sampledTemplates(d, rng)
		wl.cycle = []int{0, 3, 1, 3, 2} // grouped_stddev twice
	case wlWire:
		wl.templates = wireTemplates(d, rng)
		wl.cycle = []int{0, 1, 2, 0, 3} // point_lookup twice
	case wlIngest:
		wl.ingest = true
		wl.catalog = append(wl.catalog, "CREATE TABLE readings (sensor, seq, reading)")
		wl.templates = []*template{{name: "insert", sql: ingestSQL, prepared: true}}
		wl.cycle = []int{0}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return wl, nil
}

// ---------------------------------------------------------------------------
// sampled-analytics: one query per estimator path.

func sampledTemplates(d *tpch.Data, rng *rand.Rand) []*template {
	nats := nations(d)
	nonlinear := &template{name: "nonlinear_sum",
		sql: "SELECT expected_sum(morders * morders + morders * price) FROM customers WHERE custkey > ? AND custkey <= ?"}
	// Four windows that partition the customers, with seeded boundaries:
	// one pass over the parameter sets samples every customer once.
	bounds := []int{0}
	for k := 1; k < 4; k++ {
		bounds = append(bounds, k*len(d.Customers)/4+rng.IntN(41)-20)
	}
	bounds = append(bounds, len(d.Customers))
	for k := range 4 {
		lo, hi := bounds[k], bounds[k+1]
		// E[X^2 + pX] = lambda + lambda^2 + p*lambda for X ~ Poisson(lambda).
		var truth []float64
		for _, c := range d.Customers[lo:hi] {
			l := poissonLambda(c)
			truth = append(truth, l+l*l+c.AvgOrderPrice*l)
		}
		nonlinear.params = append(nonlinear.params, param{
			args:  []any{int64(lo), int64(hi)},
			check: checkSum(truth),
		})
	}

	conf := &template{name: "conf_normal_sum", samples: confSamples,
		sql: "SELECT suppkey, conf() FROM suppliers WHERE nation = ? AND manuf + ship > ?"}
	for k := range 3 {
		for _, nation := range nats {
			var keys, mus, sds []float64
			for _, s := range d.Suppliers {
				if s.Nation == nation {
					// manuf + ship ~ Normal(mu_m + mu_s, sd_m^2 + sd_s^2).
					keys = append(keys, float64(s.SuppKey))
					mus = append(mus, s.ManufMean+s.ShipMean)
					sds = append(sds, math.Hypot(s.ManufStd, s.ShipStd))
				}
			}
			// Thresholds 0.5, 1.5 and 2.5 typical deviations above the
			// nation's median total time, jittered by the seed: every seed
			// asks for the same spread of probabilities.
			t := median(mus) + (0.5+float64(k)+0.5*rng.Float64()-0.25)*median(sds)
			truth := make([]float64, len(keys))
			for i := range keys {
				truth[i] = 1 - normCDF((t-mus[i])/sds[i])
			}
			conf.params = append(conf.params, param{args: []any{nation, t}, check: checkConfRows(keys, truth, confSamples)})
		}
	}

	rejection := &template{name: "conditioned_sum", samples: condSamples,
		sql: "SELECT expected_sum(manuf) FROM suppliers WHERE nation = ? AND manuf > ship + ?"}
	// Thresholds c in [0, 3), one at a seeded point of each sixth for each
	// nation: rejection needs about n/P[condition] attempts per row, so the
	// cost of a query rises steeply as a row's P nears the escalation
	// point, and stratified thresholds give every seed a like mix of cheap
	// and costly rows.
	const condSteps = 6
	for i := range condSteps * len(nats) {
		nation := nats[i%len(nats)]
		c := 3 * (float64(i/len(nats)) + rng.Float64()) / condSteps
		// E[X 1{X - Y - c > 0}] for independent Normals X, Y: with
		// D = X - Y - c, E[X | D] is linear in D, which gives
		// mu_x Phi(mu_d/sd_d) + (sd_x^2/sd_d) phi(mu_d/sd_d).
		var rows []condRow
		for _, s := range d.Suppliers {
			if s.Nation != nation {
				continue
			}
			md := s.ManufMean - s.ShipMean - c
			sdd := math.Hypot(s.ManufStd, s.ShipStd)
			rows = append(rows, condRow{
				truth: s.ManufMean*normCDF(md/sdd) + s.ManufStd*s.ManufStd/sdd*normPDF(md/sdd),
				prob:  normCDF(md / sdd),
				sd:    s.ManufStd,
			})
		}
		rejection.params = append(rejection.params, param{args: []any{nation, c}, check: checkConditionedSum(rows, condSamples)})
	}

	stddev := &template{name: "grouped_stddev",
		sql: "SELECT nation, expected_stddev(manuf) FROM suppliers GROUP BY nation"}
	stddev.params = []param{{check: checkGroupedStddev(stddevOracle(d, rng))}}

	return []*template{nonlinear, conf, rejection, stddev}
}

// nations lists the supplier nations in first-appearance order.
func nations(d *tpch.Data) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range d.Suppliers {
		if !seen[s.Nation] {
			seen[s.Nation] = true
			out = append(out, s.Nation)
		}
	}
	return out
}

func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
func normPDF(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }

// checkSum accepts an expected_sum within delta of the truth, relative to
// the sum of the rows' magnitudes: the bound that holds when every row's
// estimate meets its (epsilon, delta) goal.
func checkSum(rowTruth []float64) func(*answer) error {
	var truth, scale float64
	for _, t := range rowTruth {
		truth += t
		scale += math.Abs(t)
	}
	return func(a *answer) error {
		got, err := singleFloat(a)
		if err != nil {
			return err
		}
		if tol := defaults.Delta * scale; math.Abs(got-truth) > tol {
			return fmt.Errorf("expected_sum %g, truth %g (tolerance %g)", got, truth, tol)
		}
		return nil
	}
}

// condRow is one supplier's share of a conditioned expected_sum: the true
// E[X 1{condition}], P[condition], and the standard deviation of X.
type condRow struct {
	truth, prob, sd float64
}

// checkConditionedSum checks an expected_sum over rows each estimated from
// n accepted samples: P[condition] as n over the attempts, times the mean
// of the accepted X. A row whose P[condition] is near or below the
// Metropolis escalation point may instead take P from a count of n
// indicator draws. Per row the estimate's variance is at most
// (t^2 (1-p)/r + p^2 sd^2) / n, with r = 1 for the attempt count
// (relative variance (1-p)/n) and r = p for the indicator count (relative
// variance (1-p)/(p n)); the p^2 sd^2 term bounds the conditional mean's,
// since truncating a Normal only narrows it. The tolerance is three
// z-scaled standard deviations of the sum, plus three draws' worth of each
// indicator-count row's conditional mean for the discreteness of small
// counts, so a correct sampler fails it with negligible probability.
func checkConditionedSum(rows []condRow, n int) func(*answer) error {
	// Rows below twice the escalation point's acceptance rate may escalate.
	escalation := 2 * (1 - defaults.MetropolisThreshold)
	var truth, variance, slack float64
	for _, r := range rows {
		truth += r.truth
		if r.prob <= 0 {
			continue
		}
		rel := 1.0
		if r.prob < escalation {
			rel = r.prob
			slack += 3 * r.truth / r.prob / float64(n)
		}
		variance += (r.truth*r.truth*(1-r.prob)/rel + r.prob*r.prob*r.sd*r.sd) / float64(n)
	}
	tol := 3*zGoal*math.Sqrt(variance) + slack
	return func(a *answer) error {
		got, err := singleFloat(a)
		if err != nil {
			return err
		}
		if math.Abs(got-truth) > tol {
			return fmt.Errorf("expected_sum %g, truth %g (tolerance %g)", got, truth, tol)
		}
		return nil
	}
}

// checkConfRows checks one conf() per supplier, each estimated from n
// indicator draws. The tolerance is three times the binomial z half-width
// plus three draws for the discreteness of small counts, so a correct
// sampler fails it with negligible probability.
func checkConfRows(keys, truth []float64, n int) func(*answer) error {
	return func(a *answer) error {
		if len(a.rows) != len(keys) {
			return fmt.Errorf("conf: %d rows, want %d", len(a.rows), len(keys))
		}
		for i, row := range a.rows {
			k, p, err := twoFloats(row)
			if err != nil {
				return err
			}
			if k != keys[i] {
				return fmt.Errorf("conf row %d: suppkey %g, want %g", i, k, keys[i])
			}
			q := truth[i]
			halfWidth := zGoal * math.Sqrt(q*(1-q)/float64(n))
			if tol := 3*halfWidth + 3/float64(n); math.Abs(p-q) > tol {
				return fmt.Errorf("conf for supplier %g: %g, truth %g (tolerance %g)", k, p, q, tol)
			}
		}
		return nil
	}
}

// stddevTruth is the oracle's value for one nation's expected_stddev.
type stddevTruth struct {
	mean, stderr float64
}

// oracleWorlds is the number of worlds the stddev oracle draws per nation.
const oracleWorlds = 20000

// stddevOracle estimates E[population stddev of manuf across a nation's
// suppliers] by drawing worlds independently of the engine (its own PRNG
// and its own Normal generator), and reports the spread of the per-world
// value so the check can allow for the engine's fixed 1000 worlds.
func stddevOracle(d *tpch.Data, rng *rand.Rand) map[string]stddevTruth {
	out := map[string]stddevTruth{}
	for _, nation := range nations(d) {
		var mu, sd []float64
		for _, s := range d.Suppliers {
			if s.Nation == nation {
				mu = append(mu, s.ManufMean)
				sd = append(sd, s.ManufStd)
			}
		}
		var sum, sumSq float64
		for range oracleWorlds {
			var s1, s2 float64
			for i := range mu {
				x := mu[i] + sd[i]*rng.NormFloat64()
				s1 += x
				s2 += x * x
			}
			n := float64(len(mu))
			v := math.Sqrt(math.Max(0, s2/n-(s1/n)*(s1/n)))
			sum += v
			sumSq += v * v
		}
		mean := sum / oracleWorlds
		out[nation] = stddevTruth{mean: mean, stderr: math.Sqrt(math.Max(0, sumSq/oracleWorlds-mean*mean))}
	}
	return out
}

// stddevEngineWorlds is the world count expected_stddev uses at pipd's
// default (adaptive) settings.
const stddevEngineWorlds = 1000

func checkGroupedStddev(truth map[string]stddevTruth) func(*answer) error {
	return func(a *answer) error {
		if len(a.rows) != len(truth) {
			return fmt.Errorf("expected_stddev: %d groups, want %d", len(a.rows), len(truth))
		}
		for _, row := range a.rows {
			if len(row) != 2 || row[0].T != "s" {
				return fmt.Errorf("expected_stddev: malformed row %v", row)
			}
			got, err := floatOf(row[1])
			if err != nil {
				return err
			}
			t, ok := truth[row[0].S]
			if !ok {
				return fmt.Errorf("expected_stddev: unexpected group %q", row[0].S)
			}
			// Five standard errors of the engine's and the oracle's means,
			// or the delta goal, whichever is wider.
			se := t.stderr * math.Sqrt(1.0/stddevEngineWorlds+1.0/oracleWorlds)
			if tol := math.Max(defaults.Delta*t.mean, 5*se); math.Abs(got-t.mean) > tol {
				return fmt.Errorf("expected_stddev(%s) %g, truth %g (tolerance %g)", row[0].S, got, t.mean, tol)
			}
		}
		return nil
	}
}

// ---------------------------------------------------------------------------
// wire-scan: relational work and result streaming; the sampler draws
// almost nothing.

func wireTemplates(d *tpch.Data, rng *rand.Rand) []*template {
	point := &template{name: "point_lookup", prepared: true,
		sql: "SELECT orderkey, part, supp, price FROM lineorders WHERE cust = ?"}
	for range 16 {
		cust := d.Customers[rng.IntN(len(d.Customers))].CustKey
		var want [][]float64
		for _, o := range d.Orders {
			if o.CustKey == cust {
				want = append(want, []float64{float64(o.OrderKey), float64(o.PartKey), float64(o.SuppKey), o.Price})
			}
		}
		point.params = append(point.params, param{args: []any{int64(cust)}, check: checkTable(want)})
	}

	scan := &template{name: "range_scan", sql: "SELECT orderkey, price FROM lineorders WHERE price > ?"}
	prices := make([]float64, len(d.Orders))
	for i, o := range d.Orders {
		prices[i] = o.Price
	}
	sort.Float64s(prices)
	// Thresholds at fixed quantiles keep the streamed volume (about 3000,
	// 2000, 1000 and 400 rows) the same for every seed.
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		k := int(q * float64(len(prices)))
		// A seeded point between two neighbouring prices: the argument
		// varies with the seed, the row count does not.
		t := prices[k] + (prices[k+1]-prices[k])*rng.Float64()
		var want [][]float64
		for _, o := range d.Orders {
			if o.Price > t {
				want = append(want, []float64{float64(o.OrderKey), o.Price})
			}
		}
		scan.params = append(scan.params, param{args: []any{t}, check: checkTable(want)})
	}

	symbolic := &template{name: "symbolic_rows", sql: "SELECT suppkey, manuf, ship FROM suppliers WHERE nation = ?"}
	for _, nation := range nations(d) {
		var keys []float64
		for _, s := range d.Suppliers {
			if s.Nation == nation {
				keys = append(keys, float64(s.SuppKey))
			}
		}
		symbolic.params = append(symbolic.params, param{args: []any{nation}, check: checkSymbolic(keys)})
	}

	join := &template{name: "paper_join",
		sql: "SELECT expected_sum(o.price) FROM orders o, shipping s WHERE o.shipto = s.dest AND o.cust = ? AND s.duration >= ?"}
	// The running example: price and duration are independent Normals, so
	// E[price 1{duration >= t}] = mean(price) * P[duration >= t], which the
	// engine integrates exactly through the duration's CDF.
	for _, c := range []struct {
		cust             string
		price, mu, sd, t float64
	}{
		{"Joe", 100, 5, 2, 5 + 4*rng.Float64()},
		{"Joe", 100, 5, 2, 5 + 4*rng.Float64()},
		{"Bob", 80, 4, 1, 4 + 2*rng.Float64()},
		{"Bob", 80, 4, 1, 4 + 2*rng.Float64()},
	} {
		truth := c.price * (1 - normCDF((c.t-c.mu)/c.sd))
		join.params = append(join.params, param{args: []any{c.cust, c.t}, check: checkExact(truth)})
	}
	return []*template{point, scan, symbolic, join}
}

// checkTable requires exactly the given rows, in scan order, with every
// float equal to the generated value bit for bit.
func checkTable(want [][]float64) func(*answer) error {
	return func(a *answer) error {
		if len(a.rows) != len(want) {
			return fmt.Errorf("%d rows, want %d", len(a.rows), len(want))
		}
		for i, row := range a.rows {
			if len(row) != len(want[i]) {
				return fmt.Errorf("row %d: %d columns, want %d", i, len(row), len(want[i]))
			}
			for j, v := range row {
				f, err := floatOf(v)
				if err != nil {
					return err
				}
				if f != want[i][j] {
					return fmt.Errorf("row %d column %d: %g, want %g", i, j, f, want[i][j])
				}
			}
			if a.conds[i] != "" {
				return fmt.Errorf("row %d: unexpected condition %q", i, a.conds[i])
			}
		}
		return nil
	}
}

// checkSymbolic requires one row per supplier key whose two variable cells
// arrive as distinct equation strings.
func checkSymbolic(keys []float64) func(*answer) error {
	return func(a *answer) error {
		if len(a.rows) != len(keys) {
			return fmt.Errorf("%d rows, want %d", len(a.rows), len(keys))
		}
		for i, row := range a.rows {
			if len(row) != 3 {
				return fmt.Errorf("row %d: %d columns, want 3", i, len(row))
			}
			k, err := floatOf(row[0])
			if err != nil {
				return err
			}
			if k != keys[i] {
				return fmt.Errorf("row %d: suppkey %g, want %g", i, k, keys[i])
			}
			if row[1].T != "e" || row[2].T != "e" || row[1].S == "" || row[1].S == row[2].S {
				return fmt.Errorf("row %d: want two distinct equation cells, got %v", i, row[1:])
			}
		}
		return nil
	}
}

// checkExact accepts only the exact-CDF answer, up to float rounding.
func checkExact(truth float64) func(*answer) error {
	return func(a *answer) error {
		got, err := singleFloat(a)
		if err != nil {
			return err
		}
		if math.Abs(got-truth) > 1e-9*math.Abs(truth) {
			return fmt.Errorf("join expected_sum %g, exact truth %g", got, truth)
		}
		return nil
	}
}

func floatOf(v server.Value) (float64, error) {
	switch v.T {
	case "f":
		return strconv.ParseFloat(v.F, 64)
	case "i":
		return float64(v.I), nil
	}
	return 0, fmt.Errorf("want a number, got %s value %q", v.T, v.String())
}

func singleFloat(a *answer) (float64, error) {
	if len(a.rows) != 1 || len(a.rows[0]) != 1 {
		return 0, fmt.Errorf("want one value, got %d rows", len(a.rows))
	}
	return floatOf(a.rows[0][0])
}

func twoFloats(row []server.Value) (float64, float64, error) {
	if len(row) != 2 {
		return 0, 0, fmt.Errorf("want two columns, got %d", len(row))
	}
	x, err := floatOf(row[0])
	if err != nil {
		return 0, 0, err
	}
	y, err := floatOf(row[1])
	return x, y, err
}
