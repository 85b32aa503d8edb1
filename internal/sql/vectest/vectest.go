// Package vectest is the golden bit-identity corpus for the SQL execution
// engine (the columnar batch operators of internal/sql/operators.go). It
// seeds one catalog from the paper's evaluation generators (synthetic
// TPC-H and the iceberg scenario, §VI) and runs a query corpus whose
// complete observable output — result tables (values, sampled moments,
// conditions, row order), per-operator EXPLAIN ANALYZE row counts and
// errors — is checked in under testdata/ and must reproduce byte for byte
// at every worker count. The golden files were generated while the engine
// still had a row-at-a-time twin and matched both engines; regenerate them
// only with go test -update, and only for a declared change of results.
//
// Float comparison rides on ctable.Value.String, which renders every NaN
// payload as "NaN" — the one place bit-identity is deliberately relaxed,
// since IEEE 754 leaves propagated-NaN payloads unspecified (see
// internal/expr/program.go).
package vectest

import (
	"context"
	"fmt"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/iceberg"
	"pip/internal/sampler"
	"pip/internal/sql"
	"pip/internal/tpch"
)

// Seed fixes the world seed and generator seeds so every run of the harness
// samples identical worlds.
const Seed = 20100301

// SeedDB builds the harness catalog: TPC-H-shaped tables (customers with
// the Q1/Q3 growth and delivery models, suppliers with the Q2 duration
// models, historical orders) plus the iceberg scenario (symbolic sighting
// positions, deterministic ships). All symbolic cells allocate through SQL
// CREATE_VARIABLE, so two databases seeded identically allocate identical
// variables and sample identical worlds.
func SeedDB(samples, workers int) (*core.DB, error) {
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = Seed
	cfg.FixedSamples = samples
	cfg.Workers = workers
	db := core.NewDB(cfg)

	exec := func(q string, args ...ctable.Value) error {
		_, err := sql.ExecContext(context.Background(), db, q, args...)
		return err
	}
	f := ctable.Float
	s := ctable.String_

	data := tpch.Generate(tpch.SmallScale(), 1)
	if err := exec("CREATE TABLE customers (cust, name, growth, price, thresh, delivery, orders)"); err != nil {
		return nil, err
	}
	for _, c := range data.Customers[:12] {
		sup := data.Suppliers[c.CustKey%len(data.Suppliers)]
		mu := sup.ManufMean + sup.ShipMean
		sigma := sup.ManufStd + sup.ShipStd
		err := exec("INSERT INTO customers VALUES (?, ?, ?, ?, ?, CREATE_VARIABLE('Normal', ?, ?), CREATE_VARIABLE('Poisson', ?))",
			f(float64(c.CustKey)), s(c.Name), f(c.GrowthRate()), f(c.AvgOrderPrice),
			f(c.SatisfactionThreshold), f(mu), f(sigma), f(c.GrowthRate()*10))
		if err != nil {
			return nil, err
		}
	}
	if err := exec("CREATE TABLE suppliers (supp, nation, manuf, ship)"); err != nil {
		return nil, err
	}
	for _, sup := range data.Suppliers[:8] {
		err := exec("INSERT INTO suppliers VALUES (?, ?, CREATE_VARIABLE('Normal', ?, ?), CREATE_VARIABLE('Normal', ?, ?))",
			f(float64(sup.SuppKey)), s(sup.Nation), f(sup.ManufMean), f(sup.ManufStd), f(sup.ShipMean), f(sup.ShipStd))
		if err != nil {
			return nil, err
		}
	}
	if err := exec("CREATE TABLE orders (okey, cust, price)"); err != nil {
		return nil, err
	}
	for _, o := range data.Orders[:30] {
		err := exec("INSERT INTO orders VALUES (?, ?, ?)",
			f(float64(o.OrderKey)), f(float64(o.CustKey)), f(o.Price))
		if err != nil {
			return nil, err
		}
	}

	berg := iceberg.Generate(8, 3, Seed)
	if err := exec("CREATE TABLE sightings (berg, danger, plat, plon)"); err != nil {
		return nil, err
	}
	for _, sg := range berg.Sightings {
		std := sg.PositionStd()
		err := exec("INSERT INTO sightings VALUES (?, ?, CREATE_VARIABLE('Normal', ?, ?), CREATE_VARIABLE('Normal', ?, ?))",
			f(float64(sg.IcebergID)), f(sg.Danger()), f(sg.Lat), f(std), f(sg.Lon), f(std))
		if err != nil {
			return nil, err
		}
	}
	if err := exec("CREATE TABLE ships (ship, lat, lon)"); err != nil {
		return nil, err
	}
	for _, sh := range berg.Ships {
		err := exec("INSERT INTO ships VALUES (?, ?, ?)",
			f(float64(sh.ShipID)), f(sh.Lat), f(sh.Lon))
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Corpus returns the golden query corpus: the planner-equivalence
// shapes (scans, filters, joins, DISTINCT, ORDER BY, LIMIT, constant
// folding) plus SQL renderings of the paper's TPC-H evaluation queries
// (Q1-Q3 analogues) and the iceberg danger query, exercising every sampled
// moment the engine exposes (expectation, variance, stddev, conf, aconf,
// expected_sum/count/avg/max).
func Corpus() []string {
	return []string{
		// Planner-equivalence shapes.
		"SELECT * FROM suppliers",
		"SELECT cust, price FROM customers WHERE price > 200",
		"SELECT cust, price * 2 AS pp FROM customers WHERE price > 150 AND price < 400",
		"SELECT name FROM customers WHERE 1 = 0",
		"SELECT growth * 10 AS g FROM customers ORDER BY g DESC LIMIT 3",
		"SELECT DISTINCT nation FROM suppliers",
		"SELECT o.okey, c.name FROM orders o, customers c WHERE o.cust = c.cust ORDER BY o.okey LIMIT 7",
		"SELECT s1.supp, s2.supp AS peer FROM suppliers s1, suppliers s2 WHERE s1.nation = s2.nation AND s1.supp < s2.supp",
		// TPC-H Q1 analogue: predicted revenue increase.
		"SELECT expected_sum(orders * price) AS rev FROM customers",
		"SELECT cust, expectation(orders * price) AS extra FROM customers LIMIT 5",
		// TPC-H Q2 analogue: worst-case delivery among Japanese suppliers.
		"SELECT expected_max(manuf + ship) AS worst FROM suppliers WHERE nation = 'JAPAN'",
		// TPC-H Q3 analogue: profit lost to dissatisfied customers.
		"SELECT expected_sum(orders * price) AS lost FROM customers WHERE delivery > thresh",
		"SELECT cust, variance(orders) AS v, stddev(orders) AS sd FROM customers WHERE delivery > thresh LIMIT 4",
		// Join + grouped aggregates over historical orders.
		"SELECT c.name, expected_count(*) AS n FROM orders o, customers c WHERE o.cust = c.cust AND o.price > 200 GROUP BY c.name ORDER BY c.name",
		"SELECT c.name, expected_avg(o.price) AS avg_price FROM orders o, customers c WHERE o.cust = c.cust GROUP BY c.name ORDER BY c.name",
		// Iceberg danger query: per-pair threat probability, then per-ship.
		"SELECT s.berg, h.ship, conf() AS threat FROM sightings s, ships h WHERE s.plat > h.lat - 0.5 AND s.plat < h.lat + 0.5 AND s.plon > h.lon - 0.5 AND s.plon < h.lon + 0.5",
		"SELECT h.ship, aconf() AS danger FROM sightings s, ships h WHERE s.plat > h.lat - 0.5 AND s.plat < h.lat + 0.5 AND s.plon > h.lon - 0.5 AND s.plon < h.lon + 0.5 GROUP BY h.ship ORDER BY h.ship",
	}
}

// Result is one query's complete observable output: the rendered result
// table (values, sampled moments, conditions, row order, schema) and the
// per-operator EXPLAIN ANALYZE skeleton.
type Result struct {
	// Rows is the result table rendered by ctable.Table.String.
	Rows string
	// Plan lists one "Op detail rows=N" line per operator, depth-first —
	// wall times and batch counts excluded.
	Plan []string
}

// RunQuery executes one corpus query under the given planner hints and
// returns its Result. The query runs twice — once for the rows, once under
// EXPLAIN ANALYZE for the row counts; deferred sampling makes both runs
// draw identical worlds.
func RunQuery(db *core.DB, q string, h sql.Hints) (Result, error) {
	ctx := sql.WithHints(context.Background(), h)
	out, err := sql.ExecContext(ctx, db, q)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", q, err)
	}
	node, err := sql.ExplainContext(ctx, db, "EXPLAIN ANALYZE "+q)
	if err != nil {
		return Result{}, fmt.Errorf("explain %s: %w", q, err)
	}
	return Result{Rows: out.String(), Plan: PlanRows(node)}, nil
}

// PlanRows flattens a plan tree into per-operator lines: operator, detail
// and emitted row count only.
func PlanRows(node *sql.PlanNode) []string {
	var out []string
	var walk func(n *sql.PlanNode, depth int)
	walk = func(n *sql.PlanNode, depth int) {
		out = append(out, fmt.Sprintf("%*s%s %s rows=%d", depth*2, "", n.Op, n.Detail, n.Rows))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(node, 0)
	return out
}
