package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// This file holds the rich-query experiment: the in-repo analog of the
// paper's LevelDB-vs-CouchDB state database comparison. It measures a
// provenance query by non-key field (records by owner) against growing
// state, once served from a declared secondary index and once from the
// filtered-scan path, and reports per-query latency for both. The indexed
// path should stay flat as state grows while the scan path degrades
// linearly.

// queryConfig parameterizes the indexed-vs-scan experiment.
type queryConfig struct {
	// Sizes are the state sizes (record counts) on the x-axis.
	Sizes []int
	// Owners is the number of distinct owners records are spread across;
	// each query selects one owner's records.
	Owners int
	// QueriesPerPoint is how many queries are timed per state size.
	QueriesPerPoint int
	// Seed fixes the record layout.
	Seed int64
}

// queryConfigFor returns the figure-quality configuration, or the reduced
// one.
func queryConfigFor(quick bool) queryConfig {
	if quick {
		return queryConfig{Sizes: []int{500, 2000}, Owners: 20, QueriesPerPoint: 50, Seed: 1}
	}
	return queryConfig{Sizes: []int{1000, 5000, 20000, 50000}, Owners: 50, QueriesPerPoint: 200, Seed: 1}
}

// QueryBenchRow is one measured state size.
type QueryBenchRow struct {
	Records   int
	PerOwner  int
	IndexedUs float64 // mean µs per indexed query
	ScanUs    float64 // mean µs per scan query
	Speedup   float64
}

// QueryBenchResult is the regenerated comparison table.
type QueryBenchResult struct {
	Name        string
	Description string
	Rows        []QueryBenchRow
}

// Format renders the comparison table.
func (r QueryBenchResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n%s\n", r.Name, r.Description)
	fmt.Fprintf(&sb, "%-10s %10s %14s %14s %10s\n",
		"records", "per-owner", "indexed(µs)", "scan(µs)", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10d %10d %14.1f %14.1f %9.1fx\n",
			row.Records, row.PerOwner, row.IndexedUs, row.ScanUs, row.Speedup)
	}
	return sb.String()
}

// runQueryBench runs the indexed-vs-scan comparison. Both stores hold
// identical records; "indexed" declares the by-owner index the provenance
// contract ships, "scan" declares none, so the planner falls back to the
// filtered scan — the situation of the seed repo before this subsystem.
func runQueryBench(quick bool) (Report, error) {
	cfg := queryConfigFor(quick)
	res := QueryBenchResult{
		Name: "Rich query: indexed vs scan, records by owner",
		Description: fmt.Sprintf(
			"mean query latency over %d queries; %d owners; LevelDB-flavour scan vs CouchDB-flavour index",
			cfg.QueriesPerPoint, cfg.Owners),
	}
	for _, size := range cfg.Sizes {
		row, err := runQueryPoint(cfg, size)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runQueryPoint(cfg queryConfig, size int) (QueryBenchRow, error) {
	indexed, err := statedb.NewIndexed(richquery.IndexDef{Name: "by-owner", Field: "owner"})
	if err != nil {
		return QueryBenchRow{}, err
	}
	scan := statedb.New()

	rng := rand.New(rand.NewSource(cfg.Seed))
	batch := statedb.NewUpdateBatch()
	for i := 0; i < size; i++ {
		doc, err := json.Marshal(map[string]any{
			"key":      fmt.Sprintf("item-%06d", i),
			"checksum": fmt.Sprintf("cs-%06d", i),
			"owner":    ownerName(i % cfg.Owners),
			"meta":     map[string]string{"type": "raw"},
			"ts":       1570000000000 + int64(i),
		})
		if err != nil {
			return QueryBenchRow{}, err
		}
		batch.Put(fmt.Sprintf("item-%06d", i), doc, statedb.Version{BlockNum: 1, TxNum: uint64(i)})
	}
	// ApplyUpdates only reads the batch, so both stores can commit it.
	height := statedb.Version{BlockNum: 1, TxNum: uint64(size)}
	if err := indexed.ApplyUpdates(batch, height); err != nil {
		return QueryBenchRow{}, err
	}
	if err := scan.ApplyUpdates(batch, height); err != nil {
		return QueryBenchRow{}, err
	}

	queries := make([][]byte, cfg.QueriesPerPoint)
	for i := range queries {
		q, err := json.Marshal(map[string]any{
			"selector": map[string]any{"owner": ownerName(rng.Intn(cfg.Owners))},
		})
		if err != nil {
			return QueryBenchRow{}, err
		}
		queries[i] = q
	}

	// Correctness guard: both paths must agree before being timed.
	if err := sameAnswers(indexed, scan, queries[0]); err != nil {
		return QueryBenchRow{}, err
	}

	indexedUs, err := timeQueries(indexed, queries)
	if err != nil {
		return QueryBenchRow{}, err
	}
	scanUs, err := timeQueries(scan, queries)
	if err != nil {
		return QueryBenchRow{}, err
	}
	row := QueryBenchRow{
		Records:   size,
		PerOwner:  size / cfg.Owners,
		IndexedUs: indexedUs,
		ScanUs:    scanUs,
	}
	if indexedUs > 0 {
		row.Speedup = scanUs / indexedUs
	}
	return row, nil
}

func ownerName(i int) string {
	return fmt.Sprintf("x509::CN=owner-%03d,O=Org1,OU=client", i)
}

// timeQueries times parsing and answering each query, as a chaincode's
// GetQueryResult does both.
func timeQueries(s *statedb.Store, queries [][]byte) (float64, error) {
	start := time.Now()
	for _, raw := range queries {
		q, err := richquery.ParseQuery(raw)
		if err != nil {
			return 0, err
		}
		if _, err := s.ExecuteQuery(q); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(len(queries)), nil
}

// sameAnswers confirms the indexed and scan paths return identical keys.
func sameAnswers(a, b *statedb.Store, query []byte) error {
	q, err := richquery.ParseQuery(query)
	if err != nil {
		return err
	}
	ra, err := a.ExecuteQuery(q)
	if err != nil {
		return err
	}
	rb, err := b.ExecuteQuery(q)
	if err != nil {
		return err
	}
	if len(ra.KVs) != len(rb.KVs) {
		return fmt.Errorf("bench: indexed returned %d keys, scan %d", len(ra.KVs), len(rb.KVs))
	}
	for i := range ra.KVs {
		if ra.KVs[i].Key != rb.KVs[i].Key {
			return fmt.Errorf("bench: result mismatch at %d: %q vs %q", i, ra.KVs[i].Key, rb.KVs[i].Key)
		}
	}
	if len(ra.KVs) == 0 {
		return fmt.Errorf("bench: query returned no records")
	}
	return nil
}
