// Command hyperprov runs an end-to-end HyperProv walkthrough on an
// in-process network: it stores data items with provenance, updates them,
// traces lineage, demonstrates tamper detection, and audits the ledger's
// hash chain. Use -rpi to run on the Raspberry Pi device profiles.
//
// The query subcommand instead exercises the rich-query subsystem: it
// populates the store with typed records and runs indexed provenance
// queries (by owner, by type, by time window, and a raw Mango selector)
// through the gateway:
//
// The recover subcommand demonstrates durable peer storage: it commits
// provenance records on a peer rooted in a data directory, kills the peer
// mid-stream, reopens it from disk (checkpoint restore + block tail
// replay), and shows that state, history, and rich-query indexes came back
// to the exact pre-crash fingerprint:
//
//	hyperprov [-rpi] [-items N] [-payload BYTES]
//	hyperprov query [-selector JSON]
//	hyperprov recover [-dir PATH] [-blocks N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "query" {
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		selector := fs.String("selector",
			`{"selector":{"meta.type":"aggregate"},"sort":[{"ts":"desc"}]}`,
			"raw Mango query to run after the built-in queries")
		_ = fs.Parse(os.Args[2:])
		if err := runQuery(*selector); err != nil {
			fmt.Fprintln(os.Stderr, "hyperprov query:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "recover" {
		fs := flag.NewFlagSet("recover", flag.ExitOnError)
		dir := fs.String("dir", "", "peer data directory (default: a fresh temp dir)")
		blocks := fs.Int("blocks", 14, "blocks to commit before the simulated crash")
		_ = fs.Parse(os.Args[2:])
		if err := runRecover(*dir, *blocks); err != nil {
			fmt.Fprintln(os.Stderr, "hyperprov recover:", err)
			os.Exit(1)
		}
		return
	}
	rpi := flag.Bool("rpi", false, "use Raspberry Pi 3B+ device profiles")
	items := flag.Int("items", 3, "number of data items to store")
	payload := flag.Int("payload", 4096, "payload size in bytes per item")
	flag.Parse()
	if err := run(*rpi, *items, *payload); err != nil {
		fmt.Fprintln(os.Stderr, "hyperprov:", err)
		os.Exit(1)
	}
}

// runQuery demonstrates the rich-query subsystem end to end: records land
// through the normal execute-order-validate pipeline, the peers maintain
// the chaincode's declared indexes at commit, and every query below is
// served by the state database's Mango engine through the gateway.
func runQuery(rawQuery string) error {
	cfg := fabric.DesktopConfig()
	cfg.Batch = orderer.BatchConfig{
		MaxMessageCount: 10, BatchTimeout: 200 * time.Millisecond, PreferredMaxBytes: 8 << 20,
	}
	fmt.Println("starting HyperProv network with indexed state database")
	n, err := fabric.NewNetwork(cfg)
	if err != nil {
		return err
	}
	defer n.Stop()
	if err := n.DeployChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return provenance.New() }); err != nil {
		return err
	}
	gw, err := n.NewGateway("cli")
	if err != nil {
		return err
	}
	client, err := core.New(gw, core.WithStore(offchain.NewMemStore()))
	if err != nil {
		return err
	}

	// Populate: sensors produce raw readings, a pipeline derives aggregates.
	types := []string{"raw", "raw", "raw", "aggregate", "aggregate"}
	start := time.Now().UTC()
	for i, typ := range types {
		key := fmt.Sprintf("reading-%d", i)
		data := []byte(fmt.Sprintf("measurement %d", i))
		opts := core.PostOptions{Meta: map[string]string{"type": typ, "sensor": fmt.Sprintf("s%d", i%2)}}
		if typ == "aggregate" {
			opts.Parents = []string{"reading-0"}
		}
		if _, err := client.StoreData(key, data, opts); err != nil {
			return fmt.Errorf("store %s: %w", key, err)
		}
	}
	fmt.Printf("stored %d records as %s\n\n", len(types), client.Subject())

	// Indexed query 1: everything this identity owns (by-owner index).
	mine, err := client.GetMine()
	if err != nil {
		return err
	}
	fmt.Printf("records by owner (by-owner index): %d\n", len(mine))

	// Indexed query 2: records by type (by-type index).
	raws, err := client.GetByType("raw")
	if err != nil {
		return err
	}
	fmt.Printf("records with meta.type=raw (by-type index): %d\n", len(raws))
	for _, r := range raws {
		fmt.Printf("  %-10s sensor=%s ts=%s\n", r.Key, r.Meta["sensor"], r.Timestamp.Format(time.RFC3339))
	}

	// Indexed query 3: time window (by-time index).
	windowed, err := client.GetByTimeRange(start.Add(-time.Minute), start.Add(time.Hour))
	if err != nil {
		return err
	}
	fmt.Printf("records in the last-hour window (by-time index): %d\n", len(windowed))

	// Raw Mango selector through the same engine.
	page, err := client.RichQuery(rawQuery)
	if err != nil {
		return err
	}
	fmt.Printf("\nrich query %s\n-> %d records\n", rawQuery, len(page.Records))
	for _, r := range page.Records {
		fmt.Printf("  %-10s type=%s parents=%v\n", r.Key, r.Meta["type"], r.Parents)
	}
	return nil
}

func run(rpi bool, items, payload int) error {
	cfg := fabric.DesktopConfig()
	label := "desktop (2x Xeon E5-1603, i7-4700MQ, i3-2310M)"
	if rpi {
		cfg = fabric.RPiConfig()
		label = "4x Raspberry Pi 3B+"
	}
	cfg.Batch = orderer.BatchConfig{
		MaxMessageCount: 5, BatchTimeout: 500 * time.Millisecond, PreferredMaxBytes: 8 << 20,
	}
	fmt.Printf("starting HyperProv network: %s, solo orderer\n", label)
	n, err := fabric.NewNetwork(cfg)
	if err != nil {
		return err
	}
	defer n.Stop()
	if err := n.DeployChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return provenance.New() }); err != nil {
		return err
	}
	gw, err := n.NewGateway("cli")
	if err != nil {
		return err
	}
	store := offchain.NewMemStore()
	// Payload checksum and storage transfer are charged to the client's machine.
	client, err := core.New(gw, core.WithStore(gw.MeteredStore(store)))
	if err != nil {
		return err
	}
	fmt.Printf("client identity: %s\n\n", client.Subject())

	// Store a chain of derived items.
	var prev string
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("item-%d", i)
		data := make([]byte, payload)
		for j := range data {
			data[j] = byte(i + j)
		}
		opts := core.PostOptions{Meta: map[string]string{"step": fmt.Sprint(i)}}
		if prev != "" {
			opts.Parents = []string{prev}
		}
		receipt, err := client.StoreData(key, data, opts)
		if err != nil {
			return fmt.Errorf("store %s: %w", key, err)
		}
		fmt.Printf("stored %-8s tx=%s..  block=%d  latency=%v\n",
			key, receipt.TxID[:12], receipt.BlockNum, receipt.Latency.Truncate(time.Millisecond))
		prev = key
	}

	// Trace lineage of the final item.
	last := fmt.Sprintf("item-%d", items-1)
	lineage, err := client.GetLineage(last)
	if err != nil {
		return err
	}
	fmt.Printf("\nlineage of %s (%d records):\n", last, len(lineage))
	for _, rec := range lineage {
		fmt.Printf("  %-8s checksum=%s.. parents=%v\n", rec.Key, rec.Checksum[7:19], rec.Parents)
	}

	// Tamper with the off-chain copy and show detection.
	rec, err := client.Get("item-0")
	if err != nil {
		return err
	}
	if err := store.Corrupt(rec.Location); err != nil {
		return err
	}
	if _, _, err := client.GetData("item-0"); err != nil {
		fmt.Printf("\ntamper check: off-chain copy of item-0 corrupted -> %v\n", err)
	} else {
		return fmt.Errorf("tampering went undetected")
	}

	// Audit every peer's hash chain.
	if err := client.VerifyLedger(); err != nil {
		return err
	}
	stats, err := client.GetStats()
	if err != nil {
		return err
	}
	fmt.Printf("ledger audit: all %d peers verify; %d provenance records on-chain\n",
		len(n.Peers()), stats.Records)

	fmt.Println("\norderer and peer0 counters:")
	if err := n.Orderer().Metrics().WritePrometheus(os.Stdout, "orderer_", nil); err != nil {
		return err
	}
	return n.Peers()[0].Metrics().WritePrometheus(os.Stdout, "peer0_", nil)
}
