// IoT pipeline: the paper's motivating edge scenario. Several sensor
// clients on a Raspberry Pi network post readings with provenance; an edge
// gateway derives per-window aggregates whose records cite the raw readings
// as parents; an auditor then traces any aggregate back to its raw inputs,
// detects a tampered off-chain reading, and verifies the ledger.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"time"

	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/fabric"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// reading is one sensor measurement stored off-chain.
type reading struct {
	Sensor string  `json:"sensor"`
	Seq    int     `json:"seq"`
	TempC  float64 `json:"tempC"`
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The paper's edge setup: 4 RPi peers on one switch. A small batch
	// keeps the demo snappy.
	cfg := fabric.RPiConfig()
	cfg.Batch = orderer.BatchConfig{
		MaxMessageCount: 4, BatchTimeout: 300 * time.Millisecond, PreferredMaxBytes: 8 << 20,
	}
	net, err := fabric.NewNetwork(cfg)
	if err != nil {
		return err
	}
	defer net.Stop()
	if err := net.DeployChaincode(provenance.ChaincodeName,
		func() shim.Chaincode { return provenance.New() }); err != nil {
		return err
	}
	store := offchain.NewMemStore()

	// Each sensor is its own enrolled identity, so every reading's record
	// carries the certificate of the device that produced it.
	sensors := make([]*core.Client, 3)
	for i := range sensors {
		gw, err := net.NewGateway(fmt.Sprintf("sensor-%d", i))
		if err != nil {
			return err
		}
		if sensors[i], err = core.New(gw, core.WithStore(store)); err != nil {
			return err
		}
	}
	gwGateway, err := net.NewGateway("edge-gateway")
	if err != nil {
		return err
	}
	gateway, err := core.New(gwGateway, core.WithStore(store))
	if err != nil {
		return err
	}

	// An auditor watches committed provenance events in real time (the
	// event-hub pattern of the paper's client library).
	watch, stop := gateway.Watch()
	defer stop() // an early return must not leave the subscription behind
	var watched int
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for range watch {
			watched++
		}
	}()

	// Phase 1: sensors post readings.
	var readingKeys []string
	for seq := 0; seq < 2; seq++ {
		for i, sensor := range sensors {
			r := reading{Sensor: fmt.Sprintf("sensor-%d", i), Seq: seq,
				TempC: 20 + 2*math.Sin(float64(seq+i))}
			payload, err := json.Marshal(r)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s/reading-%d", r.Sensor, seq)
			if _, err := sensor.StoreData(key, payload, core.PostOptions{
				Meta: map[string]string{"type": "raw", "unit": "°C"},
			}); err != nil {
				return err
			}
			readingKeys = append(readingKeys, key)
			fmt.Printf("posted %s (%.2f °C)\n", key, r.TempC)
		}
	}

	// Phase 2: the gateway derives a window aggregate citing all readings.
	var sum float64
	for _, key := range readingKeys {
		data, _, err := gateway.GetData(key)
		if err != nil {
			return fmt.Errorf("fetch %s: %w", key, err)
		}
		var r reading
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		sum += r.TempC
	}
	avg := sum / float64(len(readingKeys))
	aggPayload, err := json.Marshal(map[string]any{"avgTempC": avg, "n": len(readingKeys)})
	if err != nil {
		return err
	}
	if _, err := gateway.StoreData("window-0/avg", aggPayload, core.PostOptions{
		Parents: readingKeys,
		Meta:    map[string]string{"type": "aggregate", "window": "0"},
	}); err != nil {
		return err
	}
	fmt.Printf("\ngateway derived window-0/avg = %.2f °C from %d readings\n", avg, len(readingKeys))

	// Phase 3: audit. Trace the aggregate's lineage back to raw inputs.
	lineage, err := gateway.GetLineage("window-0/avg")
	if err != nil {
		return err
	}
	fmt.Printf("lineage of window-0/avg: %d records (1 aggregate + %d raw)\n",
		len(lineage), len(lineage)-1)
	for _, rec := range lineage[:3] {
		fmt.Printf("  %-22s by %s\n", rec.Key, rec.Creator)
	}
	fmt.Println("  ...")

	// Phase 4: a raw reading is tampered with off-chain; the checksum
	// stored on the tamper-proof ledger exposes it.
	victim := readingKeys[0]
	rec, err := gateway.Get(victim)
	if err != nil {
		return err
	}
	if err := store.Corrupt(rec.Location); err != nil {
		return err
	}
	if _, _, err := gateway.GetData(victim); err == nil {
		return fmt.Errorf("tampering of %s went undetected", victim)
	}
	fmt.Printf("\ntamper detected on %s: off-chain bytes no longer match on-chain checksum\n", victim)

	if err := gateway.VerifyLedger(); err != nil {
		return err
	}
	fmt.Println("ledger hash chain verified on all 4 RPi peers")

	// Metadata search: find every raw reading; creator search: everything
	// sensor-0 ever posted.
	raw, err := gateway.QueryMeta("type", "raw")
	if err != nil {
		return err
	}
	bySensor0, err := gateway.GetByCreator(sensors[0].Subject())
	if err != nil {
		return err
	}
	fmt.Printf("queries: %d raw readings on-chain; sensor-0 posted %d of them\n",
		len(raw), len(bySensor0))

	net.Stop() // ends the watch stream
	<-watchDone
	fmt.Printf("auditor observed %d committed record events live\n", watched)
	return nil
}
