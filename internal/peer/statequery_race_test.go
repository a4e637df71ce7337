package peer

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// TestReadsAndRichQueriesDuringCommit hammers the state layer the
// way a loaded peer does: one goroutine drives endorse->commit cycles
// through the pipelined committer while others continuously serve
// endorsement reads (snapshot views) and rich queries (index-served plus
// snapshot scans). Every read must succeed and observe a committed record
// in full — the proof, under -race, that Peer.Query and ProcessProposal no
// longer funnel through a global state lock the committer holds.
func TestReadsAndRichQueriesDuringCommit(t *testing.T) {
	f := newFixture(t)
	// Seed a few records so readers always have something committed.
	for i := 0; i < 4; i++ {
		if code := f.set(fmt.Sprintf("seed-%d", i), fmt.Sprintf("sha256:%d", i)); code != blockstore.TxValid {
			t.Fatalf("seed %d: validation = %s", i, code)
		}
	}

	// Pre-sign read proposals on the test goroutine (helpers may t.Fatal).
	readProps := make([]*endorser.Proposal, 4)
	for i := range readProps {
		readProps[i] = f.propose(provenance.FnGet, fmt.Sprintf("seed-%d", i))
	}
	creator := f.client.Serialize()
	query := []byte(`{"selector":{"checksum":{"$regex":"sha256"}},"sort":["key"]}`)

	stop := make(chan struct{})
	var failures atomic.Int64
	var reads, queries atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	var wg sync.WaitGroup
	// Endorsement readers: each simulation reads through a snapshot view.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				prop := readProps[(w+i)%len(readProps)]
				resp, err := f.peer.ProcessProposal(prop)
				if err != nil {
					fail("endorsement read: %v", err)
					return
				}
				if resp.Status != shim.OK {
					fail("endorsement read status = %d", resp.Status)
					return
				}
				reads.Add(1)
			}
		}(w)
	}
	// Rich-query readers: Peer.Query syncs the watermark, then scans.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				qr, err := f.peer.Query(provenance.ChaincodeName, provenance.FnRichQuery,
					[][]byte{query}, creator)
				if err != nil || qr.Status != shim.OK {
					fail("rich query: status=%d err=%v", qr.Status, err)
					return
				}
				var page struct {
					Records []json.RawMessage `json:"records"`
				}
				if err := json.Unmarshal(qr.Payload, &page); err != nil {
					fail("rich query payload: %v", err)
					return
				}
				if len(page.Records) < 4 {
					fail("rich query saw %d records, want >= 4 seeds", len(page.Records))
					return
				}
				queries.Add(1)
			}
		}()
	}

	// Writer: full endorse->commit cycles through the pipelined committer.
	// At least `blocks` commits, then keep the committer busy until every
	// reader kind has finished at least one iteration — on a single-CPU
	// runtime the reader goroutines may not be scheduled before the first
	// 25 commits drain, and the point of the test is reads completing
	// while commits flow. maxBlocks bounds the wait; the concurrency
	// assertion below catches a genuinely starved reader.
	const blocks, maxBlocks = 25, 2000
	lastBlock := 0
	for i := 0; failures.Load() == 0; i++ {
		if i >= blocks && reads.Load() > 0 && queries.Load() > 0 {
			break
		}
		if i >= maxBlocks {
			break
		}
		if code := f.set(fmt.Sprintf("live-%d", i), fmt.Sprintf("sha256:live%d", i)); code != blockstore.TxValid {
			t.Fatalf("live set %d: validation = %s", i, code)
		}
		lastBlock = i
	}
	close(stop)
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d concurrent reads failed", failures.Load())
	}
	if reads.Load() == 0 || queries.Load() == 0 {
		t.Fatalf("no concurrency: %d endorsement reads, %d rich queries", reads.Load(), queries.Load())
	}
	// The world must still be exactly the committed one.
	qr, err := f.peer.Query(provenance.ChaincodeName, provenance.FnGet,
		[][]byte{[]byte(fmt.Sprintf("live-%d", lastBlock))}, creator)
	if err != nil || qr.Status != shim.OK {
		t.Fatalf("final read: status=%d err=%v", qr.Status, err)
	}
}
