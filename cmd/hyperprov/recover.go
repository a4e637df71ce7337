package main

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/peer"
)

// recoverHarness drives one durable peer directly (endorse -> assemble
// block -> commit), standing in for the orderer so the demo controls
// exactly when the "power" goes out.
type recoverHarness struct {
	ca     *identity.CA
	msp    *identity.MSP
	client *identity.SigningIdentity
	seq    int
}

func newRecoverHarness() (*recoverHarness, error) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		return nil, err
	}
	client, err := ca.Enroll("operator", identity.RoleClient)
	if err != nil {
		return nil, err
	}
	return &recoverHarness{ca: ca, msp: identity.NewMSP(ca), client: client}, nil
}

// open opens (or reopens) the durable peer rooted at dir.
func (h *recoverHarness) open(dir string) (*peer.Peer, error) {
	h.seq++
	signer, err := h.ca.Enroll(fmt.Sprintf("peer0-life%d", h.seq), identity.RolePeer)
	if err != nil {
		return nil, err
	}
	host, err := peer.Open(peer.Config{
		Name:            "peer0.org1",
		Signer:          signer,
		MSP:             h.msp,
		Channels:        []string{"hyperprov"},
		Dir:             dir,
		CheckpointEvery: 4,
		SyncEachAppend:  true,
	})
	if err != nil {
		return nil, err
	}
	p := host.Channel("hyperprov")
	if err := p.InstallChaincode(provenance.ChaincodeName, provenance.New(),
		endorser.SignedBy("Org1MSP")); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// commitRecord endorses and commits one provenance record as its own block.
func (h *recoverHarness) commitRecord(p *peer.Peer, key, checksum string) error {
	args, err := json.Marshal(map[string]any{"key": key, "checksum": checksum})
	if err != nil {
		return err
	}
	prop, err := endorser.NewProposal(h.client, "hyperprov", provenance.ChaincodeName, provenance.FnSet, [][]byte{args})
	if err != nil {
		return err
	}
	resp, err := p.ProcessProposal(prop)
	if err != nil {
		return err
	}
	env, err := endorser.NewEnvelope(prop, []*endorser.Response{resp}, h.client)
	if err != nil {
		return err
	}
	p.CommitBlock(blockstore.NewBlock(p.Height(), p.Ledger().LastHash(), []blockstore.Envelope{env}))
	return nil
}

// inspect reports the externally observable ledger view: height, record
// count by rich query, and one record's version history length.
func (h *recoverHarness) inspect(p *peer.Peer, key string) (string, error) {
	query := []byte(`{"selector":{"ts":{"$gt":0}}}`)
	qr, err := p.Query(provenance.ChaincodeName, provenance.FnRichQuery,
		[][]byte{query}, h.client.Serialize())
	if err != nil {
		return "", err
	}
	var page provenance.QueryPage
	if err := json.Unmarshal(qr.Payload, &page); err != nil {
		return "", err
	}
	hr, err := p.Query(provenance.ChaincodeName, provenance.FnGetHistory,
		[][]byte{[]byte(key)}, h.client.Serialize())
	if err != nil {
		return "", err
	}
	var versions []json.RawMessage
	if err := json.Unmarshal(hr.Payload, &versions); err != nil {
		return "", err
	}
	return fmt.Sprintf("height=%d records(indexed query)=%d versions(%s)=%d",
		p.Height(), len(page.Records), key, len(versions)), nil
}

// runRecover is the durable-storage walkthrough: commit, crash, reopen,
// verify, continue.
func runRecover(dir string, blocks int) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "hyperprov-peer-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	h, err := newRecoverHarness()
	if err != nil {
		return err
	}

	fmt.Printf("opening durable peer in %s (checkpoint every 4 blocks, fsync per append)\n", dir)
	p, err := h.open(dir)
	if err != nil {
		return err
	}
	for i := 0; i < blocks; i++ {
		key := fmt.Sprintf("sensor-%d", i%3) // few records, many versions
		if err := h.commitRecord(p, key, fmt.Sprintf("sha256:%04d", i)); err != nil {
			p.Close()
			return err
		}
	}
	before, err := h.inspect(p, "sensor-0")
	if err != nil {
		p.Close()
		return err
	}
	fmt.Printf("committed %d blocks: %s\n", blocks, before)

	fmt.Println("\n-- simulated power loss (no clean shutdown, no final checkpoint) --")
	p.Crash()

	p2, err := h.open(dir)
	if err != nil {
		return err
	}
	info := p2.Recovery()
	fmt.Printf("reopened: restored checkpoint at height %d, replayed %d tail block(s)\n",
		info.CheckpointHeight, info.ReplayedBlocks)
	after, err := h.inspect(p2, "sensor-0")
	if err != nil {
		p2.Close()
		return err
	}
	fmt.Printf("recovered ledger view: %s\n", after)
	if after == before {
		fmt.Println("recovered view MATCHES the pre-crash view")
	} else {
		fmt.Println("WARNING: recovered view differs from pre-crash view")
	}
	if err := p2.Ledger().VerifyChain(); err != nil {
		p2.Close()
		return fmt.Errorf("chain audit after recovery: %w", err)
	}
	fmt.Println("hash-chain audit after recovery: OK")

	// Life goes on: the recovered peer keeps committing.
	if err := h.commitRecord(p2, "sensor-0", "sha256:post-crash"); err != nil {
		p2.Close()
		return err
	}
	fmt.Printf("committed 1 more block after recovery, height now %d\n", p2.Height())
	if err := p2.Close(); err != nil {
		return err
	}
	fmt.Println("clean shutdown: final checkpoint written; next open replays nothing")
	return nil
}
