package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// This file holds the signed block-stream fixture of the committer-level
// experiment (channels): real ECDSA P-256 identities, a verifier charged
// against a modeled device, and chained blocks of fully signed
// transactions.

// commitFixture holds the identities a signed block stream needs.
type commitFixture struct {
	msp      *identity.MSP
	client   *identity.SigningIdentity
	endorser *identity.SigningIdentity
	policy   endorser.Policy
}

func newCommitFixture() (*commitFixture, error) {
	ca, err := identity.NewCA("Org1")
	if err != nil {
		return nil, err
	}
	client, err := ca.Enroll("bench-client", identity.RoleClient)
	if err != nil {
		return nil, err
	}
	peerID, err := ca.Enroll("bench-peer", identity.RolePeer)
	if err != nil {
		return nil, err
	}
	return &commitFixture{
		msp:      identity.NewMSP(ca),
		client:   client,
		endorser: peerID,
		policy:   endorser.SignedBy("Org1MSP"),
	}, nil
}

func (f *commitFixture) verifier(exec *device.Executor) committer.Verifier {
	return &committer.EnvelopeVerifier{
		MSP:    f.msp,
		Policy: func(string) (endorser.Policy, bool) { return f.policy, true },
		Exec:   exec,
	}
}

// buildStream assembles `blocks` chained blocks of `blockSize` fully signed
// transactions, each writing writesPerTx unique JSON documents — the block
// stream a peer under sustained provenance load commits.
func (f *commitFixture) buildStream(blocks, blockSize, writesPerTx int) ([]*blockstore.Block, error) {
	out := make([]*blockstore.Block, 0, blocks)
	var prev []byte
	tx := 0
	for bn := 0; bn < blocks; bn++ {
		envs := make([]blockstore.Envelope, blockSize)
		for i := range envs {
			rws := &rwset.ReadWriteSet{}
			for w := 0; w < writesPerTx; w++ {
				key := fmt.Sprintf("item-%07d-%d", tx, w)
				doc, err := json.Marshal(map[string]any{
					"key":      key,
					"checksum": fmt.Sprintf("sha256:%07d", tx),
					"owner":    "x509::CN=bench-client,O=Org1",
					"ts":       1700000000000 + int64(tx),
				})
				if err != nil {
					return nil, err
				}
				rws.Writes = append(rws.Writes, rwset.Write{Key: key, Value: doc})
			}
			env, err := f.envelope(fmt.Sprintf("tx-%07d", tx), rws)
			if err != nil {
				return nil, err
			}
			envs[i] = env
			tx++
		}
		b, err := blockstore.NewBlock(uint64(bn), prev, envs)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		prev = b.Header.Hash()
	}
	return out, nil
}

func (f *commitFixture) envelope(txID string, rws *rwset.ReadWriteSet) (blockstore.Envelope, error) {
	rwsBytes, err := rws.Marshal()
	if err != nil {
		return blockstore.Envelope{}, err
	}
	resp := &endorser.Response{
		TxID:     txID,
		Status:   shim.OK,
		RWSet:    rwsBytes,
		Endorser: f.endorser.Serialize(),
	}
	endSig, err := f.endorser.Sign(resp.SignedBytes())
	if err != nil {
		return blockstore.Envelope{}, err
	}
	env := blockstore.Envelope{
		TxID:      txID,
		ChannelID: "bench",
		Chaincode: "bench",
		Function:  "set",
		Creator:   f.client.Serialize(),
		Timestamp: time.Unix(1700000000, 0).UTC(),
		RWSet:     rwsBytes,
		Endorsements: []blockstore.Endorsement{
			{Endorser: resp.Endorser, Signature: endSig},
		},
	}
	sig, err := f.client.Sign(env.SignedBytes())
	if err != nil {
		return blockstore.Envelope{}, err
	}
	env.Signature = sig
	return env, nil
}
