package committer

import (
	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/shim"
)

// PolicyFunc resolves a chaincode name to its endorsement policy. ok is
// false for unknown chaincodes. Implementations must be safe for
// concurrent use.
type PolicyFunc func(chaincode string) (endorser.Policy, bool)

// EnvelopeVerifier is the stage-1 validator: rwset syntax, creator
// signature, and endorsement policy — every check that does not depend on
// world-state versions and therefore parallelizes across a block's
// transactions. It is safe for concurrent use; the peer plugs one into its
// commit pipeline, and the benchmark drives one directly.
type EnvelopeVerifier struct {
	// MSP resolves and verifies creator and endorser identities.
	MSP *identity.MSP
	// Policy resolves chaincode endorsement policies.
	Policy PolicyFunc
	// Exec, when set, charges the modeled per-operation hardware cost of
	// validation: signature verifications, and the fixed per-transaction
	// commit overhead. The executor's core semaphore is what lets parallel
	// workers model — and on real hardware, use — multiple cores.
	Exec *device.Executor
}

var _ Verifier = (*EnvelopeVerifier)(nil)

// Prevalidate runs the version-independent validation pipeline for one
// transaction. It also charges the modeled per-transaction commit cost
// (device.Profile.CommitOverhead), once per envelope whatever its verdict:
// the sequential MVCC walk costs microseconds on the real clock, and stage
// 1's worker pool is where the modeled cores are.
func (v *EnvelopeVerifier) Prevalidate(env *blockstore.Envelope) PrevalResult {
	v.Exec.Commit()
	code, rws := v.prevalidate(env)
	return PrevalResult{Code: code, RWSet: rws}
}

func (v *EnvelopeVerifier) prevalidate(env *blockstore.Envelope) (blockstore.ValidationCode, *rwset.ReadWriteSet) {
	// 1. Syntax: the rwset must parse.
	rws, err := rwset.Unmarshal(env.RWSet)
	if err != nil {
		return blockstore.TxMalformed, nil
	}
	// 2. Creator signature. Verification consults the MSP's signature
	// cache, so re-validating a signature this process already checked —
	// the gateway's client-side check, gossip redelivery of a committed
	// block — costs a hash lookup; the modeled hardware charge fires only
	// on real ECDSA work (cache misses).
	clientID, err := v.MSP.Deserialize(env.Creator)
	if err != nil {
		return blockstore.TxBadSignature, rws
	}
	onMiss := func() { v.Exec.Verify() }
	if err := clientID.VerifyCached(v.MSP.VerifyCache(), env.SignedDigest(), env.Signature, onMiss); err != nil {
		return blockstore.TxBadSignature, rws
	}
	// 3. Endorsement policy (VSCC).
	policy, ok := v.Policy(env.Chaincode)
	if !ok {
		return blockstore.TxMalformed, rws
	}
	// The reconstructed responses share one backing slice instead of being
	// a heap object each.
	backing := make([]endorser.Response, len(env.Endorsements))
	resps := make([]*endorser.Response, len(env.Endorsements))
	for j, e := range env.Endorsements {
		resps[j] = &backing[j]
		backing[j] = endorser.Response{
			TxID:      env.TxID,
			Status:    shim.OK,
			Payload:   env.Response,
			RWSet:     env.RWSet,
			Events:    env.Events,
			Endorser:  e.Endorser,
			Signature: e.Signature,
		}
	}
	if err := endorser.CheckEndorsementsFunc(policy, v.MSP, resps, onMiss); err != nil {
		return blockstore.TxEndorsementPolicyFailure, rws
	}
	return blockstore.TxValid, rws
}
