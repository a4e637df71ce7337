// Package endorser defines the proposal/response wire types and the
// endorsement-policy engine of the execute–order–validate pipeline. A client
// signs a proposal and its envelope through Transact and nowhere else; peers
// simulate the chaincode and sign the resulting read/write set; the policy
// engine picks the endorsements that satisfy the channel's endorsement
// policy at submission time (SelectEndorsements) and checks every
// endorsement a transaction carries at validation time (CheckEndorsements,
// the VSCC).
package endorser

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/identity"
)

// Errors returned by this package.
var (
	ErrPolicyNotSatisfied = errors.New("endorser: endorsement policy not satisfied")
	ErrResponseMismatch   = errors.New("endorser: endorsing peers returned divergent results")
)

// Signing-preimage magics: proposals and responses sign over canonical
// binary preimages (internal/codec layout), domain-separated by magic so a
// signature over one structure can never validate as the other.
var (
	proposalMagic = []byte("HPPR")
	responseMagic = []byte("HPRS")
)

// preimageVersion is the version byte embedded in both preimages; bumping
// it invalidates old signatures by construction.
const preimageVersion = 1

// Proposal is a client's signed request to simulate a chaincode invocation.
type Proposal struct {
	TxID      string
	ChannelID string
	Chaincode string
	Function  string
	Args      [][]byte
	Creator   []byte // serialized identity
	Timestamp time.Time
	Signature []byte
}

// SignedBytes returns the bytes covered by the proposal signature: the
// canonical binary preimage of every field except the signature itself.
func (p *Proposal) SignedBytes() []byte {
	size := len(proposalMagic) + 1 + codec.SizeUvarint(uint64(len(p.Args))) + codec.SizeTime(p.Timestamp) +
		codec.SizeBytes(len(p.TxID)) + codec.SizeBytes(len(p.ChannelID)) +
		codec.SizeBytes(len(p.Chaincode)) + codec.SizeBytes(len(p.Function)) +
		codec.SizeBytes(len(p.Creator))
	for _, a := range p.Args {
		size += codec.SizeBytes(len(a))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, proposalMagic...)
	buf = append(buf, preimageVersion)
	buf = codec.AppendString(buf, p.TxID)
	buf = codec.AppendString(buf, p.ChannelID)
	buf = codec.AppendString(buf, p.Chaincode)
	buf = codec.AppendString(buf, p.Function)
	buf = codec.AppendUvarint(buf, uint64(len(p.Args)))
	for _, a := range p.Args {
		buf = codec.AppendBytes(buf, a)
	}
	buf = codec.AppendBytes(buf, p.Creator)
	return codec.AppendTime(buf, p.Timestamp)
}

// SignedDigest returns sha256(SignedBytes()) without building the preimage:
// the fields stream into the hash in SignedBytes' layout. It is what signers
// sign and verifiers check; SignedBytes stays as the layout's definition.
func (p *Proposal) SignedDigest() [sha256.Size]byte {
	h := codec.NewHasher()
	h.Raw(proposalMagic)
	h.Byte(preimageVersion)
	h.String(p.TxID)
	h.String(p.ChannelID)
	h.String(p.Chaincode)
	h.String(p.Function)
	h.Uvarint(uint64(len(p.Args)))
	for _, a := range p.Args {
		h.Bytes(a)
	}
	h.Bytes(p.Creator)
	h.Time(p.Timestamp)
	return h.Sum()
}

// NewTxID derives a transaction id from the creator identity and a random
// nonce, as Fabric does (sha256(nonce || creator)).
func NewTxID(creator []byte) (string, error) {
	nonce := make([]byte, 24)
	if _, err := rand.Read(nonce); err != nil {
		return "", fmt.Errorf("endorser: txid nonce: %w", err)
	}
	h := sha256.New()
	h.Write(nonce)
	h.Write(creator)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Transact is the client's half of a transaction: it signs a proposal to
// invoke fn on chaincode as signer, hands it to endorse, and signs the
// envelope over the endorsements endorse returns (its error comes back as it
// is).
func Transact(signer *identity.SigningIdentity, channelID, chaincode, fn string, args [][]byte,
	endorse func(*Proposal) ([]*Response, error)) (blockstore.Envelope, error) {
	prop, err := newProposal(signer, channelID, chaincode, fn, args)
	if err != nil {
		return blockstore.Envelope{}, err
	}
	resps, err := endorse(prop)
	if err != nil {
		return blockstore.Envelope{}, err
	}
	return newEnvelope(prop, resps, signer)
}

// newProposal builds and signs a proposal to invoke fn on chaincode as
// signer, under a fresh transaction ID and the current time.
func newProposal(signer *identity.SigningIdentity, channelID, chaincode, fn string, args [][]byte) (*Proposal, error) {
	creator := signer.Serialize()
	txID, err := NewTxID(creator)
	if err != nil {
		return nil, err
	}
	prop := &Proposal{
		TxID:      txID,
		ChannelID: channelID,
		Chaincode: chaincode,
		Function:  fn,
		Args:      args,
		Creator:   creator,
		Timestamp: time.Now().UTC(),
	}
	if prop.Signature, err = signer.SignDigest(prop.SignedDigest()); err != nil {
		return nil, fmt.Errorf("endorser: sign proposal: %w", err)
	}
	return prop, nil
}

// Response is one peer's endorsement of a simulated proposal.
type Response struct {
	TxID      string
	Status    int32
	Message   string
	Payload   []byte
	RWSet     []byte
	Events    []byte
	Endorser  []byte // serialized identity of the peer
	Signature []byte
}

// SignedBytes returns the bytes the endorsing peer signs: the canonical
// binary preimage of everything except the signature, so that all correct
// endorsers of the same simulation sign identical bytes apart from their
// own identity binding (identity is included to prevent transplanting).
func (r *Response) SignedBytes() []byte {
	size := len(responseMagic) + 1 + codec.SizeVarint(int64(r.Status)) +
		codec.SizeBytes(len(r.TxID)) + codec.SizeBytes(len(r.Message)) +
		codec.SizeBytes(len(r.Payload)) + codec.SizeBytes(len(r.RWSet)) +
		codec.SizeBytes(len(r.Events)) + codec.SizeBytes(len(r.Endorser))
	buf := make([]byte, 0, size)
	buf = append(buf, responseMagic...)
	buf = append(buf, preimageVersion)
	buf = codec.AppendString(buf, r.TxID)
	buf = codec.AppendVarint(buf, int64(r.Status))
	buf = codec.AppendString(buf, r.Message)
	buf = codec.AppendBytes(buf, r.Payload)
	buf = codec.AppendBytes(buf, r.RWSet)
	buf = codec.AppendBytes(buf, r.Events)
	return codec.AppendBytes(buf, r.Endorser)
}

// SignedDigest returns sha256(SignedBytes()) without building the preimage
// (see Proposal.SignedDigest): an endorsement is verified by the gateway and
// again by every committing peer, and its preimage repeats the rwset each
// time.
func (r *Response) SignedDigest() [sha256.Size]byte {
	h := codec.NewHasher()
	h.Raw(responseMagic)
	h.Byte(preimageVersion)
	h.String(r.TxID)
	h.Varint(int64(r.Status))
	h.String(r.Message)
	h.Bytes(r.Payload)
	h.Bytes(r.RWSet)
	h.Bytes(r.Events)
	h.Bytes(r.Endorser)
	return h.Sum()
}

// verifyCached checks the endorsement signature under the endorser the MSP
// resolves, and returns it. A triple in the MSP's shared signature cache
// (the gateway checked it, commit re-checks it) skips the ECDSA work.
func (r *Response) verifyCached(msp *identity.MSP, onMiss func()) (*identity.Identity, error) {
	id, err := msp.Deserialize(r.Endorser)
	if err != nil {
		return nil, fmt.Errorf("endorser: resolve endorser: %w", err)
	}
	if err := id.VerifyCached(msp.VerifyCache(), r.SignedDigest(), r.Signature, onMiss); err != nil {
		return nil, fmt.Errorf("endorser: endorsement signature: %w", err)
	}
	return id, nil
}

// newEnvelope assembles the transaction prop's endorsers agreed on — the
// first response's simulation result under every response's endorsement —
// and signs and seals it as signer. resps must be non-empty and consistent
// (see SelectEndorsements). One encoding serves the signature and the rest
// of the envelope's life: block assembly, data hash, gossip and ledger
// append reuse it.
func newEnvelope(prop *Proposal, resps []*Response, signer *identity.SigningIdentity) (blockstore.Envelope, error) {
	env := blockstore.Envelope{
		TxID:         prop.TxID,
		ChannelID:    prop.ChannelID,
		Chaincode:    prop.Chaincode,
		Function:     prop.Function,
		Args:         prop.Args,
		Creator:      prop.Creator,
		Timestamp:    prop.Timestamp,
		RWSet:        resps[0].RWSet,
		Response:     resps[0].Payload,
		Events:       resps[0].Events,
		Endorsements: make([]blockstore.Endorsement, len(resps)),
	}
	for i, r := range resps {
		env.Endorsements[i] = blockstore.Endorsement{Endorser: r.Endorser, Signature: r.Signature}
	}
	if err := env.SealSigned(signer.SignDigest); err != nil {
		return blockstore.Envelope{}, fmt.Errorf("endorser: sign envelope: %w", err)
	}
	return env, nil
}

// Policy is an endorsement policy over organization MSP IDs.
type Policy interface {
	// Evaluate reports whether the given set of endorsing orgs satisfies
	// the policy. The slice may contain duplicates; evaluation considers
	// distinct orgs.
	Evaluate(orgs []string) bool
	// String renders the policy in Fabric's textual form.
	String() string
}

type signedBy struct{ mspID string }

// SignedBy requires an endorsement from the given org's MSP.
func SignedBy(mspID string) Policy { return signedBy{mspID: mspID} }

func (p signedBy) Evaluate(orgs []string) bool {
	for _, o := range orgs {
		if o == p.mspID {
			return true
		}
	}
	return false
}

func (p signedBy) String() string { return fmt.Sprintf("SignedBy(%q)", p.mspID) }

type outOf struct {
	n    int
	subs []Policy
}

// OutOf requires at least n of the sub-policies to be satisfied.
func OutOf(n int, subs ...Policy) Policy { return outOf{n: n, subs: subs} }

// And requires all sub-policies.
func And(subs ...Policy) Policy { return outOf{n: len(subs), subs: subs} }

// Or requires any sub-policy.
func Or(subs ...Policy) Policy { return outOf{n: 1, subs: subs} }

func (p outOf) Evaluate(orgs []string) bool {
	if p.n <= 0 {
		return true
	}
	satisfied := 0
	for _, sub := range p.subs {
		if sub.Evaluate(orgs) {
			satisfied++
			if satisfied >= p.n {
				return true
			}
		}
	}
	return false
}

func (p outOf) String() string {
	s := fmt.Sprintf("OutOf(%d", p.n)
	for _, sub := range p.subs {
		s += ", " + sub.String()
	}
	return s + ")"
}

// AnyOrg builds the policy "any single member of the listed orgs", the
// default for the paper's single-org style deployment.
func AnyOrg(orgs []string) Policy {
	subs := make([]Policy, len(orgs))
	for i, o := range orgs {
		subs[i] = SignedBy(o + "MSP")
	}
	return Or(subs...)
}

// MajorityOrgs builds the policy "majority of the listed orgs".
func MajorityOrgs(orgs []string) Policy {
	subs := make([]Policy, len(orgs))
	for i, o := range orgs {
		subs[i] = SignedBy(o + "MSP")
	}
	return OutOf(len(orgs)/2+1, subs...)
}

// Digest binds the response's simulated effect (rwset plus payload); all
// correct endorsers of one proposal produce the same digest. Each field is
// length-prefixed before hashing, so two results that split the same bytes
// differently between rwset and payload do not collide.
func (r *Response) Digest() [sha256.Size]byte {
	return codec.HashFields(r.RWSet, r.Payload)
}

// sameResult reports whether r and o carry the same simulated effect — what
// equal Digests mean, decided on the bytes themselves.
func (r *Response) sameResult(o *Response) bool {
	return bytes.Equal(r.RWSet, o.RWSet) && bytes.Equal(r.Payload, o.Payload)
}

// CheckEndorsements verifies every endorsement signature, checks that all
// endorsements agree on the simulated result (divergent simulation means a
// non-deterministic chaincode or a byzantine peer), and evaluates the policy
// over the endorsing orgs.
func CheckEndorsements(policy Policy, msp *identity.MSP, responses []*Response) error {
	return CheckEndorsementsFunc(policy, msp, responses, nil)
}

// CheckEndorsementsFunc is CheckEndorsements with a charge hook: onMiss runs
// once for each signature that was NOT already in the MSP's verification
// cache, immediately before the real ECDSA check. Callers use it to charge
// modeled verification hardware only for work that actually happens — a
// warm cache validates an entire block without a single charge.
//
// The function touches no shared mutable state beyond the MSP's internal
// read-locking, so the committing peer's pre-validation stage may call it
// for many transactions concurrently.
func CheckEndorsementsFunc(policy Policy, msp *identity.MSP, responses []*Response, onMiss func()) error {
	if len(responses) == 0 {
		return fmt.Errorf("%w: no endorsements", ErrPolicyNotSatisfied)
	}
	orgs := make([]string, 0, len(responses))
	for _, r := range responses {
		id, err := r.verifyCached(msp, onMiss)
		if err != nil {
			return err
		}
		if !r.sameResult(responses[0]) {
			return ErrResponseMismatch
		}
		orgs = append(orgs, id.MSPID())
	}
	if !policy.Evaluate(orgs) {
		return fmt.Errorf("%w: have %v, need %s", ErrPolicyNotSatisfied, orgs, policy)
	}
	return nil
}

// SelectEndorsements is the submit-time counterpart of CheckEndorsementsFunc:
// it picks from group, in order, the endorsements an envelope needs and
// verifies only those. An endorsement is skipped when its endorser does not
// resolve through msp, when an earlier pick already covers its org (policies
// are org-level SignedBy / OutOf, so a second endorser of one org adds
// nothing), or when its signature fails. The picks are returned as soon as
// policy holds over their orgs; ErrPolicyNotSatisfied if group runs out
// first, ErrResponseMismatch if any response's result differs from the
// first's. onMiss is CheckEndorsementsFunc's charge hook.
func SelectEndorsements(policy Policy, msp *identity.MSP, group []*Response, onMiss func()) ([]*Response, error) {
	for _, r := range group {
		if !r.sameResult(group[0]) {
			return nil, ErrResponseMismatch
		}
	}
	var picked []*Response
	var orgs []string
	for _, r := range group {
		id, err := msp.Deserialize(r.Endorser)
		if err != nil || slices.Contains(orgs, id.MSPID()) ||
			id.VerifyCached(msp.VerifyCache(), r.SignedDigest(), r.Signature, onMiss) != nil {
			continue
		}
		picked, orgs = append(picked, r), append(orgs, id.MSPID())
		if policy.Evaluate(orgs) {
			return picked, nil
		}
	}
	return nil, fmt.Errorf("%w: have %v, need %s", ErrPolicyNotSatisfied, orgs, policy)
}
