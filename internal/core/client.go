// Package core is HyperProv itself: the client library that mirrors the
// paper's NodeJS library, hiding the blockchain machinery behind a small
// operator set. Post/Get/GetKeyHistory/CheckTxn work with provenance
// metadata on-chain; StoreData/GetData move the payload to off-chain
// storage, compute its checksum, and bind the two together; lineage
// operators traverse the provenance DAG. Every operator maps onto the
// equivalent operation the paper's §3 lists.
//
// The library reaches the network through the Gateway interface and nothing
// else: it knows no peer, orderer or transport, so the same operators run
// over the in-process gateway and over one served by another machine.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/offchain"
)

// Errors returned by the client.
var (
	ErrNoLocation = errors.New("hyperprov: record has no off-chain location")
	ErrTampered   = errors.New("hyperprov: off-chain data fails checksum verification")
	ErrTxNotFound = errors.New("hyperprov: transaction not found")
)

// Record re-exports the on-chain provenance record type.
type Record = provenance.Record

// HistoryRecord re-exports one historical record version.
type HistoryRecord = provenance.HistoryRecord

// Stats re-exports the contract statistics.
type Stats = provenance.Stats

// PostOptions carries the optional fields of a provenance record.
type PostOptions struct {
	// Location points at the off-chain payload (set automatically by
	// StoreData).
	Location string
	// Parents are the keys of the items this item was derived from.
	Parents []string
	// Meta is free-form domain-specific metadata (the paper's custom
	// field for extensions beyond the Open Provenance Model).
	Meta map[string]string
}

// TxReceipt re-exports the gateway's report of a committed transaction; the
// client stamps its Latency, from before the proposal is signed until the
// commit. A transaction that commits as invalid returns its receipt, with
// the validation code, beside the error.
type TxReceipt = blockstore.TxResult

// Gateway is everything the client library asks of the network: eight calls
// on one identity and one channel, split as the Fabric Gateway splits a
// transaction. The client signs; the gateway only endorses and orders. Which
// peer answers each call is the implementation's decision (*fabric.Gateway
// is the in-process one).
type Gateway interface {
	// Identity signs the transactions and is recorded as their creator.
	Identity() *identity.SigningIdentity
	// ChannelID names the channel every other call is scoped to.
	ChannelID() string
	// Endorse returns the endorsements of a signed proposal that the
	// channel's endorsement policy selects.
	Endorse(prop *endorser.Proposal) ([]*endorser.Response, error)
	// Submit broadcasts a signed envelope and waits for its commit.
	Submit(env blockstore.Envelope) (*blockstore.TxResult, error)
	// Evaluate runs a read-only chaincode query and returns its payload.
	Evaluate(chaincode, fn string, args ...[]byte) ([]byte, error)
	// TxStatus returns a committed transaction's envelope and validation
	// code, or an error wrapping blockstore.ErrTxNotFound.
	TxStatus(txID string) (*blockstore.Envelope, blockstore.ValidationCode, error)
	// AuditChain verifies the hash chain of the channel's ledger copies.
	AuditChain() error
	// Events streams chaincode events of valid commits from now on, in
	// commit order and none dropped; the channel closes on cancel
	// (idempotent) or when the source ends.
	Events() (events <-chan blockstore.ChaincodeEvent, cancel func())
}

// Client is a HyperProv handle bound to one identity on one channel of one
// network.
type Client struct {
	gw    Gateway
	store offchain.Store
}

// Option refines a client at construction time.
type Option func(*Client)

// WithStore attaches the off-chain storage backend, enabling the
// StoreData/GetData operators.
func WithStore(s offchain.Store) Option { return func(c *Client) { c.store = s } }

// New creates a HyperProv client over a gateway, bound to the gateway's
// identity, channel and commit timeout. With no options it has the on-chain
// operators only; see WithStore.
func New(gw Gateway, opts ...Option) (*Client, error) {
	if gw == nil {
		return nil, errors.New("hyperprov: nil gateway")
	}
	c := &Client{gw: gw}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Subject returns the identity string recorded as creator on this client's
// records.
func (c *Client) Subject() string {
	return c.gw.Identity().Identity().Subject()
}

// Channel returns the channel this client is bound to.
func (c *Client) Channel() string { return c.gw.ChannelID() }

// Post writes a provenance record for key with the given checksum. This is
// the metadata-only path: the payload is assumed to live elsewhere.
func (c *Client) Post(key, checksum string, opts PostOptions) (*TxReceipt, error) {
	in := map[string]any{
		"key":      key,
		"checksum": checksum,
		"creator":  c.Subject(),
	}
	if opts.Location != "" {
		in["location"] = opts.Location
	}
	if len(opts.Parents) > 0 {
		in["parents"] = opts.Parents
	}
	if len(opts.Meta) > 0 {
		in["meta"] = opts.Meta
	}
	raw, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("hyperprov: marshal post args: %w", err)
	}
	return c.submit(provenance.FnSet, raw)
}

// submit signs one transaction of the contract as the gateway's identity,
// has the gateway endorse and order it, and stamps the receipt's Latency.
// The gateway's errors come back as they are.
func (c *Client) submit(fn string, args ...[]byte) (*TxReceipt, error) {
	start := time.Now()
	env, err := endorser.Transact(c.gw.Identity(), c.gw.ChannelID(), provenance.ChaincodeName, fn, args, c.gw.Endorse)
	if err != nil {
		return nil, err
	}
	res, err := c.gw.Submit(env)
	if res != nil {
		res.Latency = time.Since(start)
	}
	return res, err
}

// read evaluates fn and decodes its payload. Strings decoded from one
// payload may share one allocation (README, "Read contract"): a caller that
// keeps one record of a large result copies the fields it keeps.
func read[T any](c *Client, decode func([]byte) (T, error), what, fn string, args ...[]byte) (out T, err error) {
	payload, err := c.gw.Evaluate(provenance.ChaincodeName, fn, args...)
	if err != nil {
		return out, err
	}
	if out, err = decode(payload); err != nil {
		err = fmt.Errorf("hyperprov: decode %s: %w", what, err)
	}
	return out, err
}

// records evaluates fn and decodes the JSON record array it answers with.
func (c *Client) records(fn string, args ...[]byte) ([]Record, error) {
	return read(c, provenance.DecodeRecords, "records", fn, args...)
}

// Get returns the latest provenance record for key.
func (c *Client) Get(key string) (*Record, error) {
	return read(c, provenance.DecodeRecord, "record", provenance.FnGet, []byte(key))
}

// GetKeyHistory returns every committed version of key's record, oldest
// first — the paper's operation-history query.
func (c *Client) GetKeyHistory(key string) ([]HistoryRecord, error) {
	return read(c, provenance.DecodeHistory, "history", provenance.FnGetHistory, []byte(key))
}

// GetByChecksum resolves a data checksum to its provenance record.
func (c *Client) GetByChecksum(checksum string) (*Record, error) {
	return read(c, provenance.DecodeRecord, "record", provenance.FnGetByChecksum, []byte(checksum))
}

// GetLineage returns key's record followed by all its ancestors
// (breadth-first over parents).
func (c *Client) GetLineage(key string) ([]Record, error) {
	return c.records(provenance.FnGetLineage, []byte(key))
}

// GetDescendants returns every record transitively derived from key.
func (c *Client) GetDescendants(key string) ([]Record, error) {
	return c.records(provenance.FnGetDescendants, []byte(key))
}

// Delete tombstones key's record (history is preserved on-chain).
func (c *Client) Delete(key string) (*TxReceipt, error) {
	return c.submit(provenance.FnDelete, []byte(key))
}

// GetStats returns contract-level statistics.
func (c *Client) GetStats() (*Stats, error) {
	return read(c, provenance.DecodeStats, "stats", provenance.FnGetStats)
}

// CheckTxn looks up a transaction by id on the ledgers of the client's own
// channel (it operates below the chaincode layer, as in the paper's tooling,
// and never reads a sibling tenant's ledger) and returns its envelope
// timestamp, block number, and validation status.
func (c *Client) CheckTxn(txID string) (*TxStatus, error) {
	env, code, err := c.gw.TxStatus(txID)
	if errors.Is(err, blockstore.ErrTxNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrTxNotFound, txID)
	}
	if err != nil {
		return nil, err
	}
	return &TxStatus{
		TxID:      txID,
		Valid:     code == blockstore.TxValid,
		Code:      code.String(),
		Timestamp: env.Timestamp,
		Function:  env.Function,
	}, nil
}

// TxStatus is the result of CheckTxn.
type TxStatus struct {
	TxID      string
	Valid     bool
	Code      string
	Timestamp time.Time
	Function  string
}

// StoreData is the paper's flagship operator: it uploads data to off-chain
// storage, computes the SHA-256 checksum (the client-side cost that grows
// with payload size in Figs 1–2), and posts the binding provenance record.
func (c *Client) StoreData(key string, data []byte, opts PostOptions) (*TxReceipt, error) {
	if c.store == nil {
		return nil, errors.New("hyperprov: no off-chain store configured")
	}
	checksum := offchain.Checksum(data)
	ref, err := c.store.Put(data)
	if err != nil {
		return nil, fmt.Errorf("hyperprov: off-chain put: %w", err)
	}
	opts.Location = ref
	return c.Post(key, checksum, opts)
}

// GetData fetches key's record, downloads the off-chain payload, and
// verifies it against the on-chain checksum, returning both. A checksum
// mismatch means the off-chain copy was tampered with.
func (c *Client) GetData(key string) ([]byte, *Record, error) {
	if c.store == nil {
		return nil, nil, errors.New("hyperprov: no off-chain store configured")
	}
	rec, err := c.Get(key)
	if err != nil {
		return nil, nil, err
	}
	if rec.Location == "" {
		return nil, rec, ErrNoLocation
	}
	data, err := c.store.Get(rec.Location)
	if err != nil {
		if errors.Is(err, offchain.ErrChecksumMismatch) {
			return nil, rec, ErrTampered
		}
		return nil, rec, fmt.Errorf("hyperprov: off-chain get: %w", err)
	}
	if err := offchain.VerifyChecksum(data, rec.Checksum); err != nil {
		return nil, rec, ErrTampered
	}
	return data, rec, nil
}

// VerifyLedger audits the hash chain of the copies of the client's channel
// ledger (in process: every peer's).
func (c *Client) VerifyLedger() error {
	if err := c.gw.AuditChain(); err != nil {
		return fmt.Errorf("hyperprov: %w", err)
	}
	return nil
}
