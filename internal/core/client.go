// Package core is HyperProv itself: the client library that mirrors the
// paper's NodeJS library, hiding the blockchain machinery behind a small
// operator set. Post/Get/GetKeyHistory/CheckTxn work with provenance
// metadata on-chain; StoreData/GetData move the payload to off-chain
// storage, compute its checksum, and bind the two together; lineage
// operators traverse the provenance DAG. Every operator maps onto the
// equivalent operation the paper's §3 lists.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/fabric"
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

// TxReceipt reports a committed provenance transaction.
type TxReceipt struct {
	TxID     string
	BlockNum uint64
	// Latency is the submit-to-commit wall time (scaled if the network
	// clock is scaled).
	Latency time.Duration
}

// Client is a HyperProv handle bound to one identity on one channel of one
// network.
type Client struct {
	gw    *fabric.Gateway
	store offchain.Store
}

// Option refines a client at construction time.
type Option func(*options)

type options struct {
	store offchain.Store
}

// WithStore attaches the off-chain storage backend, enabling the
// StoreData/GetData operators.
func WithStore(s offchain.Store) Option { return func(o *options) { o.store = s } }

// New creates a HyperProv client over a fabric gateway, bound to the
// gateway's channel and commit timeout. With no options it has the on-chain
// operators only; see WithStore.
func New(gw *fabric.Gateway, opts ...Option) (*Client, error) {
	if gw == nil {
		return nil, errors.New("hyperprov: nil gateway")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &Client{gw: gw, store: o.store}, nil
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
	res, err := c.gw.Submit(provenance.ChaincodeName, provenance.FnSet, raw)
	if err != nil {
		return nil, err
	}
	return &TxReceipt{TxID: res.TxID, BlockNum: res.BlockNum, Latency: res.Latency}, nil
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
	res, err := c.gw.Submit(provenance.ChaincodeName, provenance.FnDelete, []byte(key))
	if err != nil {
		return nil, err
	}
	return &TxReceipt{TxID: res.TxID, BlockNum: res.BlockNum, Latency: res.Latency}, nil
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
	for _, p := range c.gw.Channel().Peers() {
		env, code, err := p.Ledger().GetTx(txID)
		if err != nil {
			continue
		}
		return &TxStatus{
			TxID:      txID,
			Valid:     code == blockstore.TxValid,
			Code:      code.String(),
			Timestamp: env.Timestamp,
			Function:  env.Function,
		}, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrTxNotFound, txID)
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
	// Model the client-side costs: checksum on the CPU, then the SSHFS
	// upload to the storage node. These two terms grow with payload size
	// and dominate the large-payload points of Figs 1–2.
	exec := c.gw.Executor()
	exec.Hash(len(data))
	exec.StoreTransfer(len(data))
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
	exec := c.gw.Executor()
	exec.StoreTransfer(len(data))
	exec.Hash(len(data))
	if err := offchain.VerifyChecksum(data, rec.Checksum); err != nil {
		return nil, rec, ErrTampered
	}
	return data, rec, nil
}

// VerifyLedger audits the hash chain of every peer's copy of the client's
// channel ledger.
func (c *Client) VerifyLedger() error {
	for _, p := range c.gw.Channel().Peers() {
		if err := p.Ledger().VerifyChain(); err != nil {
			return fmt.Errorf("hyperprov: %s: %w", p.Name(), err)
		}
	}
	return nil
}
