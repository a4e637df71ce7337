// Package shim is the chaincode programming interface — the analog of
// Fabric's chaincode shim. Chaincode (such as HyperProv's provenance
// contract) is written against the Stub, which serves reads from the peer's
// committed state. An endorsement's stub records the read/write set the
// endorsement returns to the client; a query's stub records no reads.
//
// GetState returns the caller's own copy of a value. GetStateView, and the
// KVs of the range, composite-key and rich-query reads, return the stored
// bytes themselves: they alias committed state (or the simulation's pending
// write), stay valid for the life of the simulation, and must never be
// written to.
package shim

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// Chaincode is implemented by every smart contract deployed to a channel.
type Chaincode interface {
	// Init is invoked once when the chaincode is instantiated.
	Init(stub *Stub) Response
	// Invoke dispatches a transaction or query.
	Invoke(stub *Stub) Response
}

// Response is the chaincode's result for one invocation.
type Response struct {
	Status  int32  `json:"status"`
	Message string `json:"message,omitempty"`
	Payload []byte `json:"payload,omitempty"`
}

// Response status codes (aligned with Fabric's shim).
const (
	OK    int32 = 200
	Error int32 = 500
)

// Success builds a 200 response carrying payload.
func Success(payload []byte) Response { return Response{Status: OK, Payload: payload} }

// Errorf builds a 500 response with a formatted message.
func Errorf(format string, args ...any) Response {
	return Response{Status: Error, Message: fmt.Sprintf(format, args...)}
}

// ErrWrongArgCount is returned by chaincode helpers validating arguments.
var ErrWrongArgCount = errors.New("shim: wrong argument count")

// Event is a chaincode event emitted during simulation; committed events
// are delivered to subscribed clients alongside the commit notification.
type Event struct {
	Name    string `json:"name"`
	Payload []byte `json:"payload"`
}

// HistoryEntry is one version of a key, as returned by GetHistoryForKey.
type HistoryEntry = historydb.Entry

// ClientIdentity is the submitting client as the peer resolved it through its
// MSP (the analog of Fabric's client-identity library): chaincode reads it
// instead of parsing the creator certificate itself.
type ClientIdentity struct {
	// Subject is the canonical creator string recorded on records
	// (identity.Identity.Subject).
	Subject string
	// Admin reports whether the certificate carries the admin role.
	Admin bool
}

// Stub gives one chaincode invocation access to ledger state, identity, and
// transaction context. It stages writes into an rwset and, unless it serves
// a query, records every read there too. GetState copies what it reads; the
// values GetStateView and the range and query reads return alias the store
// for the life of the simulation and are read-only.
type Stub struct {
	txID      string
	channelID string
	fn        string
	args      [][]byte
	creator   []byte
	client    func() ClientIdentity
	timestamp time.Time

	state   statedb.StateReader
	history *historydb.DB
	builder *rwset.Builder
	query   bool
	events  []Event
}

// Config carries everything needed to construct a Stub. State is any
// read surface: a live state database, or — as the peer passes for
// endorsement and queries — a height-stamped statedb.Snapshot, so one
// simulation's reads, rich queries included, see a consistent world no
// concurrent commit can shear.
type Config struct {
	TxID      string
	ChannelID string
	Function  string
	Args      [][]byte
	Creator   []byte
	// Client yields the identity the peer's MSP resolves Creator to, asked
	// only when the chaincode consults it (reads never do). Nil, or a zero
	// result, when Creator is not a serialized identity the MSP resolves
	// (direct-drive tests): the stub then presents the creator bytes
	// verbatim.
	Client    func() ClientIdentity
	Timestamp time.Time
	State     statedb.StateReader
	History   *historydb.DB
	// Query marks a read-only invocation: the stub records no reads, range
	// reads or query reads, but still stages writes the chaincode reads back.
	// The zero value records them all, as an endorsement must; Peer.Query
	// alone sets it.
	Query bool
}

// NewStub builds a stub for one simulation.
func NewStub(cfg Config) *Stub {
	return &Stub{
		txID:      cfg.TxID,
		channelID: cfg.ChannelID,
		fn:        cfg.Function,
		args:      cfg.Args,
		creator:   cfg.Creator,
		client:    cfg.Client,
		timestamp: cfg.Timestamp,
		state:     cfg.State,
		history:   cfg.History,
		builder:   rwset.NewBuilder(),
		query:     cfg.Query,
	}
}

// TxID returns the transaction id of this invocation.
func (s *Stub) TxID() string { return s.txID }

// ChannelID returns the channel this invocation runs on.
func (s *Stub) ChannelID() string { return s.channelID }

// Function returns the invoked function name.
func (s *Stub) Function() string { return s.fn }

// Args returns the invocation arguments (excluding the function name).
func (s *Stub) Args() [][]byte { return s.args }

// StringArgs returns the arguments as strings.
func (s *Stub) StringArgs() []string {
	out := make([]string, len(s.args))
	for i, a := range s.args {
		out[i] = string(a)
	}
	return out
}

// Creator returns the serialized identity of the submitting client; this is
// what HyperProv stores as the provenance record's creator certificate.
func (s *Stub) Creator() []byte { return s.creator }

// Client returns the verified identity of the submitting client. A creator
// the peer did not resolve is used verbatim as the subject, with no admin
// rights.
func (s *Stub) Client() ClientIdentity {
	if s.client != nil {
		if c := s.client(); c.Subject != "" {
			return c
		}
	}
	return ClientIdentity{Subject: string(s.creator)}
}

// TxTimestamp returns the client-asserted transaction timestamp.
func (s *Stub) TxTimestamp() time.Time { return s.timestamp }

// GetState reads a key, returning nil if absent. Reads see this
// simulation's own writes first (read-your-writes), then committed state.
// The value is the caller's own copy.
func (s *Stub) GetState(key string) ([]byte, error) {
	val, err := s.GetStateView(key)
	return bytes.Clone(val), err
}

// GetStateView is GetState without the copy: the value it returns is the
// stored one — committed state, or this simulation's pending write — as the
// KVs of GetStateByRange and GetQueryResult are. It stays valid for the life
// of the simulation and must never be written to. An absent or deleted key
// reads as nil, a present empty value as a non-nil empty slice.
func (s *Stub) GetStateView(key string) ([]byte, error) {
	if key == "" {
		return nil, statedb.ErrEmptyKey
	}
	val, deleted, ok := s.builder.PendingWrite(key)
	if !ok {
		var vv statedb.VersionedValue
		vv, ok = s.state.Get(key)
		if !s.query && ok {
			s.builder.AddRead(key, &vv.Version)
		} else if !s.query {
			s.builder.AddRead(key, nil)
		}
		val = vv.Value
	}
	switch {
	case !ok || deleted:
		return nil, nil
	case val == nil:
		return []byte{}, nil // present but empty, which must not read as absent
	}
	return val, nil
}

// validateWriteKey rejects malformed keys at the write gate: a key is
// either composite (U+0000-prefixed, built by CreateCompositeKey) or plain
// with no U+0000 anywhere. This invariant is what lets the state database
// exclude the whole composite namespace from plain range scans with a
// single bound check, exactly as Fabric forbids U+0000 in simple keys.
func validateWriteKey(key string) error {
	if key == "" {
		return statedb.ErrEmptyKey
	}
	if strings.ContainsRune(key[1:], 0) && key[0] != 0 {
		return fmt.Errorf("shim: plain key %q contains U+0000 (reserved for composite keys)", key)
	}
	return nil
}

// PutState stages a write; it becomes visible only if the transaction
// commits as valid.
func (s *Stub) PutState(key string, value []byte) error {
	if err := validateWriteKey(key); err != nil {
		return err
	}
	s.builder.AddWrite(key, value)
	return nil
}

// DelState stages a deletion.
func (s *Stub) DelState(key string) error {
	if err := validateWriteKey(key); err != nil {
		return err
	}
	s.builder.AddDelete(key)
	return nil
}

// GetStateByRange returns committed entries in [startKey, endKey), recording
// a range read for phantom protection. In-simulation writes are not merged
// into range results (matching Fabric's behaviour).
func (s *Stub) GetStateByRange(startKey, endKey string) ([]statedb.KV, error) {
	kvs := statedb.Collect(s.state.GetRange(startKey, endKey))
	if !s.query {
		s.builder.AddRangeRead(startKey, endKey, keysOf(kvs))
	}
	return kvs, nil
}

// keysOf lists the keys of kvs, for a range or query read.
func keysOf(kvs []statedb.KV) []string {
	keys := make([]string, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	return keys
}

// GetStateByRangeWithPagination streams at most pageSize committed entries
// of [startKey, endKey), resuming from bookmark (empty for the first
// page), and returns the bookmark for the next page ("" when the range is
// exhausted). The underlying iterator terminates after pageSize+1 entries
// regardless of how large the range — or total state — is. The recorded
// phantom read covers exactly the observed window: its end bound is the
// next page's first key, so validation re-scans only what simulation saw.
func (s *Stub) GetStateByRangeWithPagination(startKey, endKey string, pageSize int, bookmark string) ([]statedb.KV, string, error) {
	if pageSize <= 0 {
		return nil, "", errors.New("shim: pagination wants a positive page size")
	}
	low := startKey
	if bookmark != "" {
		low = bookmark
	}
	it := s.state.GetRange(low, endKey)
	defer it.Close()
	kvs := make([]statedb.KV, 0, pageSize)
	next := ""
	for {
		kv, ok := it.Next()
		if !ok {
			break
		}
		if len(kvs) == pageSize {
			next = kv.Key // first key of the following page
			break
		}
		kvs = append(kvs, kv)
	}
	if !s.query {
		s.builder.AddRangeRead(low, cmp.Or(next, endKey), keysOf(kvs))
	}
	return kvs, next, nil
}

// CreateCompositeKey builds a namespaced composite key.
func (s *Stub) CreateCompositeKey(objectType string, attrs []string) (string, error) {
	return statedb.CreateCompositeKey(objectType, attrs)
}

// SplitCompositeKey decomposes a composite key.
func (s *Stub) SplitCompositeKey(key string) (string, []string, error) {
	return statedb.SplitCompositeKey(key)
}

// GetStateByPartialCompositeKey queries committed composite keys by prefix.
func (s *Stub) GetStateByPartialCompositeKey(objectType string, attrs []string) ([]statedb.KV, error) {
	it, err := s.state.GetByPartialCompositeKey(objectType, attrs)
	if err != nil {
		return nil, err
	}
	return statedb.Collect(it), nil
}

// GetQueryResult runs a rich (Mango) query against committed state and
// returns the matching entries in result order. The query is a JSON
// document (see richquery.ParseQuery): a selector plus optional sort and
// limit. Like range queries, rich-query results are served from committed
// state only (in-simulation writes are not merged). An endorsement records
// the query in the rwset both as per-key version reads and as a
// re-executable query read for phantom protection; a query stub records and
// marshals nothing.
func (s *Stub) GetQueryResult(query string) ([]statedb.KV, error) {
	kvs, _, err := s.executeQuery([]byte(query), 0, "")
	return kvs, err
}

// GetQueryResultWithPagination runs a rich query bounded to pageSize
// results, resuming from bookmark (empty for the first page). It returns
// the page and the bookmark for the next page ("" when exhausted).
func (s *Stub) GetQueryResultWithPagination(query string, pageSize int, bookmark string) ([]statedb.KV, string, error) {
	if pageSize <= 0 {
		return nil, "", errors.New("shim: pagination wants a positive page size")
	}
	return s.executeQuery([]byte(query), pageSize, bookmark)
}

// executeQuery parses and shapes the query once, has the state reader answer
// it, and — unless the stub serves a query — records the read dependencies,
// the query in its canonical wire form among them.
func (s *Stub) executeQuery(query []byte, pageSize int, bookmark string) ([]statedb.KV, string, error) {
	q, err := richquery.ParseQuery(query)
	if err != nil {
		return nil, "", err
	}
	if pageSize > 0 {
		q.Limit = pageSize
	}
	if bookmark != "" {
		q.Bookmark = bookmark
	}
	res, err := s.state.ExecuteQuery(q)
	if err != nil {
		return nil, "", err
	}
	if !s.query {
		wire, err := q.Marshal()
		if err != nil {
			return nil, "", fmt.Errorf("shim: marshal query: %w", err)
		}
		for _, kv := range res.KVs {
			s.builder.AddRead(kv.Key, &kv.Version)
		}
		s.builder.AddQueryRead(wire, keysOf(res.KVs))
	}
	return res.KVs, res.Bookmark, nil
}

// GetHistoryForKey returns the committed version history of key, newest
// last; each Value aliases the block that committed it. History queries are
// read-only and do not add MVCC read dependencies (as in Fabric).
func (s *Stub) GetHistoryForKey(key string) ([]HistoryEntry, error) {
	if s.history == nil {
		return nil, errors.New("shim: history db not available")
	}
	return s.history.History(key), nil
}

// SetEvent emits a chaincode event delivered on commit.
func (s *Stub) SetEvent(name string, payload []byte) error {
	if name == "" {
		return errors.New("shim: empty event name")
	}
	p := make([]byte, len(payload))
	copy(p, payload)
	s.events = append(s.events, Event{Name: name, Payload: p})
	return nil
}

// Events returns the events emitted so far.
func (s *Stub) Events() []Event { return s.events }

// RWSet finalizes and returns the recorded read/write set.
func (s *Stub) RWSet() *rwset.ReadWriteSet { return s.builder.Build() }
