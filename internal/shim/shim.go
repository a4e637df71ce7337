// Package shim is the chaincode programming interface — the analog of
// Fabric's chaincode shim. Chaincode (such as HyperProv's provenance
// contract) is written against the Stub, which serves reads from the peer's
// committed state while transparently recording the read/write set that
// endorsement returns to the client.
package shim

import (
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
type HistoryEntry struct {
	TxID      string    `json:"txId"`
	Value     []byte    `json:"value,omitempty"`
	IsDelete  bool      `json:"isDelete,omitempty"`
	Timestamp time.Time `json:"timestamp"`
	BlockNum  uint64    `json:"blockNum"`
}

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
// transaction context, recording every access into an rwset.
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
	events  []Event
}

// Config carries everything needed to construct a Stub. State is any
// read surface: a live state database, or — as the peer passes for
// endorsement and queries — a height-stamped statedb.View, so one
// simulation's reads see a consistent world no concurrent commit can
// shear.
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
func (s *Stub) GetState(key string) ([]byte, error) {
	if key == "" {
		return nil, statedb.ErrEmptyKey
	}
	if val, deleted, ok := s.builder.PendingWrite(key); ok {
		if deleted {
			return nil, nil
		}
		out := make([]byte, len(val))
		copy(out, val)
		return out, nil
	}
	vv, ok := s.state.Get(key)
	if !ok {
		s.builder.AddRead(key, nil)
		return nil, nil
	}
	v := vv.Version
	s.builder.AddRead(key, &v)
	out := make([]byte, len(vv.Value))
	copy(out, vv.Value)
	return out, nil
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
	keys := make([]string, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	s.builder.AddRangeRead(startKey, endKey, keys)
	return kvs, nil
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
	keys := make([]string, 0, pageSize)
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
		keys = append(keys, kv.Key)
	}
	windowEnd := endKey
	if next != "" {
		windowEnd = next
	}
	s.builder.AddRangeRead(low, windowEnd, keys)
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
// state only (in-simulation writes are not merged), and the query is
// recorded in the rwset both as per-key version reads and as a re-executable
// query read for phantom protection.
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

// executeQuery parses and shapes the query, executes it on the state
// database (natively when it supports rich queries, by filtered scan
// otherwise), and records the read dependencies.
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
	wire, err := q.Marshal()
	if err != nil {
		return nil, "", fmt.Errorf("shim: marshal query: %w", err)
	}

	var res *statedb.QueryResult
	if rq, ok := s.state.(statedb.RichQueryer); ok {
		res, err = rq.ExecuteQuery(wire)
	} else {
		// LevelDB-flavour fallback: filtered scan through the exact
		// pipeline IndexedStore runs, so results are identical.
		res, err = statedb.ScanQuery(s.state, wire)
	}
	if err != nil {
		return nil, "", err
	}

	keys := make([]string, len(res.KVs))
	for i, kv := range res.KVs {
		keys[i] = kv.Key
		v := kv.Version
		s.builder.AddRead(kv.Key, &v)
	}
	s.builder.AddQueryRead(wire, keys)
	return res.KVs, res.Bookmark, nil
}

// GetHistoryForKey returns the committed version history of key, newest
// last. History queries are read-only metadata queries and do not add MVCC
// read dependencies (as in Fabric).
func (s *Stub) GetHistoryForKey(key string) ([]HistoryEntry, error) {
	if s.history == nil {
		return nil, errors.New("shim: history db not available")
	}
	entries := s.history.History(key)
	out := make([]HistoryEntry, len(entries))
	for i, e := range entries {
		out[i] = HistoryEntry{
			TxID:      e.TxID,
			Value:     e.Value,
			IsDelete:  e.IsDelete,
			Timestamp: e.Timestamp,
			BlockNum:  e.BlockNum,
		}
	}
	return out, nil
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
