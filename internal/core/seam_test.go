package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/leaktest"
	"github.com/hyperprov/hyperprov/internal/offchain"
)

// fakeGateway is the whole network as the client library sees it: it
// records what Endorse / Evaluate were asked and answers from its fields.
// Endorse and Submit check the client's signatures, so a Post that reaches
// Submit proves the client signed both halves.
type fakeGateway struct {
	signer  *identity.SigningIdentity
	payload []byte                          // Evaluate's answer
	err     error                           // Endorse's and Evaluate's failure
	txs     map[string]*blockstore.Envelope // what TxStatus knows, all valid
	audit   error                           // AuditChain's verdict
	events  chan blockstore.ChaincodeEvent  // the source Events hands out
	cancel  sync.Once

	submitted bool
	fn        string
	args      [][]byte
	badSig    error // the first signature Endorse or Submit rejected
}

func (f *fakeGateway) Identity() *identity.SigningIdentity { return f.signer }
func (f *fakeGateway) ChannelID() string                   { return "fake-channel" }
func (f *fakeGateway) AuditChain() error                   { return f.audit }

func (f *fakeGateway) Endorse(prop *endorser.Proposal) ([]*endorser.Response, error) {
	f.submitted, f.fn, f.args = true, prop.Function, prop.Args
	if err := f.signer.Identity().VerifyDigest(prop.SignedDigest(), prop.Signature); err != nil && f.badSig == nil {
		f.badSig = fmt.Errorf("proposal: %w", err)
	}
	return []*endorser.Response{{TxID: prop.TxID}}, f.err
}

func (f *fakeGateway) Submit(env blockstore.Envelope) (*blockstore.TxResult, error) {
	if err := f.signer.Identity().VerifyDigest(env.SignedDigest(), env.Signature); err != nil && f.badSig == nil {
		f.badSig = fmt.Errorf("envelope: %w", err)
	}
	return &blockstore.TxResult{TxID: env.TxID, BlockNum: 7, Code: blockstore.TxValid}, nil
}

func (f *fakeGateway) Evaluate(_, fn string, args ...[]byte) ([]byte, error) {
	f.submitted, f.fn, f.args = false, fn, args
	return f.payload, f.err
}

func (f *fakeGateway) TxStatus(txID string) (*blockstore.Envelope, blockstore.ValidationCode, error) {
	if env, ok := f.txs[txID]; ok {
		return env, blockstore.TxValid, nil
	}
	return nil, 0, fmt.Errorf("%w: %q", blockstore.ErrTxNotFound, txID)
}

func (f *fakeGateway) Events() (<-chan blockstore.ChaincodeEvent, func()) {
	return f.events, f.end
}

// end closes the event source once: a cancelled subscription, or a network
// that stopped.
func (f *fakeGateway) end() { f.cancel.Do(func() { close(f.events) }) }

func newFake(t *testing.T) (*Client, *fakeGateway) {
	t.Helper()
	signer, err := fakeSigner()
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeGateway{signer: signer, events: make(chan blockstore.ChaincodeEvent, 8)}
	c, err := New(f, WithStore(offchain.NewMemStore()))
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

// fakeSigner enrols one identity for every fake in the package: key
// generation is the only slow thing a fake-backed test does.
var fakeSigner = sync.OnceValues(func() (*identity.SigningIdentity, error) {
	ca, err := identity.NewCA("FakeOrg")
	if err != nil {
		return nil, err
	}
	return ca.Enroll("fake-client", identity.RoleClient)
})

// Every operator must reach the chaincode function it documents with the
// argument bytes it documents, as a submit or an evaluate; pass a gateway
// error through unwrapped; and name what it could not decode.
func TestOperatorsOnFakeGateway(t *testing.T) {
	const (
		record  = `{"key":"k","checksum":"cs"}`
		records = `[{"key":"k","checksum":"cs"}]`
		page    = `{"records":[{"key":"k","checksum":"cs"}],"next":"n"}`
	)
	from := time.Date(2019, 12, 9, 10, 0, 0, 123456789, time.FixedZone("CET", 3600))
	to := from.Add(1500 * time.Millisecond)
	_, probe := newFake(t)
	subject := probe.signer.Identity().Subject()
	b := func(ss ...string) [][]byte {
		out := make([][]byte, len(ss))
		for i, s := range ss {
			out[i] = []byte(s)
		}
		return out
	}
	cases := []struct {
		name    string
		call    func(c *Client) error
		submit  bool
		fn      string
		args    [][]byte
		payload string // a well-formed answer; "" for submits and raw reads
		decodes string // what the operator says it could not decode
	}{
		{"Post", func(c *Client) error {
			_, err := c.Post("k", "cs", PostOptions{Location: "mem://x", Parents: []string{"p"}, Meta: map[string]string{"m": "v"}})
			return err
		}, true, provenance.FnSet, b(`{"checksum":"cs","creator":"` + subject + `","key":"k","location":"mem://x","meta":{"m":"v"},"parents":["p"]}`), "", ""},
		{"Post/bare", func(c *Client) error { _, err := c.Post("k", "cs", PostOptions{}); return err },
			true, provenance.FnSet, b(`{"checksum":"cs","creator":"` + subject + `","key":"k"}`), "", ""},
		{"Delete", func(c *Client) error { _, err := c.Delete("k"); return err },
			true, provenance.FnDelete, b("k"), "", ""},
		{"Get", func(c *Client) error { _, err := c.Get("k"); return err },
			false, provenance.FnGet, b("k"), record, "record"},
		{"GetByChecksum", func(c *Client) error { _, err := c.GetByChecksum("cs"); return err },
			false, provenance.FnGetByChecksum, b("cs"), record, "record"},
		{"GetKeyHistory", func(c *Client) error { _, err := c.GetKeyHistory("k"); return err },
			false, provenance.FnGetHistory, b("k"), `[]`, "history"},
		{"GetLineage", func(c *Client) error { _, err := c.GetLineage("k"); return err },
			false, provenance.FnGetLineage, b("k"), records, "records"},
		{"GetDescendants", func(c *Client) error { _, err := c.GetDescendants("k"); return err },
			false, provenance.FnGetDescendants, b("k"), records, "records"},
		{"GetChildren", func(c *Client) error { _, err := c.GetChildren("k"); return err },
			false, provenance.FnGetChildren, b("k"), records, "records"},
		{"GetStats", func(c *Client) error { _, err := c.GetStats(); return err },
			false, provenance.FnGetStats, nil, `{"records":1}`, "stats"},
		{"List", func(c *Client) error { _, err := c.List("p/", "p/3", 5); return err },
			false, provenance.FnList, b(`{"after":"p/3","limit":5,"prefix":"p/"}`), page, "list page"},
		{"GetByCreator", func(c *Client) error { _, err := c.GetByCreator("who"); return err },
			false, provenance.FnGetByCreator, b("who"), records, "records"},
		{"QueryMeta", func(c *Client) error { _, err := c.QueryMeta("type", "raw"); return err },
			false, provenance.FnQueryMeta, b("type", "raw"), records, "records"},
		{"ChaincodeVersion", func(c *Client) error { _, err := c.ChaincodeVersion(); return err },
			false, provenance.FnVersion, nil, "", ""},
		{"RichQuery", func(c *Client) error { _, err := c.RichQuery(`{"selector":{}}`); return err },
			false, provenance.FnRichQuery, b(`{"selector":{}}`), page, "query page"},
		{"GetByOwner", func(c *Client) error { _, err := c.GetByOwner("who"); return err },
			false, provenance.FnGetByOwner, b("who"), records, "records"},
		{"GetMine", func(c *Client) error { _, err := c.GetMine(); return err },
			false, provenance.FnGetByOwner, b(subject), records, "records"},
		{"GetByType", func(c *Client) error { _, err := c.GetByType("raw"); return err },
			false, provenance.FnGetByType, b("raw"), records, "records"},
		{"GetByTimeRange", func(c *Client) error { _, err := c.GetByTimeRange(from, to); return err },
			false, provenance.FnGetByTimeRange, b("2019-12-09T09:00:00.123456789Z", "2019-12-09T09:00:01.623456789Z"), records, "records"},
	}
	reached := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, f := newFake(t)
			f.payload = []byte(tc.payload)
			if err := tc.call(c); err != nil {
				t.Fatalf("against a well-formed answer: %v", err)
			}
			if f.submitted != tc.submit || f.fn != tc.fn {
				t.Errorf("reached (submit=%v) %q, want (submit=%v) %q", f.submitted, f.fn, tc.submit, tc.fn)
			}
			if len(f.args) != len(tc.args) {
				t.Fatalf("sent %d args %q, want %q", len(f.args), f.args, tc.args)
			}
			for i := range tc.args {
				if !bytes.Equal(f.args[i], tc.args[i]) {
					t.Errorf("arg %d = %s, want %s", i, f.args[i], tc.args[i])
				}
			}
			if f.badSig != nil {
				t.Errorf("the client did not sign the %s", f.badSig)
			}
			reached[f.fn] = true

			f.err = errors.New("gateway says no")
			if err := tc.call(c); err != f.err {
				t.Errorf("gateway error came back as %v, want it unwrapped", err)
			}
			if f.err = nil; tc.decodes != "" {
				f.payload = []byte(`{"key":`)
				want := "hyperprov: decode " + tc.decodes + ": "
				if err := tc.call(c); err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("undecodable payload: err = %v, want prefix %q", err, want)
				}
			}
		})
	}
	// The contract's whole function table is driven from this package.
	for _, fn := range []string{provenance.FnSet, provenance.FnGet, provenance.FnGetHistory,
		provenance.FnGetByChecksum, provenance.FnGetLineage, provenance.FnGetDescendants,
		provenance.FnDelete, provenance.FnGetStats, provenance.FnList, provenance.FnGetByCreator,
		provenance.FnQueryMeta, provenance.FnGetChildren, provenance.FnVersion, provenance.FnRichQuery,
		provenance.FnGetByOwner, provenance.FnGetByType, provenance.FnGetByTimeRange} {
		if !reached[fn] {
			t.Errorf("no operator reached chaincode function %q", fn)
		}
	}
}

func TestReceiptAndIdentityOnFakeGateway(t *testing.T) {
	c, f := newFake(t)
	if c.Channel() != "fake-channel" || c.Subject() != f.signer.Identity().Subject() {
		t.Errorf("client is %q on %q", c.Subject(), c.Channel())
	}
	receipt, err := c.Post("k", "cs", PostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if receipt.TxID == "" || receipt.BlockNum != 7 || receipt.Latency <= 0 {
		t.Errorf("receipt = %+v, want the envelope's transaction and the client's latency", receipt)
	}
}

func TestCheckTxnOnFakeGateway(t *testing.T) {
	c, f := newFake(t)
	at := time.Unix(1575882000, 0)
	f.txs = map[string]*blockstore.Envelope{"tx-1": {TxID: "tx-1", Function: provenance.FnSet, Timestamp: at}}
	status, err := c.CheckTxn("tx-1")
	if err != nil {
		t.Fatal(err)
	}
	if *status != (TxStatus{TxID: "tx-1", Valid: true, Code: "VALID", Timestamp: at, Function: provenance.FnSet}) {
		t.Errorf("status = %+v", status)
	}
	if _, err := c.CheckTxn("tx-2"); !errors.Is(err, ErrTxNotFound) {
		t.Errorf("miss = %v, want ErrTxNotFound", err)
	}
}

func TestVerifyLedgerOnFakeGateway(t *testing.T) {
	c, f := newFake(t)
	if err := c.VerifyLedger(); err != nil {
		t.Fatalf("clean audit: %v", err)
	}
	f.audit = fmt.Errorf("peer2: %w", blockstore.ErrBrokenChain)
	err := c.VerifyLedger()
	if !errors.Is(err, blockstore.ErrBrokenChain) || !strings.HasPrefix(err.Error(), "hyperprov: peer2: ") {
		t.Errorf("failed audit = %v, want the named peer and the cause", err)
	}
}

func TestGetDataWithoutLocationOnFakeGateway(t *testing.T) {
	c, f := newFake(t)
	f.payload = []byte(`{"key":"meta-only","checksum":"cs"}`)
	data, rec, err := c.GetData("meta-only")
	if !errors.Is(err, ErrNoLocation) || data != nil {
		t.Fatalf("data=%q err=%v, want ErrNoLocation", data, err)
	}
	if rec == nil || rec.Key != "meta-only" {
		t.Errorf("record = %+v, want it returned beside the error", rec)
	}
}

// Watch forwards provenance.set events only, ends when its source ends, and
// ends on stop even when nobody reads — leaving no goroutine either way.
func TestWatchOnFakeGateway(t *testing.T) {
	base := leaktest.Count(leaktest.Watch)
	expectClosed := func(t *testing.T, watch <-chan RecordEvent) {
		t.Helper()
		select {
		case ev, ok := <-watch:
			if ok {
				t.Fatalf("got %+v, want the stream closed", ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("watch stream never closed")
		}
	}

	c, f := newFake(t)
	watch, stop := c.Watch()
	f.events <- blockstore.ChaincodeEvent{TxID: "t0", Name: "provenance.init"}
	f.events <- blockstore.ChaincodeEvent{TxID: "t1", BlockNum: 3, Name: "provenance.set", Payload: []byte("k1")}
	f.events <- blockstore.ChaincodeEvent{TxID: "t2", Name: "provenance.delete", Payload: []byte("k1")}
	f.end() // the network stops: what the source held is still delivered
	if ev := <-watch; ev != (RecordEvent{Key: "k1", TxID: "t1", BlockNum: 3}) {
		t.Errorf("forwarded %+v", ev)
	}
	expectClosed(t, watch)
	stop() // after the fact: must only be safe

	c, f = newFake(t)
	watch, stop = c.Watch()
	for i := 0; i < 3; i++ { // nobody reads: the forwarder parks in its send
		f.events <- blockstore.ChaincodeEvent{Name: "provenance.set", Payload: []byte("k")}
	}
	stop()
	stop()            // idempotent
	for range watch { // whatever was forwarded before stop, then closed
	}
	leaktest.Settle(t, base, leaktest.Watch)
}
