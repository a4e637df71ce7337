package transport

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/codec"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/peer"
)

// requestFrame is one request framed the way a client sends it: op's code
// and layout, addressed to channel.
func requestFrame(op network.Op, channel string, layout []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, channel, append([]byte{op.Code}, layout...)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzTransportServe feeds arbitrary bytes to a served peer's op table as
// one connection's request stream, over net.Pipe rather than its listener.
// The contract under hostile input: no panic, the handler returns once the
// client hangs up, and the served ledger still verifies — whatever arrived,
// only blocks its committer admitted are on it. The peer is shared by every
// input, so the one valid block among the seeds lands once.
func FuzzTransportServe(f *testing.F) {
	fx := newFixture(f)
	served := fx.newPeer("peer0")
	src := fx.newPeer("src")
	next := fx.commitBlock(src, fx.envelope(src, "init")) // served's valid next block
	table := fx.serve(served).table()

	deliver := requestFrame(opDeliver, "ch", blockstore.AppendBlock(nil, next))
	for _, seed := range [][]byte{
		requestFrame(opHello, "ch", nil),
		requestFrame(opHeight, "ch", nil),
		requestFrame(opBlocksFrom, "ch", codec.AppendUvarint(nil, 0)),
		deliver,
		requestFrame(opSync, "ch", nil),
		requestFrame(opEndorse, "ch", appendProposal(nil, fx.propose(peer.InitFunction))),
		deliver[:len(deliver)-3],
		requestFrame(network.Op{Code: 0x07}, "ch", nil),
		requestFrame(opHeight, "no-such-channel", nil),
		requestFrame(opDeliver, "", blockstore.AppendBlock(nil, next)), // names no channel
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		client, server := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			table.Serve(server)
			server.Close()
		}()
		go func() {
			defer wg.Done()
			io.Copy(io.Discard, client) // the replies; ends when client closes
		}()
		client.Write(stream) // fails once the server has hung up
		client.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return after the client hung up")
		}
		if err := served.Ledger().VerifyChain(); err != nil {
			t.Fatalf("served ledger after the stream: %v", err)
		}
	})
}
