package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/offchain"
)

// payloadSize is store_payload's object size: large enough that checksum
// plus off-chain put/get outweigh the bare Post, small enough for hundreds
// of operations per round.
const payloadSize = 256 << 10

// storeWorkload is store_payload: the paper's flagship StoreData followed by
// GetData of the same item, so a put gain that costs get shows. Each client
// owns one connection to a loopback offchain.Server. The server keeps
// objects in an offchain.MemStore: the benchmark may write only inside its
// checkout, and an fsync-ing DirStore on the sandbox disk spread 30% between
// runs. The server and its objects stand in for another machine's disk, so
// they are replaced every round and released before the live-heap snapshot.
type storeWorkload struct {
	cn *chainNet
	g  gen

	bufs    [][]byte // one seeded payload buffer per client
	srv     *offchain.Server
	stores  []*offchain.RemoteStore
	clients []*core.Client
}

func newStoreWorkload(seed int64, sz sizing) (workload, error) {
	cn, err := newChainNet(networkPeers, 1, 2*time.Second, numClients)
	if err != nil {
		return nil, err
	}
	w := &storeWorkload{cn: cn, g: gen{seed}}
	for c := 0; c < numClients; c++ {
		w.bufs = append(w.bufs, w.g.payloadBase(c, payloadSize))
	}
	return w, nil
}

// newObjectServer starts an unshaped loopback object server over a fresh
// in-memory store.
func newObjectServer() (*offchain.Server, error) {
	return offchain.NewServer("127.0.0.1:0", offchain.NewMemStore(), network.LinkShape{})
}

func (w *storeWorkload) BeginRound(int) (err error) {
	if w.srv, err = newObjectServer(); err != nil {
		return err
	}
	for c := 0; c < numClients; c++ {
		rs, err := offchain.NewRemoteStore(w.srv.Addr(), network.LinkShape{})
		if err != nil {
			return err
		}
		w.stores = append(w.stores, rs)
		cl, err := core.New(w.cn.gateways[c], core.WithStore(rs))
		if err != nil {
			return err
		}
		w.clients = append(w.clients, cl)
	}
	return nil
}

func (w *storeWorkload) Op(c, r, i int, sl *spanLog) error {
	sl.beginOp("op.store_get", i)
	defer sl.endOp()
	key, data := w.g.key("s", r, i), w.bufs[c]
	w.g.stampPayload(data, r, i)
	if err := sl.call("core.StoreData", func() error {
		_, err := w.clients[c].StoreData(key, data, core.PostOptions{})
		return err
	}); err != nil {
		return err
	}
	var got []byte
	if err := sl.call("core.GetData", func() (err error) {
		got, _, err = w.clients[c].GetData(key)
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("GetData(%s) returned %d bytes that differ from the %d stored", key, len(got), len(data))
	}
	return nil
}

func (w *storeWorkload) Quiesce(int) error {
	err := w.cn.settle()
	w.releaseStore()
	return err
}

// releaseStore closes the round's off-chain connections and server and
// drops every reference to the stored objects.
func (w *storeWorkload) releaseStore() {
	for _, rs := range w.stores {
		rs.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.srv, w.stores, w.clients = nil, nil, nil
}

func (w *storeWorkload) EndRound(int) error { return nil }

func (w *storeWorkload) Finish() (ledgerFacts, error) {
	cl, err := core.New(w.cn.gateways[0])
	if err != nil {
		return ledgerFacts{}, err
	}
	return w.cn.verify(cl, 1)
}

func (w *storeWorkload) Close() {
	w.releaseStore()
	w.cn.stop()
}

func (w *storeWorkload) Net() *chainNet { return w.cn }

func (w *storeWorkload) CacheStats() identity.VerifyCacheStats {
	return w.cn.net.MSP().VerifyCache().Stats()
}
