package main

import (
	"time"

	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/identity"
)

// networkPeers is the paper's deployment width: one org, four peers.
const networkPeers = 4

// postWorkload is post_e2e: the zero-payload point of the paper's sweep and
// the per-transaction fixed cost — sign, four-way endorse, quorum check,
// order, commit on four peers — with one-transaction blocks.
type postWorkload struct {
	cn      *chainNet
	clients []*core.Client
	g       gen
}

func newPostWorkload(seed int64, sz sizing) (workload, error) {
	cn, err := newChainNet(networkPeers, 1, 2*time.Second, numClients)
	if err != nil {
		return nil, err
	}
	clients, err := cn.clients()
	if err != nil {
		cn.stop()
		return nil, err
	}
	return &postWorkload{cn: cn, clients: clients, g: gen{seed}}, nil
}

func (w *postWorkload) BeginRound(int) error { return nil }
func (w *postWorkload) Quiesce(int) error    { return w.cn.settle() }
func (w *postWorkload) EndRound(int) error   { return nil }
func (w *postWorkload) Close()               { w.cn.stop() }

func (w *postWorkload) Op(c, r, i int, sl *spanLog) error {
	sl.beginOp("op.post", i)
	defer sl.endOp()
	return sl.call("core.Post", func() error {
		_, err := w.clients[c].Post(w.g.key("p", r, i), w.g.checksum(r, i), core.PostOptions{})
		return err
	})
}

func (w *postWorkload) Finish() (ledgerFacts, error) {
	return w.cn.verify(w.clients[0], 1)
}

func (w *postWorkload) Net() *chainNet { return w.cn }

func (w *postWorkload) CacheStats() identity.VerifyCacheStats {
	return w.cn.net.MSP().VerifyCache().Stats()
}
