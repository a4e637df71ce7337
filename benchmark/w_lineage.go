package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/identity"
)

// lineage_mixed's set-up DAG: dagChains chains (the smoke mode commits
// fewer), item i typed t(i mod dagTypes).
const (
	dagChains = 16
	dagTypes  = 8
)

func dagType(i int) string { return fmt.Sprintf("t%d", i%dagTypes) }

// lineageWorkload is lineage_mixed: one Post of a new derived item beside
// twenty point/lineage reads and one rich query, all result lengths
// asserted. Chaincode, shim, state, history and rich-query work dominates;
// the write path is the same as post_e2e's, so an index or query change that
// taxes writes (or the reverse) shows here and not there.
type lineageWorkload struct {
	cn      *chainNet
	clients []*core.Client
	d       dag
}

func newLineageWorkload(seed int64, sz sizing) (workload, error) {
	// Set-up has its own concurrency, one worker and identity per chain
	// (chains are independent); the measured phase runs numClients.
	cn, err := newChainNet(networkPeers, 1, 2*time.Second, max(sz.dagChains, numClients))
	if err != nil {
		return nil, err
	}
	w := &lineageWorkload{cn: cn, d: dag{g: gen{seed}, prefix: "d", chains: sz.dagChains, typeOf: dagType}}
	if w.clients, err = cn.clients(); err != nil {
		cn.stop()
		return nil, err
	}
	if err := w.populate(); err != nil {
		cn.stop()
		return nil, fmt.Errorf("populate DAG: %w", err)
	}
	return w, nil
}

// populate commits the DAG, one worker per chain.
func (w *lineageWorkload) populate() error {
	errs := make([]error, w.d.chains)
	var wg sync.WaitGroup
	for chain := range errs {
		wg.Add(1)
		go func(chain int) {
			defer wg.Done()
			cl, err := core.New(w.cn.gateways[chain])
			if err == nil {
				err = w.d.commitChain(w.cn, cl, chain)
			}
			errs[chain] = err
		}(chain)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *lineageWorkload) BeginRound(int) error { return nil }
func (w *lineageWorkload) Quiesce(int) error    { return w.cn.settle() }
func (w *lineageWorkload) EndRound(int) error   { return nil }
func (w *lineageWorkload) Close()               { w.cn.stop() }
func (w *lineageWorkload) Net() *chainNet       { return w.cn }

func (w *lineageWorkload) Finish() (ledgerFacts, error) {
	return w.cn.verify(w.clients[0], 1)
}

func (w *lineageWorkload) CacheStats() identity.VerifyCacheStats {
	return w.cn.net.MSP().VerifyCache().Stats()
}

func (w *lineageWorkload) Op(c, r, i int, sl *spanLog) error {
	sl.beginOp("op.lineage_mixed", i)
	defer sl.endOp()
	cl, d := w.clients[c], w.d
	slot := 0
	pick := func(n int) int { slot++; return d.g.pick(streamRead, r, i, slot, n) }

	chain := pick(d.chains)
	p1 := pick(liveParentMax)
	p2 := (p1 + 1 + pick(liveParentMax-1)) % liveParentMax
	if err := sl.call("core.Post", func() error {
		_, err := cl.Post(d.g.key("l", r, i), d.g.checksum(r, i), core.PostOptions{
			Parents: []string{d.key(chain, p1), d.key(chain, p2)},
			Meta:    map[string]string{"type": "live"},
		})
		return err
	}); err != nil {
		return err
	}
	if err := sl.call("core.reads", func() error { return d.reads(cl, pick) }); err != nil {
		return err
	}
	return sl.call("core.GetByType", func() error {
		return d.byType(cl, dagType(pick(dagTypes)), d.chains*dagLength/dagTypes)
	})
}
