package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/chaincode/provenance"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/core"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/network"
	"github.com/hyperprov/hyperprov/internal/offchain"
	"github.com/hyperprov/hyperprov/internal/orderer"
	"github.com/hyperprov/hyperprov/internal/peer"
	"github.com/hyperprov/hyperprov/internal/rwset"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/statedb"
)

// Layer probes: each public function a workload's operations pass through,
// called in isolation from a single goroutine on inputs taken from that
// workload's own network and ledger, p10 reported. They run after the
// traced rounds of a -trace 1 run and never contribute to an end-to-end
// metric.

// probeTxCap bounds how much of the workload's chain the chain-replay probes
// use — the longest prefix holding at most this many transactions — so a
// traced run's length depends neither on the ledger's nor on its block size.
const probeTxCap = 600

// streamReps is how often a whole-chain replay or pull is repeated.
const streamReps = 3

// probe is one finished measurement.
type probe struct {
	Name    string
	Value   float64
	Samples int
}

// prober accumulates probes; the first error sticks and later measurements
// become no-ops, so call sites read as a straight list.
type prober struct {
	calls   int
	results []probe
	err     error
}

func unitScale(unit string) float64 {
	switch unit {
	case "ns":
		return 1
	case "us":
		return 1e3
	case "ms":
		return 1e6
	}
	return 1
}

// each times f(i) for i in [0,n) one call at a time and records the p10.
func (p *prober) each(name string, n int, f func(i int) error) {
	p.batched(name, n, 1, f)
}

// batched times runs of `batch` consecutive calls and records the p10 of
// the per-call mean — for functions too short to time one by one.
func (p *prober) batched(name string, n, batch int, f func(i int) error) {
	if p.err != nil {
		return
	}
	scale := unitScale(unitOf(name))
	var samples []float64
	for i := 0; i+batch <= n; i += batch {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			if err := f(i + k); err != nil {
				p.err = fmt.Errorf("probe %s: %w", name, err)
				return
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(batch)/scale)
	}
	p.record(name, percentile(samples, 0.10), len(samples)*batch)
}

// perUnit times f as a whole `reps` times and records the p10 of
// elapsed ÷ units — for work that only exists as a stream (a pipeline fed
// a chain, a block pull).
func (p *prober) perUnit(name string, reps, units int, f func() error) {
	if p.err != nil {
		return
	}
	scale := unitScale(unitOf(name))
	var samples []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := f(); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(units)/scale)
	}
	p.record(name, percentile(samples, 0.10), reps*units)
}

func (p *prober) record(name string, value float64, samples int) {
	p.results = append(p.results, probe{Name: name, Value: value, Samples: samples})
}

func (p *prober) value(name string) float64 {
	for _, r := range p.results {
		if r.Name == name {
			return r.Value
		}
	}
	return 0
}

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// heavy is the call count for probes that cost half a millisecond or more
// per call; the rest get p.calls.
func (p *prober) heavy() int { return max(20, p.calls/10) }

// The probe fixture is the narrow DAG every traced run commits on its
// workload's network: fixtureChains chains, every item of one type.
const (
	fixtureChains = 2
	fixtureType   = "probe"
)

// runProbes measures every layer against cn's end state: its peers,
// identities and the longest prefix of its chain within probeTxCap.
func runProbes(cn *chainNet, seed int64, calls int, outDir string) ([]probe, error) {
	p := &prober{calls: calls}
	scratch, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	chain := cn.net.Peers()[0].BlocksFrom(0)
	for n, txs := 0, 0; n < len(chain); n++ {
		if txs += len(chain[n].Envelopes); txs > probeTxCap {
			chain = chain[:n]
			break
		}
	}
	var envs []*blockstore.Envelope
	for _, b := range chain[1:] {
		for i := range b.Envelopes {
			envs = append(envs, &b.Envelopes[i])
		}
	}
	if len(envs) == 0 {
		return nil, errors.New("probes: the workload's ledger holds no transactions")
	}
	env := func(i int) *blockstore.Envelope { return envs[i%len(envs)] }

	probeIdentity(p, cn, env)
	probeCodec(p, chain, env)
	probeOrderer(p, env)
	probeCommit(p, cn, chain, envs)
	probeStorage(p, chain, scratch)
	probeTransport(p, cn, chain)
	probeOffchain(p, seed, scratch)
	probeRecovery(p, cn, chain, scratch)
	probeClient(p, cn, seed)
	probeResidual(p)
	return p.results, p.err
}

func probeIdentity(p *prober, cn *chainNet, env func(int) *blockstore.Envelope) {
	signer := cn.gateways[0].Identity()
	msg := env(0).SignedBytes()
	var sig []byte
	p.each("identity.sign_us", p.calls, func(int) (err error) {
		sig, err = signer.Sign(msg)
		return err
	})
	id := signer.Identity()
	p.each("identity.verify_us", p.calls, func(int) error { return id.Verify(msg, sig) })
	msp := cn.net.MSP()
	p.each("identity.deserialize_us", p.calls, func(i int) error {
		_, err := msp.Deserialize(env(i).Creator)
		return err
	})
}

func probeCodec(p *prober, chain []*blockstore.Block, env func(int) *blockstore.Envelope) {
	p.batched("rwset.unmarshal_ns", p.calls*20, 100, func(i int) error {
		_, err := rwset.Unmarshal(env(i).RWSet)
		return err
	})
	bins := make([][]byte, len(chain))
	p.each("blockstore.marshal_us_per_block", len(chain), func(i int) error {
		bins[i] = blockstore.MarshalBlock(chain[i])
		return nil
	})
	p.each("blockstore.unmarshal_us_per_block", len(chain), func(i int) error {
		_, err := blockstore.UnmarshalBlock(bins[i])
		return err
	})
}

// probeOrderer times Submit → block on a standalone solo orderer cutting
// one-transaction blocks, fed envelopes from the workload's ledger.
func probeOrderer(p *prober, env func(int) *blockstore.Envelope) {
	solo := orderer.NewSolo(orderer.BatchConfig{MaxMessageCount: 1, PreferredMaxBytes: 1 << 30, BatchTimeout: 2 * time.Second}, nil)
	defer solo.Stop()
	blocks := solo.Subscribe()
	p.each("orderer.submit_to_block_us", p.calls, func(i int) error {
		if err := solo.Submit(*env(i)); err != nil {
			return err
		}
		select {
		case <-blocks:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("no block cut")
		}
	})
}

// coldMSP trusts cn's organisation through its CA certificate alone, with an
// empty verification cache — what a committing peer in another process has.
func coldMSP(cn *chainNet) (*identity.MSP, error) {
	ca, err := identity.NewVerifyingCA(cn.net.CA().CertPEM())
	if err != nil {
		return nil, err
	}
	return identity.NewMSP(ca), nil
}

// newIndexedState is a peer's state database: the indexed store carrying the
// provenance chaincode's secondary indexes, named as the peer names them.
func newIndexedState() (*statedb.IndexedStore, error) {
	state, err := statedb.NewIndexed()
	if err != nil {
		return nil, err
	}
	defs := provenance.New().Indexes()
	for i := range defs {
		defs[i].Name = provenance.ChaincodeName + "." + defs[i].Name
	}
	return state, state.DefineIndexes(defs)
}

// commitConfig assembles a committer over fresh in-memory ledger resources
// shaped like a peer's: indexed state with the chaincode's indexes, history,
// block store, and an envelope verifier over msp (nil: a fresh cold one).
func commitConfig(cn *chainNet, msp *identity.MSP) (committer.Config, error) {
	if msp == nil {
		var err error
		if msp, err = coldMSP(cn); err != nil {
			return committer.Config{}, err
		}
	}
	state, err := newIndexedState()
	if err != nil {
		return committer.Config{}, err
	}
	policy := cn.net.Policy()
	return committer.Config{
		State:   state,
		History: historydb.New(),
		Blocks:  blockstore.NewStore(),
		Verifier: &committer.EnvelopeVerifier{
			MSP:    msp,
			Policy: func(string) (endorser.Policy, bool) { return policy, true },
		},
	}, nil
}

func countTxs(chain []*blockstore.Block) int {
	n := 0
	for _, b := range chain {
		n += len(b.Envelopes)
	}
	return n
}

func probeCommit(p *prober, cn *chainNet, chain []*blockstore.Block, envs []*blockstore.Envelope) {
	if p.err != nil {
		return
	}
	cfg, err := commitConfig(cn, nil)
	if err != nil {
		p.fail(err)
		return
	}
	p.each("committer.prevalidate_us_per_tx", min(p.calls, len(envs)), func(i int) error {
		if res := cfg.Verifier.Prevalidate(envs[i]); res.Code != blockstore.TxValid {
			return fmt.Errorf("tx %s prevalidates as %s", envs[i].TxID, res.Code)
		}
		return nil
	})

	// Serial: one sample per block, elapsed ÷ its transactions.
	if cfg, err = commitConfig(cn, nil); err != nil {
		p.fail(err)
		return
	}
	serial := committer.NewSerial(cfg)
	scale := unitScale("us")
	var samples []float64
	for _, b := range chain {
		t0 := time.Now()
		if !serial.Submit(b) {
			p.fail(fmt.Errorf("probe committer.serial_us_per_tx: block %d rejected", b.Header.Number))
			return
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(len(b.Envelopes))/scale)
	}
	p.record("committer.serial_us_per_tx", percentile(samples, 0.10), countTxs(chain))

	// Pipeline with default workers: submit the whole chain, then Sync.
	// Cold is what a joining peer pays; warm — every signature already in
	// the MSP's verification cache, as the gateway leaves it for the
	// network's own peers — is primed by one untimed pass.
	warm, err := coldMSP(cn)
	if err != nil {
		p.fail(err)
		return
	}
	pipeline := func(msp *identity.MSP) func() error {
		return func() error { return replayPipelined(cn, msp, chain) }
	}
	p.perUnit("committer.pipeline_us_per_tx", streamReps, countTxs(chain), pipeline(nil))
	p.fail(replayPipelined(cn, warm, chain))
	p.perUnit("committer.pipeline_warm_us_per_tx", streamReps, countTxs(chain), pipeline(warm))
}

// replayPipelined commits chain through a fresh pipelined committer.
func replayPipelined(cn *chainNet, msp *identity.MSP, chain []*blockstore.Block) error {
	cfg, err := commitConfig(cn, msp)
	if err != nil {
		return err
	}
	pipe := committer.New(cfg)
	defer pipe.Close()
	for _, b := range chain {
		if !pipe.Submit(b) {
			return fmt.Errorf("block %d rejected", b.Header.Number)
		}
	}
	pipe.Sync()
	if got := cfg.Blocks.Height(); got != uint64(len(chain)) {
		return fmt.Errorf("pipeline committed %d of %d blocks", got, len(chain))
	}
	return nil
}

// probeStorage replays the chain's writes into standalone state and history
// databases, and its blocks into a durable block file.
func probeStorage(p *prober, chain []*blockstore.Block, scratch string) {
	if p.err != nil {
		return
	}
	state, err := newIndexedState()
	if err != nil {
		p.fail(err)
		return
	}
	history := historydb.New()
	scale := unitScale("us")
	var applyUs, recordUs []float64
	var keys []string
	writes := 0
	for _, b := range chain {
		batch := statedb.NewUpdateBatch()
		var recs []historydb.KeyedEntry
		for t := range b.Envelopes {
			rws, err := rwset.Unmarshal(b.Envelopes[t].RWSet)
			if err != nil {
				p.fail(err)
				return
			}
			ver := statedb.Version{BlockNum: b.Header.Number, TxNum: uint64(t)}
			for _, w := range rws.Writes {
				batch.Put(w.Key, w.Value, ver)
				recs = append(recs, historydb.KeyedEntry{Key: w.Key, Entry: historydb.Entry{
					TxID: b.Envelopes[t].TxID, BlockNum: ver.BlockNum, TxNum: ver.TxNum,
					Value: w.Value, Timestamp: b.Envelopes[t].Timestamp}})
				keys = append(keys, w.Key)
			}
		}
		if batch.Len() == 0 {
			continue
		}
		t0 := time.Now()
		if err := state.ApplyUpdates(batch, statedb.Version{BlockNum: b.Header.Number, TxNum: uint64(len(b.Envelopes))}); err != nil {
			p.fail(err)
			return
		}
		applyUs = append(applyUs, float64(time.Since(t0).Nanoseconds())/float64(batch.Len())/scale)
		t0 = time.Now()
		history.RecordBatch(recs)
		recordUs = append(recordUs, float64(time.Since(t0).Nanoseconds())/float64(len(recs))/scale)
		writes += len(recs)
	}
	p.record("statedb.apply_us_per_write", percentile(applyUs, 0.10), writes)
	p.record("historydb.record_us_per_write", percentile(recordUs, 0.10), writes)
	p.batched("statedb.get_ns", p.calls*20, 100, func(i int) error {
		if _, ok := state.Get(keys[i%len(keys)]); !ok {
			return fmt.Errorf("key %q missing", keys[i%len(keys)])
		}
		return nil
	})
	const versionedKey = "probe/history17"
	for v := 0; v <= dagVersions; v++ {
		history.Record(versionedKey, historydb.Entry{TxID: fmt.Sprint(v), BlockNum: uint64(v), Value: []byte(versionedKey)})
	}
	p.batched("historydb.history17_us", p.calls*10, 10, func(int) error {
		if n := len(history.History(versionedKey)); n != dagVersions+1 {
			return fmt.Errorf("%d versions", n)
		}
		return nil
	})

	path := filepath.Join(scratch, "blocks")
	file, err := blockstore.OpenFileStore(path)
	if err != nil {
		p.fail(err)
		return
	}
	p.each("blockstore.append_us_per_block", len(chain), func(i int) error { return file.Append(chain[i]) })
	p.fail(file.Close())
	p.perUnit("blockstore.open_us_per_block", streamReps, len(chain), func() error {
		reopened, err := blockstore.OpenFileStore(path)
		if err != nil {
			return err
		}
		if reopened.Height() != uint64(len(chain)) {
			return fmt.Errorf("reopened %d of %d blocks", reopened.Height(), len(chain))
		}
		return reopened.Close()
	})
}

// probeTransport drives a cold joiner over a loopback connection: pushed
// deliveries without a sync, height round trips, and a full pull back.
func probeTransport(p *prober, cn *chainNet, chain []*blockstore.Block) {
	if p.err != nil {
		return
	}
	j, err := newJoiner("probe-joiner", cn.net.CA().CertPEM(), cn.net.Policy())
	if err != nil {
		p.fail(err)
		return
	}
	defer j.close()
	received := j.wire.Counter(metrics.TransportBytesReceived)
	before := received.Value()
	p.each("transport.deliver_us_per_block", len(chain), func(i int) error { return j.client.Deliver(chain[i]) })
	if h, err := j.client.SyncRemote(); err != nil || h != uint64(len(chain)) {
		p.fail(fmt.Errorf("probe transport: joiner at height %d of %d: %v", h, len(chain), err))
		return
	}
	wire := float64(received.Value() - before)
	encoded := 0
	for _, b := range chain {
		encoded += len(blockstore.MarshalBlock(b))
	}
	p.record("transport.wire_bytes_per_block", wire/float64(len(chain)), len(chain))
	p.record("transport.wire_inflation", wire/float64(encoded), len(chain))
	p.each("transport.rtt_us", p.calls, func(int) error {
		_, err := j.client.Height()
		return err
	})
	p.perUnit("transport.pull_us_per_block", streamReps, len(chain), func() error {
		got, err := j.client.BlocksFrom(0)
		if err == nil && len(got) != len(chain) {
			err = fmt.Errorf("pulled %d of %d blocks", len(got), len(chain))
		}
		return err
	})
}

func probeOffchain(p *prober, seed int64, scratch string) {
	if p.err != nil {
		return
	}
	g := gen{seed}
	data := g.payloadBase(numClients, payloadSize)
	n := p.heavy()
	p.each("offchain.checksum_ms", n, func(i int) error {
		g.stampPayload(data, 3000, i)
		if offchain.Checksum(data) == "" {
			return errors.New("empty checksum")
		}
		return nil
	})

	srv, err := newObjectServer()
	if err != nil {
		p.fail(err)
		return
	}
	defer srv.Close()
	remote, err := offchain.NewRemoteStore(srv.Addr(), network.LinkShape{})
	if err != nil {
		p.fail(err)
		return
	}
	defer remote.Close()
	putGet(p, "offchain.remote", remote, g, data, n)

	dir, err := offchain.NewDirStore(filepath.Join(scratch, "objects"))
	if err != nil {
		p.fail(err)
		return
	}
	// Every DirStore.Put fsyncs the file and its directory on the sandbox's
	// disk; a tenth of the calls keeps the probe to a few seconds.
	putGet(p, "offchain.dir", dir, g, data, max(10, n/10))
}

// putGet times Put of distinct payloads and Get of each, checking the bytes.
func putGet(p *prober, prefix string, store offchain.Store, g gen, data []byte, n int) {
	refs := make([]string, n)
	p.each(prefix+"_put_ms", n, func(i int) (err error) {
		g.stampPayload(data, 3001, i)
		refs[i], err = store.Put(data)
		return err
	})
	p.each(prefix+"_get_ms", n, func(i int) error {
		got, err := store.Get(refs[i])
		if err != nil {
			return err
		}
		g.stampPayload(data, 3001, i)
		if !bytes.Equal(got, data) {
			return errors.New("object differs from what was stored")
		}
		return nil
	})
}

// probeRecovery replays the chain into a durable peer (block file plus a
// full-state checkpoint every peer.DefaultCheckpointEvery blocks), closes
// it, and reopens it.
func probeRecovery(p *prober, cn *chainNet, chain []*blockstore.Block, scratch string) {
	if p.err != nil {
		return
	}
	msp, err := coldMSP(cn)
	if err != nil {
		p.fail(err)
		return
	}
	signer, err := edgeSigner("probe-durable")
	if err != nil {
		p.fail(err)
		return
	}
	cfg := peer.Config{Name: "probe-durable", Signer: signer, MSP: msp,
		Channels: []string{channelID}, Dir: filepath.Join(scratch, "peer")}
	open := func() (*peer.Host, *peer.Peer, error) {
		host, err := peer.Open(cfg)
		if err != nil {
			return nil, nil, err
		}
		inst := host.Channel(channelID)
		if err := inst.InstallChaincode(provenance.ChaincodeName, provenance.New(), cn.net.Policy()); err != nil {
			host.Close()
			return nil, nil, err
		}
		return host, inst, nil
	}
	host, inst, err := open()
	if err != nil {
		p.fail(err)
		return
	}
	txs := countTxs(chain)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, b := range chain {
		inst.DeliverBlock(b)
	}
	inst.Sync()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	fp := inst.StateFingerprint()
	if int(inst.Height()) != len(chain) {
		host.Close()
		p.fail(fmt.Errorf("probe recovery: durable peer at height %d of %d", inst.Height(), len(chain)))
		return
	}
	p.record("recovery.durable_commit_us_per_tx", float64(elapsed.Nanoseconds())/float64(txs)/unitScale("us"), txs)
	p.record("recovery.durable_alloc_kib_per_tx", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(txs), txs)
	if err := host.Close(); err != nil {
		p.fail(err)
		return
	}
	t0 = time.Now()
	host, inst, err = open()
	if err != nil {
		p.fail(err)
		return
	}
	p.record("recovery.reopen_ms", float64(time.Since(t0).Nanoseconds())/unitScale("ms"), 1)
	p.record("recovery.replayed_blocks", float64(inst.Recovery().ReplayedBlocks), 1)
	if got := inst.StateFingerprint(); got != fp {
		p.fail(errors.New("probe recovery: reopened peer's state fingerprint differs"))
	}
	p.fail(host.Close())
}

// probeClient measures the client operators and the peer-side calls under
// them on a one-transaction-block network: cn itself when it is one, else a
// fresh four-peer network (catchup's source cuts ten-transaction blocks, so
// a lone write there would sit out BatchTimeout).
func probeClient(p *prober, cn *chainNet, seed int64) {
	if p.err != nil {
		return
	}
	if len(cn.net.Peers()) != networkPeers {
		fresh, err := newChainNet(networkPeers, 1, 2*time.Second, numClients)
		if err != nil {
			p.fail(err)
			return
		}
		defer fresh.stop()
		cn = fresh
	}
	g := gen{seed}
	fx := dag{g: g, prefix: "f", chains: fixtureChains, typeOf: func(int) string { return fixtureType }}
	gw := cn.gateways[0]
	cl, err := core.New(gw)
	if err != nil {
		p.fail(err)
		return
	}
	for chain := 0; chain < fixtureChains; chain++ {
		if err := fx.commitChain(cn, cl, chain); err != nil {
			p.fail(fmt.Errorf("probe fixture: %w", err))
			return
		}
	}
	n := p.heavy()

	// Client operators, single goroutine.
	p.each("core.post_p10_ms", n, func(i int) error {
		_, err := cl.Post(g.key("pp", 0, i), g.checksum(3002, i), core.PostOptions{})
		return err
	})
	srv, err := newObjectServer()
	if err != nil {
		p.fail(err)
		return
	}
	defer srv.Close()
	remote, err := offchain.NewRemoteStore(srv.Addr(), network.LinkShape{})
	if err != nil {
		p.fail(err)
		return
	}
	defer remote.Close()
	scl, err := core.New(gw, core.WithStore(remote))
	if err != nil {
		p.fail(err)
		return
	}
	data := g.payloadBase(numClients+1, payloadSize)
	p.each("core.storedata_p10_ms", n, func(i int) error {
		g.stampPayload(data, 3003, i)
		_, err := scl.StoreData(g.key("ps", 0, i), data, core.PostOptions{})
		return err
	})
	p.each("core.getdata_p10_ms", n, func(i int) error {
		got, _, err := scl.GetData(g.key("ps", 0, i))
		if err == nil && len(got) != payloadSize {
			err = fmt.Errorf("%d bytes", len(got))
		}
		return err
	})
	p.each("core.reads_p10_ms", n, func(i int) error {
		slot := 0
		return fx.reads(cl, func(n int) int { slot++; return g.pick(streamRead, 3004, i, slot, n) })
	})
	wantTyped := fixtureChains * dagLength
	p.each("core.richquery_p10_ms", n, func(int) error { return fx.byType(cl, fixtureType, wantTyped) })

	// Peer-side calls, direct.
	peers := cn.net.Peers()
	creator := gw.Identity().Serialize()
	last := fx.last(0)
	query := func(name string, calls int, fn, arg string, check func(payload []byte) error) {
		p.each(name, calls, func(int) error {
			resp, err := peers[0].Query(provenance.ChaincodeName, fn, [][]byte{[]byte(arg)}, creator)
			if err != nil {
				return err
			}
			if resp.Status != shim.OK {
				return errors.New(resp.Message)
			}
			return check(resp.Payload)
		})
	}
	records := func(want int) func([]byte) error {
		return func(payload []byte) error {
			var recs []json.RawMessage
			if err := json.Unmarshal(payload, &recs); err != nil {
				return err
			}
			if len(recs) != want {
				return fmt.Errorf("%d records, want %d", len(recs), want)
			}
			return nil
		}
	}
	query("peer.query_get_us", p.calls, provenance.FnGet, last, func(b []byte) error {
		if len(b) == 0 {
			return errors.New("empty record")
		}
		return nil
	})
	query("provenance.history17_us", p.calls, provenance.FnGetHistory, last, records(dagVersions+1))
	query("provenance.lineage32_us", n, provenance.FnGetLineage, last, records(dagLength))
	query("provenance.descendants_us", p.calls, provenance.FnGetDescendants, fx.key(1, descendantsMin), records(dagLength-1-descendantsMin))
	query("richquery.bytype_us", n, provenance.FnGetByType, fixtureType, records(wantTyped))

	// Endorsement: signed proposals of a fresh-key set, endorsed on peer 0
	// (timed) and two more peers, then the three responses checked against
	// the policy with a cold verification cache.
	signer := gw.Identity()
	props := make([]*endorser.Proposal, p.calls)
	for i := range props {
		txID, err := endorser.NewTxID(creator)
		if err != nil {
			p.fail(err)
			return
		}
		args, _ := json.Marshal(map[string]any{"key": g.key("pe", 0, i), "checksum": g.checksum(3006, i), "creator": cl.Subject()})
		props[i] = &endorser.Proposal{TxID: txID, ChannelID: channelID, Chaincode: provenance.ChaincodeName,
			Function: provenance.FnSet, Args: [][]byte{args}, Creator: creator, Timestamp: time.Now().UTC()}
		if props[i].Signature, err = signer.Sign(props[i].SignedBytes()); err != nil {
			p.fail(err)
			return
		}
	}
	resps := make([][]*endorser.Response, len(props))
	p.each("peer.endorse_us", len(props), func(i int) error {
		r, err := peers[0].ProcessProposal(props[i])
		resps[i] = append(resps[i], r)
		return err
	})
	if p.err != nil {
		return
	}
	for i := range props {
		for _, other := range peers[1:3] {
			r, err := other.ProcessProposal(props[i])
			if err != nil {
				p.fail(err)
				return
			}
			resps[i] = append(resps[i], r)
		}
	}
	msp, err := coldMSP(cn)
	if err != nil {
		p.fail(err)
		return
	}
	policy := cn.net.Policy()
	p.each("endorser.check_endorsements_us", len(props), func(i int) error {
		return endorser.CheckEndorsements(policy, msp, resps[i])
	})
}

// probeResidual compares what a Post's p10 should cost, from the layer
// probes, with what the client probe measured. Endorsement and commit run on
// every peer of the network but only GOMAXPROCS at a time.
func probeResidual(p *prober) {
	if p.err != nil {
		return
	}
	// probeClient always measures on a networkPeers-wide network.
	waves := float64(networkPeers) / float64(runtime.GOMAXPROCS(0))
	sign := p.value("identity.sign_us")
	endorse := p.value("peer.endorse_us")
	check := p.value("endorser.check_endorsements_us")
	order := p.value("orderer.submit_to_block_us")
	commit := p.value("committer.pipeline_warm_us_per_tx")
	postUs := p.value("core.post_p10_ms") * 1e3
	modelled := 2*sign + waves*endorse + check + order + waves*commit
	share := 1 - modelled/postUs
	fmt.Printf("  ledger.residual_share = 1 - (2*sign %.1f + %.1f*endorse %.1f + check_endorsements %.1f + submit_to_block %.1f + %.1f*pipeline_warm_per_tx %.1f) / post_p10 %.1f us = %.4f\n",
		sign, waves, endorse, check, order, waves, commit, postUs, share)
	p.record("ledger.residual_share", share, 1)
}
