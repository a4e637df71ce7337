// Package peer implements the peer node: it hosts chaincode and serves
// endorsement requests, and it consumes the ordered block stream, runs the
// validation pipeline (creator signature, endorsement policy, MVCC), and
// commits valid transactions to the world state, history, and block store.
// In the paper's deployments each of the four machines (desktops or RPis)
// runs one such peer.
package peer

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/committer"
	"github.com/hyperprov/hyperprov/internal/device"
	"github.com/hyperprov/hyperprov/internal/endorser"
	"github.com/hyperprov/hyperprov/internal/historydb"
	"github.com/hyperprov/hyperprov/internal/identity"
	"github.com/hyperprov/hyperprov/internal/metrics"
	"github.com/hyperprov/hyperprov/internal/recovery"
	"github.com/hyperprov/hyperprov/internal/richquery"
	"github.com/hyperprov/hyperprov/internal/shim"
	"github.com/hyperprov/hyperprov/internal/statedb"
	"github.com/hyperprov/hyperprov/internal/trace"
)

// InitFunction is the reserved function name that routes to chaincode Init.
const InitFunction = "__init"

// Errors returned by the peer.
var (
	ErrUnknownChaincode = errors.New("peer: unknown chaincode")
	ErrChaincodeExists  = errors.New("peer: chaincode already installed")
	ErrSimulationFailed = errors.New("peer: chaincode simulation failed")
	ErrWrongChannel     = errors.New("peer: proposal for another channel")
)

// installedCC pairs a chaincode with its endorsement policy.
type installedCC struct {
	cc     shim.Chaincode
	policy endorser.Policy
}

// Config assembles a peer.
type Config struct {
	// Name identifies the peer (e.g. "peer0.org1").
	Name string
	// Signer is the peer's endorsing identity.
	Signer *identity.SigningIdentity
	// MSP verifies client and endorser identities.
	MSP *identity.MSP
	// Executor models this peer's hardware; nil means zero modeled cost.
	Executor *device.Executor
	// Channels lists the channels this host serves (at least one), each
	// with its own ledger (blocks-<ch>.hpb), state store, history, commit
	// pipeline, and recovery root (checkpoints/<ch>/).
	Channels []string

	// Dir, when the peer is built with Open, is its data directory: the
	// durable block file plus checkpoints live there and the peer recovers
	// from it on every open. NewHost ignores it (volatile peers).
	Dir string
	// CheckpointEvery is how many blocks apart durable checkpoints are
	// taken; 0 lets the schedule follow the data (recovery.Manager.Due).
	// Only meaningful with Open.
	CheckpointEvery uint64

	// Tracer, when set, receives transaction lifecycle spans (endorse and
	// the three commit stages) and is completed — outcome recorded, trace
	// moved to the recent/slow lists — as each transaction commits on this
	// peer. Wire it on exactly one peer per recorder, or racing completions
	// will split timelines.
	Tracer *trace.Recorder
}

// Peer is one endorsing/committing node.
type Peer struct {
	name      string
	channelID string
	signer    *identity.SigningIdentity
	msp       *identity.MSP
	exec      *device.Executor

	state   *statedb.Store
	history *historydb.DB
	blocks  blockstore.BlockStore

	// file and ckpt are set for durable peers (Open): the open block file
	// and the checkpoint manager feeding from the commit pipeline.
	file *blockstore.FileStore
	ckpt *recovery.Manager
	// recovered describes what Open restored, for operators and tests.
	recovered RecoveryInfo

	ccMu sync.RWMutex
	ccs  map[string]installedCC

	metrics *metrics.Registry
	tracer  *trace.Recorder

	// lastCommitNs is the wall-clock time (UnixNano) of the most recent
	// committed block; 0 until the first commit. /healthz derives the
	// last-commit age from it.
	lastCommitNs atomic.Int64

	// committer runs the pipelined commit path: parallel pre-validation,
	// sequential MVCC + state apply, async persistence. It owns block
	// deduplication, so racing deliveries from the ordered stream and
	// gossip commit each height exactly once, in order.
	committer *committer.Pipeline

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	// started is read by Stop while Start may run concurrently (a peer
	// torn down mid-startup), so it is atomic rather than a plain bool.
	started atomic.Bool
}

// RecoveryInfo describes what a durable peer restored at Open.
type RecoveryInfo struct {
	// CheckpointHeight is the checkpoint the peer restored from (0 when it
	// replayed the whole block file).
	CheckpointHeight uint64
	// ReplayedBlocks is the number of tail blocks replayed on top.
	ReplayedBlocks int
}

// Host is a peer process serving N independent channels. Each channel is a
// full single-channel Peer — its own ledger, state store, history,
// commit pipeline, and recovery root — sharing only the process-level
// resources (the modeled Executor, i.e. the machine's cores). This is the
// SDSN@RT-style single-instance multi-tenant shape: channel pipelines never
// contend on locks, so aggregate throughput scales with channel count.
type Host struct {
	name     string
	order    []string
	channels map[string]*Peer
}

// validateChannels checks that a Config names at least one channel, each a
// valid ID, none twice.
func validateChannels(cfg Config) error {
	if len(cfg.Channels) == 0 {
		return fmt.Errorf("peer %s: no channels configured", cfg.Name)
	}
	seen := make(map[string]bool, len(cfg.Channels))
	for _, ch := range cfg.Channels {
		if err := validateChannelID(ch); err != nil {
			return err
		}
		if seen[ch] {
			return fmt.Errorf("peer %s: duplicate channel %q", cfg.Name, ch)
		}
		seen[ch] = true
	}
	return nil
}

// MaxChannelID is the longest channel ID a peer accepts, in bytes.
const MaxChannelID = 64

// validateChannelID restricts channel IDs to filesystem- and wire-safe
// names: they become file names (blocks-<ch>.hpb) and one-byte-length
// frame extensions.
func validateChannelID(ch string) error {
	if ch == "" {
		return errors.New("peer: empty channel ID")
	}
	if len(ch) > MaxChannelID {
		return fmt.Errorf("peer: channel ID %q too long (max %d)", ch, MaxChannelID)
	}
	for _, r := range ch {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("peer: channel ID %q: invalid character %q", ch, r)
		}
	}
	return nil
}

// NewHost creates a volatile multi-channel host: one in-memory Peer (state,
// history, and ledger) per configured channel. Call Start on each channel's
// Peer to attach it to an ordered block stream. Installed chaincodes that
// declare indexes get rich provenance queries served from secondary indexes
// the state store maintains at block commit.
func NewHost(cfg Config) (*Host, error) {
	if err := validateChannels(cfg); err != nil {
		return nil, err
	}
	h := &Host{name: cfg.Name, channels: make(map[string]*Peer, len(cfg.Channels))}
	for _, ch := range cfg.Channels {
		blocks := blockstore.NewStore()
		h.add(ch, newPeer(cfg, ch, statedb.New(), historydb.NewIndex(blocks), blocks))
	}
	return h, nil
}

// Open creates a durable host rooted at cfg.Dir, recovering every
// configured channel independently: each channel's block file is loaded
// (discarding a crash-torn tail), its newest valid checkpoint restores
// state, history is re-indexed from the blocks below it, and its block tail
// is replayed to the exact pre-crash fingerprint. Rich-query indexes are
// built from the recovered documents when InstallChaincode declares them,
// as on a fresh peer.
// From then on each channel's commit pipeline appends blocks to its own
// ledger file and takes checkpoints on cfg.CheckpointEvery's schedule.
// Shut down with Close (clean:
// final checkpoint per channel) — or kill the process; that is the point.
// The per-channel handle is Open(cfg).Channel(id).
func Open(cfg Config) (*Host, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("peer %s: Open needs a data directory", cfg.Name)
	}
	if err := validateChannels(cfg); err != nil {
		return nil, err
	}
	h := &Host{name: cfg.Name, channels: make(map[string]*Peer, len(cfg.Channels))}
	for _, ch := range cfg.Channels {
		opened, err := recovery.Open(cfg.Dir, ch)
		if err != nil {
			h.Close() // release channels already opened
			return nil, fmt.Errorf("peer %s channel %q: %w", cfg.Name, ch, err)
		}
		p := newPeer(cfg, ch, opened.State, opened.History, opened.Blocks)
		p.file = opened.Blocks
		p.recovered = RecoveryInfo{
			CheckpointHeight: opened.CheckpointHeight,
			ReplayedBlocks:   opened.Replayed,
		}
		h.add(ch, p)
	}
	return h, nil
}

func (h *Host) add(id string, p *Peer) {
	h.order = append(h.order, id)
	h.channels[id] = p
}

// Name returns the host's peer name.
func (h *Host) Name() string { return h.name }

// Channels returns the served channel IDs in configuration order.
func (h *Host) Channels() []string { return append([]string(nil), h.order...) }

// Channel returns the peer instance serving the given channel, or nil when
// the host does not serve it.
func (h *Host) Channel(id string) *Peer { return h.channels[id] }

// Stop stops every channel's commit pipeline.
func (h *Host) Stop() {
	for _, id := range h.order {
		h.channels[id].Stop()
	}
}

// Close shuts every channel down cleanly (final checkpoint each), returning
// the first error.
func (h *Host) Close() error {
	var err error
	for _, id := range h.order {
		if cerr := h.channels[id].Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Crash shuts every channel down the unclean way (no final checkpoint), for
// crash-recovery tests and demos.
func (h *Host) Crash() {
	for _, id := range h.order {
		h.channels[id].Crash()
	}
}

// newPeer assembles one channel's peer over the given ledger resources and
// starts its commit pipeline. When the blocks argument is a durable
// FileStore, the pipeline additionally takes checkpoints through a recovery
// manager, which decides when.
func newPeer(cfg Config, channelID string, state *statedb.Store, history *historydb.DB, blocks blockstore.BlockStore) *Peer {
	p := &Peer{
		name:      cfg.Name,
		channelID: channelID,
		signer:    cfg.Signer,
		msp:       cfg.MSP,
		exec:      cfg.Executor,
		state:     state,
		history:   history,
		blocks:    blocks,
		ccs:       make(map[string]installedCC),
		metrics:   metrics.NewRegistry(),
		tracer:    cfg.Tracer,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	// Attach per-operation state latency histograms, the lock-contention
	// counter and the rich-query counters to the peer's registry.
	state.SetMetrics(p.metrics)
	exportCacheStats(p.metrics, p.msp)
	ccfg := committer.Config{
		State:   p.state,
		History: p.history,
		Blocks:  p.blocks,
		Verifier: &committer.EnvelopeVerifier{
			MSP:    p.msp,
			Policy: p.policyFor,
			Exec:   p.exec,
		},
		Metrics: p.metrics,
		Tracer:  cfg.Tracer,
		Name:    cfg.Name,
		OnAccepted: func(b *blockstore.Block) {
			p.exec.Transfer(blockWireSize(b)) // block dissemination
		},
		OnCommitted: p.onBlockCommitted,
	}
	if file, ok := blocks.(*blockstore.FileStore); ok {
		p.ckpt = recovery.NewManager(cfg.Dir, channelID, state, file, cfg.CheckpointEvery)
		ccfg.CheckpointDue = p.ckpt.Due
		ccfg.OnCheckpoint = p.ckpt.OnCheckpoint
	}
	p.committer = committer.New(ccfg)
	return p
}

// exportCacheStats publishes the MSP's identity table and signature cache on
// reg, sampled at scrape time: "is identity resolution warm on this peer" is
// answered by /metrics. Peers sharing one MSP report the same numbers. Beside
// them go the process's executed ECDSA operations — what the caches did not
// absorb.
func exportCacheStats(reg *metrics.Registry, msp *identity.MSP) {
	ids, sigs := msp.IdentityStats, msp.VerifyCache().Stats
	reg.GaugeFunc(metrics.IdentityCacheHits, func() int64 { return int64(ids().Hits) })
	reg.GaugeFunc(metrics.IdentityCacheMisses, func() int64 { return int64(ids().Misses) })
	reg.GaugeFunc(metrics.IdentityCacheEntries, func() int64 { return int64(ids().Entries) })
	reg.GaugeFunc(metrics.VerifyCacheHits, func() int64 { return int64(sigs().Hits) })
	reg.GaugeFunc(metrics.VerifyCacheMisses, func() int64 { return int64(sigs().Misses) })
	reg.GaugeFunc(metrics.VerifyCacheEntries, func() int64 { return int64(sigs().Entries) })
	reg.GaugeFunc(metrics.IdentityECDSASigns, func() int64 { signs, _ := identity.ECDSAOps(); return int64(signs) })
	reg.GaugeFunc(metrics.IdentityECDSAVerifies, func() int64 { _, verifies := identity.ECDSAOps(); return int64(verifies) })
}

// policyFor resolves an installed chaincode's endorsement policy for the
// commit pipeline's validation workers.
func (p *Peer) policyFor(chaincode string) (endorser.Policy, bool) {
	icc, err := p.chaincode(chaincode)
	if err != nil {
		return nil, false
	}
	return icc.policy, true
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.name }

// ChannelID returns the channel this peer instance serves.
func (p *Peer) ChannelID() string { return p.channelID }

// Metrics returns the peer's counter registry.
func (p *Peer) Metrics() *metrics.Registry { return p.metrics }

// Executor returns the peer's device executor (may be nil).
func (p *Peer) Executor() *device.Executor { return p.exec }

// Ledger returns the peer's block store (read-only use expected).
func (p *Peer) Ledger() blockstore.BlockStore { return p.blocks }

// Recovery reports what this peer restored at Open (zero for volatile
// peers).
func (p *Peer) Recovery() RecoveryInfo { return p.recovered }

// Height returns the peer's committed block height.
func (p *Peer) Height() uint64 { return p.blocks.Height() }

// IndexDeclarer is implemented by chaincodes that ship secondary-index
// declarations for the state database — the analog of the CouchDB index
// definitions Fabric chaincode packages carry in META-INF/statedb. The
// peer applies the declarations at install (and upgrade) time.
type IndexDeclarer interface {
	Indexes() []richquery.IndexDef
}

// InstallChaincode registers a chaincode and its endorsement policy, and
// applies any state-database indexes the chaincode declares.
func (p *Peer) InstallChaincode(name string, cc shim.Chaincode, policy endorser.Policy) error {
	p.ccMu.Lock()
	defer p.ccMu.Unlock()
	if _, dup := p.ccs[name]; dup {
		return fmt.Errorf("%w: %q", ErrChaincodeExists, name)
	}
	if err := p.defineIndexes(name, cc); err != nil {
		return err
	}
	p.ccs[name] = installedCC{cc: cc, policy: policy}
	return nil
}

// UpgradeChaincode atomically replaces an installed chaincode's
// implementation and policy (Fabric's upgrade lifecycle). The chaincode
// must already be installed; indexes newly declared by the upgraded
// version are built over existing state.
func (p *Peer) UpgradeChaincode(name string, cc shim.Chaincode, policy endorser.Policy) error {
	p.ccMu.Lock()
	defer p.ccMu.Unlock()
	if _, ok := p.ccs[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownChaincode, name)
	}
	if err := p.defineIndexes(name, cc); err != nil {
		return err
	}
	p.ccs[name] = installedCC{cc: cc, policy: policy}
	return nil
}

// defineIndexes applies a chaincode's index declarations to the state
// database atomically (all validated before any is built, so a rejected
// install leaves no partial index set), namespacing index names by
// chaincode.
func (p *Peer) defineIndexes(ccName string, cc shim.Chaincode) error {
	decl, ok := cc.(IndexDeclarer)
	if !ok {
		return nil
	}
	defs := decl.Indexes()
	for i := range defs {
		defs[i].Name = ccName + "." + defs[i].Name
	}
	if err := p.state.DefineIndexes(defs); err != nil {
		return fmt.Errorf("peer %s: define indexes: %w", p.name, err)
	}
	return nil
}

func (p *Peer) chaincode(name string) (installedCC, error) {
	p.ccMu.RLock()
	defer p.ccMu.RUnlock()
	icc, ok := p.ccs[name]
	if !ok {
		return installedCC{}, fmt.Errorf("%w: %q", ErrUnknownChaincode, name)
	}
	return icc, nil
}

// proposalWireSize approximates the proposal's transfer size.
func proposalWireSize(prop *endorser.Proposal) int {
	n := 512 + len(prop.Creator)
	for _, a := range prop.Args {
		n += len(a)
	}
	return n
}

// clientOf is the chaincode-facing view of a resolved creator.
func clientOf(id *identity.Identity) shim.ClientIdentity {
	return shim.ClientIdentity{Subject: id.Subject(), Admin: id.Role() == identity.RoleAdmin}
}

// ProcessProposal verifies the client signature, simulates the chaincode,
// and returns a signed endorsement. This is the peer half of HyperProv's
// Post path.
func (p *Peer) ProcessProposal(prop *endorser.Proposal) (resp *endorser.Response, err error) {
	start := time.Now()
	inflight := p.metrics.Gauge(metrics.EndorseInflight)
	inflight.Inc()
	defer func() {
		inflight.Dec()
		if err != nil {
			p.metrics.Counter(metrics.EndorsementsFailed).Inc()
		} else {
			p.metrics.Counter(metrics.EndorsementsServed).Inc()
			p.tracer.Observe(prop.TxID, trace.StageEndorse, p.name, start, "")
		}
	}()
	p.exec.Transfer(proposalWireSize(prop)) // receive over the LAN
	// The response's signature does not bind the channel, so an endorsement
	// simulated here would pass for one of the proposal's channel.
	if prop.ChannelID != p.channelID {
		return nil, fmt.Errorf("%w: peer %s serves %q, proposal names %q", ErrWrongChannel, p.name, p.channelID, prop.ChannelID)
	}
	clientID, err := p.msp.Deserialize(prop.Creator)
	if err != nil {
		return nil, fmt.Errorf("peer %s: proposal creator: %w", p.name, err)
	}
	// Every peer the gateway asks verifies the same signed proposal; in an
	// in-process network they share the MSP's signature cache, so only the
	// first peer pays the ECDSA verification (and its modeled charge).
	onMiss := func() { p.exec.Verify() }
	if err := clientID.VerifyCached(p.msp.VerifyCache(), prop.SignedDigest(), prop.Signature, onMiss); err != nil {
		return nil, fmt.Errorf("peer %s: proposal signature: %w", p.name, err)
	}
	icc, err := p.chaincode(prop.Chaincode)
	if err != nil {
		return nil, err
	}
	p.exec.Endorse() // chaincode container round-trip

	// Simulate against a height-stamped snapshot: every read of this
	// proposal, rich queries included, sees one consistent world at a block
	// boundary, and a commit landing mid-simulation can neither shear the
	// reads nor be blocked by them. MVCC and phantom validation still
	// arbitrate against whatever commits first.
	view := p.state.Snapshot()
	defer view.Release()
	stub := shim.NewStub(shim.Config{
		TxID:      prop.TxID,
		ChannelID: prop.ChannelID,
		Function:  prop.Function,
		Args:      prop.Args,
		Creator:   prop.Creator,
		Client:    func() shim.ClientIdentity { return clientOf(clientID) },
		Timestamp: prop.Timestamp,
		State:     view,
		History:   p.history,
	})
	var simResp shim.Response
	if prop.Function == InitFunction {
		simResp = icc.cc.Init(stub)
	} else {
		simResp = icc.cc.Invoke(stub)
	}
	if simResp.Status != shim.OK {
		return nil, fmt.Errorf("%w: %s", ErrSimulationFailed, simResp.Message)
	}
	rwsBytes := stub.RWSet().Marshal()
	var eventBytes []byte
	if evs := stub.Events(); len(evs) > 0 {
		var err error
		eventBytes, err = json.Marshal(evs)
		if err != nil {
			return nil, fmt.Errorf("peer %s: marshal events: %w", p.name, err)
		}
	}

	out := &endorser.Response{
		TxID:     prop.TxID,
		Status:   simResp.Status,
		Message:  simResp.Message,
		Payload:  simResp.Payload,
		RWSet:    rwsBytes,
		Events:   eventBytes,
		Endorser: p.signer.Serialize(),
	}
	p.exec.Sign()
	sig, err := p.signer.SignDigest(out.SignedDigest())
	if err != nil {
		return nil, fmt.Errorf("peer %s: sign endorsement: %w", p.name, err)
	}
	out.Signature = sig
	p.exec.Transfer(len(out.Payload) + len(rwsBytes) + 512) // send response
	return out, nil
}

// Query runs a read-only chaincode invocation against committed state
// (HyperProv's Get path: "lightweight retrieval of provenance data"), on
// the only stub that keeps no read set, and commits nothing it stages. It
// waits for the commit pipeline's persistence watermark, so a query never
// sees state from a block whose ledger append and history are in flight,
// then reads through a snapshot view, so a long scan runs to completion
// without stalling — or being stalled by — blocks committing concurrently.
func (p *Peer) Query(chaincode, fn string, args [][]byte, creator []byte) (shim.Response, error) {
	p.committer.Sync()
	icc, err := p.chaincode(chaincode)
	if err != nil {
		return shim.Response{}, err
	}
	p.metrics.Counter(metrics.QueriesServed).Inc()
	p.exec.Endorse()
	view := p.state.Snapshot()
	defer view.Release()
	stub := shim.NewStub(shim.Config{
		TxID:      "query",
		ChannelID: p.channelID,
		Function:  fn,
		Args:      args,
		Creator:   creator,
		// Queries are unsigned, so an unresolvable creator is not an error:
		// the chaincode then sees the bytes verbatim, without admin rights.
		Client: func() (c shim.ClientIdentity) {
			if id, err := p.msp.Deserialize(creator); err == nil {
				c = clientOf(id)
			}
			return c
		},
		Timestamp: time.Now(),
		State:     view,
		History:   p.history,
		Query:     true,
	})
	return icc.cc.Invoke(stub), nil
}

// BlockSource is an ordered chain a peer pulls from by block number: the
// orderer's Block call.
type BlockSource interface {
	Block(n uint64, stop <-chan struct{}) (*blockstore.Block, bool)
}

// Start attaches the peer to its orderer: a goroutine of the peer's own
// pulls block after block from src, from the peer's ledger height on, into
// the commit pipeline (block N's append overlaps block N+1's validation),
// until the peer stops or src ends. It holds nothing of src's.
func (p *Peer) Start(src BlockSource) {
	p.started.Store(true)
	go func() {
		defer close(p.done)
		for n := p.blocks.Height(); ; n++ {
			b, ok := src.Block(n, p.stop)
			if !ok {
				return
			}
			p.committer.Submit(b)
		}
	}()
}

// Stop detaches the peer from its orderer, drains the commit pipeline, and
// closes its watermark, which ends commit-waits and event streams.
func (p *Peer) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	if p.started.Load() {
		<-p.done
	}
	p.committer.Close()
}

// Close shuts a durable peer down cleanly: it stops the block stream,
// drains the commit pipeline, takes a final checkpoint (so the next Open
// restores with an empty replay tail), and closes the block file. On a
// volatile peer it is equivalent to Stop.
func (p *Peer) Close() error {
	p.Stop()
	var err error
	if p.ckpt != nil {
		err = p.ckpt.Final()
	}
	if p.file != nil {
		if cerr := p.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Crash shuts the peer down the unclean way, for crash-recovery tests and
// demos: the pipeline's goroutines are reaped and the block file is closed,
// but no final checkpoint is taken, so the next Open replays the block tail
// past the last checkpoint — exactly as when the process is killed
// mid-commit. Every committed block is already on stable storage, so Crash
// differs from Close only in that checkpoint.
func (p *Peer) Crash() {
	p.Stop()
	if p.file != nil {
		_ = p.file.Close()
	}
}

// Sync blocks until every block accepted by the commit pipeline is fully
// persisted (state, history, block store, and the commit callback).
func (p *Peer) Sync() { p.committer.Sync() }

// blockWireSize is a block's dissemination transfer size: exact for
// envelopes carrying their canonical encoding (everything that went through
// the cutter or arrived off the wire), estimated for bare test fixtures.
func blockWireSize(b *blockstore.Block) int {
	n := 256
	for i := range b.Envelopes {
		if sz, ok := b.Envelopes[i].EncodedLen(); ok {
			n += sz
			continue
		}
		n += 768 + len(b.Envelopes[i].RWSet) + len(b.Envelopes[i].Response)
		for _, a := range b.Envelopes[i].Args {
			n += len(a)
		}
	}
	return n
}

// CommitBlock validates every transaction in the block, commits the valid
// ones, and waits for persistence. It is exported for single-stepped tests
// and gossip delivery; Start feeds the pipeline asynchronously in
// production.
func (p *Peer) CommitBlock(ordered *blockstore.Block) {
	p.committer.Submit(ordered)
	p.committer.Sync()
}

// onBlockCommitted runs in the commit pipeline's persistence stage, once
// per committed block in block order and before the watermark passes it: it
// bumps the peer's commit counters and completes each transaction's trace.
func (p *Peer) onBlockCommitted(b *blockstore.Block) {
	p.metrics.Counter(metrics.BlocksCommitted).Inc()
	p.lastCommitNs.Store(time.Now().UnixNano())
	for i := range b.Envelopes {
		if b.TxValidation[i] == blockstore.TxValid {
			p.metrics.Counter(metrics.TxValidated).Inc()
		} else {
			p.metrics.Counter(metrics.TxInvalidated).Inc()
		}
		p.tracer.Complete(b.Envelopes[i].TxID, b.TxValidation[i].String())
	}
}

// WaitTx blocks until txID has committed on this peer — its block persisted
// and the commit callback run — and returns where, with its validation code
// (at once if it already had); false once stop closes or the peer stops.
func (p *Peer) WaitTx(txID string, stop <-chan struct{}) (blockstore.TxLocator, bool) {
	mark := p.committer.Persisted()
	for {
		// Load the watermark before the lookup: a miss then puts the tx's
		// block at or above it, so waiting for one more cannot skip it.
		h := mark.Load()
		if loc, ok := p.blocks.Locate(txID); ok {
			return loc, mark.Wait(loc.BlockNum+1, stop)
		}
		if !mark.Wait(h+1, stop) {
			return blockstore.TxLocator{}, false
		}
	}
}

// LastCommitTime returns when the most recent block committed on this peer
// (zero time before the first commit). The admin endpoint's /healthz view
// reports its age.
func (p *Peer) LastCommitTime() time.Time {
	ns := p.lastCommitNs.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Blocks hands fn this peer's committed blocks numbered from up to its
// height at the call, one at a time and in order, and stops at fn's first
// error: what serves gossip pulls and the transport's blocksFrom stream.
func (p *Peer) Blocks(from uint64, fn func(*blockstore.Block) error) error {
	return blockstore.Each(p.blocks, from, fn)
}

// BlocksFrom collects Blocks(from) into one slice. It is kept only for the
// benchmark module, which still reads whole tails; it goes once that module
// moves to Blocks.
func (p *Peer) BlocksFrom(from uint64) []*blockstore.Block {
	var out []*blockstore.Block
	// Nothing to report: collecting never fails, and every number below the
	// height at the call is stored.
	_ = p.Blocks(from, func(b *blockstore.Block) error { out = append(out, b); return nil })
	return out
}

// DeliverBlock accepts a block fetched from a gossip neighbour. The block
// passes the same validation pipeline as an ordered block; out-of-order or
// duplicate deliveries are ignored. Delivery only submits — it does not
// wait for persistence — so a long gossip catch-up streams the whole tail
// through the pipelined commit path; gossip calls Sync once per pull.
func (p *Peer) DeliverBlock(b *blockstore.Block) {
	p.committer.Submit(b)
}

// StateFingerprint returns a deterministic hash over the peer's committed
// world state, first syncing the commit pipeline so the fingerprint covers
// every accepted block. Two peers that committed the same chain produce
// identical fingerprints, which is how multi-process deployments assert
// convergence beyond raw height.
func (p *Peer) StateFingerprint() string {
	p.committer.Sync()
	return committer.StateFingerprint(p.state)
}
