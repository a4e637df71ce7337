package orderer

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
)

// This file implements a self-contained Raft consensus core used by the
// Raft ordering service (Abl C in README "Paper figures & ablations" —
// resilience of the ordering layer, which Fabric 1.4.1 introduced). It
// supports leader election, log replication, node crash/restart, and
// network partitions injected through the cluster router.
// Snapshots/compaction are out of scope: ordering logs in the experiments
// are short-lived.

type raftRole int

const (
	roleFollower raftRole = iota + 1
	roleCandidate
	roleLeader
)

func (r raftRole) String() string {
	switch r {
	case roleFollower:
		return "follower"
	case roleCandidate:
		return "candidate"
	case roleLeader:
		return "leader"
	default:
		return "unknown"
	}
}

type logEntry struct {
	Term  uint64
	Batch []blockstore.Envelope
}

type raftMsgType int

const (
	msgRequestVote raftMsgType = iota + 1
	msgVoteResp
	msgAppendEntries
	msgAppendResp
	msgPropose
)

type raftMsg struct {
	Type raftMsgType
	From int
	Term uint64

	// RequestVote
	LastLogIndex int
	LastLogTerm  uint64
	// VoteResp
	Granted bool
	// AppendEntries
	PrevLogIndex int
	PrevLogTerm  uint64
	Entries      []logEntry
	LeaderCommit int
	// AppendResp
	Success    bool
	MatchIndex int
	// Propose
	Batch []blockstore.Envelope
}

// RaftConfig tunes the consensus timers. Values are wall-clock.
type RaftConfig struct {
	// HeartbeatInterval is the leader's AppendEntries cadence.
	HeartbeatInterval time.Duration
	// ElectionTimeoutMin/Max bound the randomized follower timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
}

// DefaultRaftConfig returns timers suitable for in-process clusters.
func DefaultRaftConfig() RaftConfig {
	return RaftConfig{
		HeartbeatInterval:  15 * time.Millisecond,
		ElectionTimeoutMin: 60 * time.Millisecond,
		ElectionTimeoutMax: 120 * time.Millisecond,
	}
}

// applyFn receives committed batches: (index, batch). Called in index order
// by each live node; the cluster facade deduplicates.
type applyFn func(nodeID, index int, batch []blockstore.Envelope)

// raftCluster routes messages between nodes and injects partitions.
type raftCluster struct {
	mu        sync.RWMutex
	nodes     []*raftNode
	partition map[int]int // nodeID -> group; nodes in different groups cannot talk
}

func newRaftCluster(n int, cfg RaftConfig, apply applyFn, seed int64) *raftCluster {
	c := &raftCluster{partition: make(map[int]int)}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, newRaftNode(i, n, cfg, c, apply, seed+int64(i)))
	}
	return c
}

func (c *raftCluster) start() {
	for _, n := range c.nodes {
		n.start()
	}
}

func (c *raftCluster) stop() {
	for _, n := range c.nodes {
		n.stopNode()
	}
}

// send routes msg to node "to" unless a partition or crash blocks it.
func (c *raftCluster) send(from, to int, msg raftMsg) {
	c.mu.RLock()
	blocked := c.partition[from] != c.partition[to]
	var target *raftNode
	if !blocked && to >= 0 && to < len(c.nodes) {
		target = c.nodes[to]
	}
	c.mu.RUnlock()
	if target == nil {
		return
	}
	target.deliver(msg)
}

// SetPartition assigns nodes to groups; cross-group traffic is dropped.
// Passing nil heals all partitions.
func (c *raftCluster) setPartition(groups map[int]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if groups == nil {
		c.partition = make(map[int]int)
		return
	}
	c.partition = groups
}

// leader returns the current leader's id, or -1.
func (c *raftCluster) leader() int {
	for _, n := range c.nodes {
		if n.isLeader() {
			return n.id
		}
	}
	return -1
}

type raftNode struct {
	id      int
	n       int // cluster size
	cfg     RaftConfig
	cluster *raftCluster
	apply   applyFn
	rng     *rand.Rand

	mu          sync.Mutex
	role        raftRole
	currentTerm uint64
	votedFor    int // -1 = none
	log         []logEntry
	commitIndex int // highest committed log index (1-based; 0 = none)
	lastApplied int
	votes       map[int]bool
	nextIndex   []int
	matchIndex  []int
	leaderID    int

	inbox   chan raftMsg
	resetCh chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
	running bool
}

func newRaftNode(id, n int, cfg RaftConfig, c *raftCluster, apply applyFn, seed int64) *raftNode {
	return &raftNode{
		id: id, n: n, cfg: cfg, cluster: c, apply: apply,
		rng:      rand.New(rand.NewSource(seed)),
		role:     roleFollower,
		votedFor: -1,
		leaderID: -1,
	}
}

// start launches (or relaunches after a crash) the node's main loop.
// Persistent state (term, vote, log) survives restarts, simulating disk.
func (rn *raftNode) start() {
	rn.mu.Lock()
	if rn.running {
		rn.mu.Unlock()
		return
	}
	rn.running = true
	rn.role = roleFollower
	rn.leaderID = -1
	rn.inbox = make(chan raftMsg, 1024)
	rn.resetCh = make(chan struct{}, 1)
	rn.stopCh = make(chan struct{})
	rn.doneCh = make(chan struct{})
	rn.mu.Unlock()
	go rn.run()
}

// stopNode crashes the node: the loop exits, volatile leadership is lost,
// persistent state is retained for restart.
func (rn *raftNode) stopNode() {
	rn.mu.Lock()
	if !rn.running {
		rn.mu.Unlock()
		return
	}
	rn.running = false
	close(rn.stopCh)
	done := rn.doneCh
	rn.mu.Unlock()
	<-done
}

func (rn *raftNode) isLeader() bool {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.running && rn.role == roleLeader
}

func (rn *raftNode) deliver(msg raftMsg) {
	rn.mu.Lock()
	running, inbox := rn.running, rn.inbox
	rn.mu.Unlock()
	if !running {
		return
	}
	select {
	case inbox <- msg:
	default: // drop under extreme backlog; raft tolerates message loss
	}
}

func (rn *raftNode) electionTimeout() time.Duration {
	span := rn.cfg.ElectionTimeoutMax - rn.cfg.ElectionTimeoutMin
	if span <= 0 {
		return rn.cfg.ElectionTimeoutMin
	}
	rn.mu.Lock()
	d := rn.cfg.ElectionTimeoutMin + time.Duration(rn.rng.Int63n(int64(span)))
	rn.mu.Unlock()
	return d
}

func (rn *raftNode) run() {
	defer close(rn.doneCh)
	electionTimer := time.NewTimer(rn.electionTimeout())
	defer electionTimer.Stop()
	heartbeat := time.NewTicker(rn.cfg.HeartbeatInterval)
	defer heartbeat.Stop()

	for {
		select {
		case <-rn.stopCh:
			return
		case <-rn.resetCh:
			if !electionTimer.Stop() {
				select {
				case <-electionTimer.C:
				default:
				}
			}
			electionTimer.Reset(rn.electionTimeout())
		case <-electionTimer.C:
			rn.startElection()
			electionTimer.Reset(rn.electionTimeout())
		case <-heartbeat.C:
			rn.broadcastIfLeader()
		case msg := <-rn.inbox:
			rn.handle(msg)
		}
	}
}

func (rn *raftNode) resetElectionTimer() {
	select {
	case rn.resetCh <- struct{}{}:
	default:
	}
}

func (rn *raftNode) startElection() {
	rn.mu.Lock()
	if rn.role == roleLeader {
		rn.mu.Unlock()
		return
	}
	rn.role = roleCandidate
	rn.currentTerm++
	rn.votedFor = rn.id
	rn.votes = map[int]bool{rn.id: true}
	term := rn.currentTerm
	lastIdx := len(rn.log)
	var lastTerm uint64
	if lastIdx > 0 {
		lastTerm = rn.log[lastIdx-1].Term
	}
	rn.mu.Unlock()

	for i := 0; i < rn.n; i++ {
		if i == rn.id {
			continue
		}
		rn.cluster.send(rn.id, i, raftMsg{
			Type: msgRequestVote, From: rn.id, Term: term,
			LastLogIndex: lastIdx, LastLogTerm: lastTerm,
		})
	}
}

func (rn *raftNode) broadcastIfLeader() {
	rn.mu.Lock()
	if rn.role != roleLeader {
		rn.mu.Unlock()
		return
	}
	type out struct {
		to  int
		msg raftMsg
	}
	var outs []out
	for i := 0; i < rn.n; i++ {
		if i == rn.id {
			continue
		}
		prevIdx := rn.nextIndex[i] - 1
		var prevTerm uint64
		if prevIdx > 0 && prevIdx <= len(rn.log) {
			prevTerm = rn.log[prevIdx-1].Term
		}
		var entries []logEntry
		if rn.nextIndex[i] <= len(rn.log) {
			entries = append(entries, rn.log[rn.nextIndex[i]-1:]...)
		}
		outs = append(outs, out{to: i, msg: raftMsg{
			Type: msgAppendEntries, From: rn.id, Term: rn.currentTerm,
			PrevLogIndex: prevIdx, PrevLogTerm: prevTerm,
			Entries: entries, LeaderCommit: rn.commitIndex,
		}})
	}
	rn.mu.Unlock()
	for _, o := range outs {
		rn.cluster.send(rn.id, o.to, o.msg)
	}
}

func (rn *raftNode) handle(msg raftMsg) {
	switch msg.Type {
	case msgRequestVote:
		rn.handleRequestVote(msg)
	case msgVoteResp:
		rn.handleVoteResp(msg)
	case msgAppendEntries:
		rn.handleAppendEntries(msg)
	case msgAppendResp:
		rn.handleAppendResp(msg)
	case msgPropose:
		rn.handlePropose(msg)
	}
}

// stepDown transitions to follower for a newer term. Caller holds mu.
func (rn *raftNode) stepDownLocked(term uint64) {
	rn.currentTerm = term
	rn.role = roleFollower
	rn.votedFor = -1
}

func (rn *raftNode) handleRequestVote(msg raftMsg) {
	rn.mu.Lock()
	if msg.Term > rn.currentTerm {
		rn.stepDownLocked(msg.Term)
	}
	granted := false
	if msg.Term == rn.currentTerm && (rn.votedFor == -1 || rn.votedFor == msg.From) {
		lastIdx := len(rn.log)
		var lastTerm uint64
		if lastIdx > 0 {
			lastTerm = rn.log[lastIdx-1].Term
		}
		upToDate := msg.LastLogTerm > lastTerm ||
			(msg.LastLogTerm == lastTerm && msg.LastLogIndex >= lastIdx)
		if upToDate {
			granted = true
			rn.votedFor = msg.From
		}
	}
	term := rn.currentTerm
	rn.mu.Unlock()
	if granted {
		rn.resetElectionTimer()
	}
	rn.cluster.send(rn.id, msg.From, raftMsg{
		Type: msgVoteResp, From: rn.id, Term: term, Granted: granted,
	})
}

func (rn *raftNode) handleVoteResp(msg raftMsg) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if msg.Term > rn.currentTerm {
		rn.stepDownLocked(msg.Term)
		return
	}
	if rn.role != roleCandidate || msg.Term != rn.currentTerm || !msg.Granted {
		return
	}
	rn.votes[msg.From] = true
	if len(rn.votes) <= rn.n/2 {
		return
	}
	// Won the election.
	rn.role = roleLeader
	rn.leaderID = rn.id
	rn.nextIndex = make([]int, rn.n)
	rn.matchIndex = make([]int, rn.n)
	for i := range rn.nextIndex {
		rn.nextIndex[i] = len(rn.log) + 1
	}
}

func (rn *raftNode) handleAppendEntries(msg raftMsg) {
	rn.mu.Lock()
	if msg.Term > rn.currentTerm {
		rn.stepDownLocked(msg.Term)
	}
	success := false
	matchIdx := 0
	if msg.Term == rn.currentTerm {
		if rn.role != roleFollower {
			rn.role = roleFollower
		}
		rn.leaderID = msg.From
		// Log consistency check.
		ok := msg.PrevLogIndex == 0 ||
			(msg.PrevLogIndex <= len(rn.log) && rn.log[msg.PrevLogIndex-1].Term == msg.PrevLogTerm)
		if ok {
			success = true
			// Append/overwrite entries.
			idx := msg.PrevLogIndex
			for _, e := range msg.Entries {
				idx++
				if idx <= len(rn.log) {
					if rn.log[idx-1].Term != e.Term {
						rn.log = rn.log[:idx-1]
						rn.log = append(rn.log, e)
					}
				} else {
					rn.log = append(rn.log, e)
				}
			}
			matchIdx = msg.PrevLogIndex + len(msg.Entries)
			if msg.LeaderCommit > rn.commitIndex {
				rn.commitIndex = min(msg.LeaderCommit, len(rn.log))
			}
		}
	}
	term := rn.currentTerm
	rn.mu.Unlock()

	rn.resetElectionTimer()
	rn.applyCommitted()
	rn.cluster.send(rn.id, msg.From, raftMsg{
		Type: msgAppendResp, From: rn.id, Term: term,
		Success: success, MatchIndex: matchIdx,
	})
}

func (rn *raftNode) handleAppendResp(msg raftMsg) {
	rn.mu.Lock()
	if msg.Term > rn.currentTerm {
		rn.stepDownLocked(msg.Term)
		rn.mu.Unlock()
		return
	}
	if rn.role != roleLeader || msg.Term != rn.currentTerm {
		rn.mu.Unlock()
		return
	}
	if msg.Success {
		if msg.MatchIndex > rn.matchIndex[msg.From] {
			rn.matchIndex[msg.From] = msg.MatchIndex
		}
		rn.nextIndex[msg.From] = rn.matchIndex[msg.From] + 1
		// Advance commit index: an index is committed when a majority
		// matches and the entry is from the current term.
		for idx := len(rn.log); idx > rn.commitIndex; idx-- {
			if rn.log[idx-1].Term != rn.currentTerm {
				break
			}
			count := 1 // self
			for i := 0; i < rn.n; i++ {
				if i != rn.id && rn.matchIndex[i] >= idx {
					count++
				}
			}
			if count > rn.n/2 {
				rn.commitIndex = idx
				break
			}
		}
	} else if rn.nextIndex[msg.From] > 1 {
		rn.nextIndex[msg.From]--
	}
	rn.mu.Unlock()
	rn.applyCommitted()
}

func (rn *raftNode) handlePropose(msg raftMsg) {
	rn.mu.Lock()
	if rn.role != roleLeader {
		rn.mu.Unlock()
		return // client retries via the facade
	}
	rn.log = append(rn.log, logEntry{Term: rn.currentTerm, Batch: msg.Batch})
	rn.mu.Unlock()
	rn.broadcastIfLeader()
}

func (rn *raftNode) applyCommitted() {
	for {
		rn.mu.Lock()
		if rn.lastApplied >= rn.commitIndex {
			rn.mu.Unlock()
			return
		}
		rn.lastApplied++
		idx := rn.lastApplied
		batch := rn.log[idx-1].Batch
		rn.mu.Unlock()
		if rn.apply != nil {
			rn.apply(rn.id, idx, batch)
		}
	}
}

func (rn *raftNode) status() string {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return fmt.Sprintf("node %d term %d role %s log %d commit %d",
		rn.id, rn.currentTerm, rn.role, len(rn.log), rn.commitIndex)
}
