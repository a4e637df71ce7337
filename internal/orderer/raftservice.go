package orderer

import (
	"sync"
	"time"

	"github.com/hyperprov/hyperprov/internal/blockstore"
	"github.com/hyperprov/hyperprov/internal/device"
)

// Raft is a crash-fault-tolerant ordering service backed by an in-process
// Raft cluster. It batches envelopes with the same front end as Solo and
// proposes each cut batch to the leader as one Raft log entry; committed
// entries become hash-chained blocks. One block stream is exposed regardless
// of which node applied the entry (entries at an index are identical on all
// nodes, so first-apply-wins deduplication is safe).
type Raft struct {
	*frontEnd
	cluster *raftCluster

	applyMu   sync.Mutex
	nextApply int                           // next raft index to turn into a block
	applied   map[int][]blockstore.Envelope // out-of-order arrivals
}

var _ Service = (*Raft)(nil)

// NewRaft creates and starts a Raft ordering service with n consenter
// nodes. exec models the ordering machines' per-batch cost (may be nil).
func NewRaft(n int, batch BatchConfig, raftCfg RaftConfig, exec *device.Executor, seed int64) *Raft {
	r := &Raft{
		frontEnd:  newFrontEnd(batch, exec),
		nextApply: 1,
		applied:   make(map[int][]blockstore.Envelope),
	}
	r.cluster = newRaftCluster(n, raftCfg, r.onApply, seed)
	r.cluster.start()
	go r.run(r.propose)
	return r
}

// onApply receives committed batches from every live node and emits each
// index exactly once, in order.
func (r *Raft) onApply(_, index int, batch []blockstore.Envelope) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	if index < r.nextApply {
		return // duplicate from another node
	}
	if _, dup := r.applied[index]; dup {
		return
	}
	r.applied[index] = batch
	for {
		b, ok := r.applied[r.nextApply]
		if !ok {
			return
		}
		delete(r.applied, r.nextApply)
		r.nextApply++
		if len(b) == 0 {
			continue
		}
		r.exec.Order()
		r.chain.appendBatch(b)
	}
}

// KillNode crashes a consenter node (volatile state lost, log retained).
func (r *Raft) KillNode(id int) {
	if id >= 0 && id < len(r.cluster.nodes) {
		r.cluster.nodes[id].stopNode()
	}
}

// RestartNode restarts a previously killed node.
func (r *Raft) RestartNode(id int) {
	if id >= 0 && id < len(r.cluster.nodes) {
		r.cluster.nodes[id].start()
	}
}

// Partition splits the consenter nodes into groups that cannot exchange
// messages; nil heals all partitions.
func (r *Raft) Partition(groups map[int]int) { r.cluster.setPartition(groups) }

// WaitLeader blocks until a leader is elected or the timeout elapses,
// returning the leader id or -1.
func (r *Raft) WaitLeader(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l := r.cluster.leader(); l >= 0 {
			return l
		}
		time.Sleep(2 * time.Millisecond)
	}
	return r.cluster.leader()
}

// Stop terminates the service and the consenter nodes, and closes the
// height: readers waiting past the last block return.
func (r *Raft) Stop() {
	r.halt()
	r.cluster.stop()
	r.chain.height.Close()
}

// propose sends the batch to the current leader, waiting briefly through
// elections. Batches proposed to a leader that then crashes before
// replication are lost; clients detect this via commit timeout and retry.
func (r *Raft) propose(batch []blockstore.Envelope) {
	for attempt := 0; attempt < 200; attempt++ {
		leader := r.cluster.leader()
		if leader >= 0 {
			r.cluster.send(leader, leader, raftMsg{Type: msgPropose, From: leader, Batch: batch})
			return
		}
		select {
		case <-r.stop:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}
