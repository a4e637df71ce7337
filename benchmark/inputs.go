package main

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Every input the program under test sees — keys, checksums, payload bytes,
// DAG parents, read targets — is a pure function of (seed, stream, round,
// index). No shared generator state: an operation's inputs do not depend on
// which client goroutine runs it or on what ran before it.

// Streams keep the values drawn for different purposes independent.
const (
	streamKey uint64 = iota + 1
	streamChecksum
	streamPayload
	streamParent
	streamRead
	streamType
)

// mix is splitmix64's finaliser over the combined coordinates.
func mix(seed int64, stream uint64, round, index int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^
		uint64(round+1)*0x94d049bb133111eb ^ uint64(index+1)*0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// gen derives one workload's inputs from its seed.
type gen struct{ seed int64 }

// key names a fresh item: the round and index make it unique within a run,
// the seeded tag makes the sequence differ between seeds.
func (g gen) key(prefix string, round, index int) string {
	return fmt.Sprintf("%s-%08x-%d-%d", prefix, uint32(mix(g.seed, streamKey, round, index)), round, index)
}

// checksum is a seeded stand-in for a payload digest (metadata-only Posts
// carry a checksum but no payload). Unique per (round, index), as the
// chaincode's checksum index requires.
func (g gen) checksum(round, index int) string {
	var b [32]byte
	for w := 0; w < 4; w++ {
		binary.BigEndian.PutUint64(b[w*8:], mix(g.seed, streamChecksum, round, index*4+w))
	}
	binary.BigEndian.PutUint32(b[24:], uint32(round))
	binary.BigEndian.PutUint32(b[28:], uint32(index))
	return "sha256:" + hex.EncodeToString(b[:])
}

// pick draws a value in [0, n) for coordinate (round, index, slot).
func (g gen) pick(stream uint64, round, index, slot, n int) int {
	return int(mix(g.seed, stream, round, index*64+slot) % uint64(n))
}

// payloadStamp is the number of leading payload bytes rewritten per
// operation; the rest of the buffer is the client's seeded base.
const payloadStamp = 64

// payloadBase fills a client's size-byte base buffer from the seed.
func (g gen) payloadBase(client, size int) []byte {
	buf := make([]byte, size)
	for off := 0; off < size; off += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(g.seed, streamPayload, -1-client, off/8))
		copy(buf[off:], w[:])
	}
	return buf
}

// stampPayload makes buf's content unique to (round, index) by rewriting
// its first payloadStamp bytes. Generating all 256 KiB afresh per operation
// would put the harness's own generator into cpu_ms_per_op.
func (g gen) stampPayload(buf []byte, round, index int) {
	for w := 0; w*8 < payloadStamp && w*8+8 <= len(buf); w++ {
		binary.LittleEndian.PutUint64(buf[w*8:], mix(g.seed, streamPayload, round, index*8+w))
	}
	if len(buf) >= 16 {
		binary.LittleEndian.PutUint32(buf[8:], uint32(round))
		binary.LittleEndian.PutUint32(buf[12:], uint32(index))
	}
}
