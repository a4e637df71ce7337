package main

import (
	"bytes"
	"fmt"
	"reflect"
	"syscall"
	"testing"
)

func syscallTimeval(sec, usec int64) syscall.Timeval {
	return syscall.Timeval{Sec: sec, Usec: usec}
}

// inputSequence renders everything a run's operations would feed the program
// for a few rounds: keys, checksums, read targets and payload bytes.
func inputSequence(seed int64) []string {
	g := gen{seed}
	var out []string
	bufs := [][]byte{g.payloadBase(0, 4096), g.payloadBase(1, 4096)}
	for r := 0; r < 3; r++ {
		for i := 0; i < 50; i++ {
			out = append(out, g.key("p", r, i), g.checksum(r, i))
			for slot := 1; slot <= 24; slot++ {
				out = append(out, fmt.Sprint(g.pick(streamRead, r, i, slot, dagChains*dagLength)))
			}
			buf := bufs[i%2]
			g.stampPayload(buf, r, i)
			out = append(out, string(buf[:payloadStamp]))
		}
	}
	out = append(out, string(bufs[0]), string(bufs[1]))
	return out
}

func TestSeedDeterminism(t *testing.T) {
	a, b := inputSequence(42), inputSequence(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different inputs")
	}
	c := inputSequence(43)
	if len(c) != len(a) {
		t.Fatalf("different seed changed the counts: %d vs %d", len(c), len(a))
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	// Read targets are small integers and will coincide now and then; keys,
	// checksums and payloads must not.
	if same > len(a)/10 {
		t.Errorf("seeds 42 and 43 share %d of %d inputs", same, len(a))
	}
}

func TestInputsAreUniqueWithinARun(t *testing.T) {
	g := gen{7}
	seen := map[string]bool{}
	buf := g.payloadBase(0, 1024)
	for r := -1; r < 4; r++ {
		for i := 0; i < 200; i++ {
			g.stampPayload(buf, r, i)
			for _, v := range []string{g.key("p", r, i), g.checksum(r, i), string(buf)} {
				if seen[v] {
					t.Fatalf("input repeated at round %d op %d: %q", r, i, v[:min(len(v), 40)])
				}
				seen[v] = true
			}
		}
	}
}

func TestPayloadBaseDiffersPerClient(t *testing.T) {
	g := gen{7}
	if bytes.Equal(g.payloadBase(0, 4096), g.payloadBase(1, 4096)) {
		t.Error("clients share a payload base")
	}
}

func TestPickStaysInRange(t *testing.T) {
	g := gen{3}
	for i := 0; i < 1000; i++ {
		if v := g.pick(streamRead, 1, i, 2, 7); v < 0 || v >= 7 {
			t.Fatalf("pick = %d", v)
		}
	}
}
