package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is shared and has a fast and a slow
// state (NOISE.md): in the slow one every time metric of every workload is
// 16–26% higher while the allocation counts stand still, and the state
// changes every twenty minutes to an hour. A bound of 0.10 cannot tell that
// from a regression, and nothing measured inside one run averages it out. So
// each run times a fixed reference kernel between its rounds — standard-
// library work of the kind the workloads are made of, and none of this
// repository's code, so no change to the program can move it — and reports
// its time metrics at the speed of the reference machine: measured ×
// (nominal kernel time ÷ kernel time now). What the kernel cannot see, it
// cannot correct: a change of Go toolchain moves kernel and program alike
// and calls for a new baseline, as it would without the correction.

// refNominalMs is the kernel's CPU time per unit on the machine the workload
// rates were taken on, between its fast and slow spells. It only fixes the
// scale of the reported milliseconds.
const refNominalMs = 3.8

var refKey = func() *ecdsa.PrivateKey {
	k, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		panic(err) // no entropy: nothing else would work either
	}
	return k
}()

// refUnit is one unit of reference work: ECDSA sign and verify and SHA-256
// of a buffer, the compute that dominates every workload's profile. It
// allocates next to nothing, so the collector never runs on its account.
func refUnit(buf []byte) {
	digest := sha256.Sum256(buf[:64])
	for i := 0; i < 24; i++ {
		sig, err := ecdsa.SignASN1(rand.Reader, refKey, digest[:])
		if err != nil || !ecdsa.VerifyASN1(&refKey.PublicKey, digest[:], sig) {
			panic("reference kernel: ECDSA round trip failed")
		}
	}
	for i := 0; i < 4; i++ {
		digest = sha256.Sum256(buf)
		buf[i] ^= digest[0]
	}
}

// processCPU reads CLOCK_PROCESS_CPUTIME_ID: the scheduler's exact account
// of this process's CPU time, where getrusage is sampled at clock ticks and
// too coarse for a sample this short.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// sampleRef times the kernel once, numClients goroutines each running units
// of it at once as the workloads do, and returns process CPU milliseconds per
// unit. CPU time, not wall: under steal the kernel's wall time swings by tens
// of percent between samples, and dividing by it made op_p10_ms — a low
// quantile, which steal barely touches — seven times noisier than it was.
func sampleRef(units int) float64 {
	bufs := make([][]byte, numClients)
	for c := range bufs {
		bufs[c] = make([]byte, 256<<10)
	}
	var wg sync.WaitGroup
	cpu0 := processCPU()
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(buf []byte) {
			defer wg.Done()
			for u := 0; u < units; u++ {
				refUnit(buf)
			}
		}(bufs[c])
	}
	wg.Wait()
	return float64((processCPU() - cpu0).Nanoseconds()) / 1e6 / float64(numClients*units)
}

// machineSpeed is how many times longer CPU work took during this run than on
// the reference machine: the mean of the kernel's samples over the nominal
// value. The mean, not a robust quantile: a round is long enough to run
// through every burst of contention, so a sample that lands in one carries
// information the rounds' values share. Across a change of the box's state
// that moved the raw times by 16–26% (NOISE.md), times divided by the mean
// sample stayed within 4%; by the median or the lower quartile, within 7%.
func machineSpeed(samples []float64) float64 {
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples)) / refNominalMs
}
