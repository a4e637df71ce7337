//go:build !race

package offchain

const raceEnabled = false
