// Package device stands in for the hardware cost model.
package device

type Executor struct{}

func (*Executor) Hash(int) {}
