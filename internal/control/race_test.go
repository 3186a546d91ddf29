//go:build race

package control_test

// raceBuild reports that the race detector is on. sync.Pool then drops
// a share of what is put back, on purpose, so the planner's recycled
// state is reallocated now and then and byte budgets mean nothing.
const raceBuild = true
