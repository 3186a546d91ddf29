//go:build !race

package control_test

const raceBuild = false
