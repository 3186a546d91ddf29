//go:build !race

package balance

const raceBuild = false
