//go:build amd64 && !amd64.v3

package gonamd_test

func init() { fmaFreeBuild = true }
