//go:build amd64

package gonamd_test

func init() { fmaFreeBuild = true }
