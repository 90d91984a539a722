//go:build !amd64

package main

// cpuInfo has no CPUID to read off amd64.
func cpuInfo() (model string, avx2, avx512f bool) { return "unknown", false, false }
